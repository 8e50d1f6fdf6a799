"""Projective planes as bit-matrix incidence structures."""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import getitem, is_, itemgetter, or_
from typing import NamedTuple

from .galois import Field, build_field, prime_power

_POINT_ID = re.compile(r"P([0-9]+)")
_LINE_ID = re.compile(r"L([0-9]+)")


def bitmask(ids) -> int:
    """Integer with bit i set for every id i."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def _rows_and_cols(line_points):
    """Ascending id tuples of the lines and of their transpose, the lines
    through each point, with every id taken from one list of ints."""
    ids = list(range(len(line_points)))
    rows = [tuple(map(ids.__getitem__, sorted(pts))) for pts in line_points]
    point_lines = [[] for _ in ids]
    for li, pts in zip(ids, rows):
        for p in pts:
            point_lines[p].append(li)
    return rows, list(map(tuple, point_lines))


class IncidencePlane:
    """Immutable incidence structure of a projective plane of order q.

    Incidence is held in both orientations: ``line_masks[i]`` has bit j set
    when point j lies on line i, and ``point_masks[j]`` has bit i set when
    line i passes through point j. Ascending id tuples mirror the masks;
    the cyclic garbage collector tracks a tuple from its creation, and a
    tuple of ints becomes untracked at the first collection that visits
    it. A built plane is its own dual under the polarity of its
    coordinates, so line j and point j have the same row: its point-side
    lists are separate lists holding the line side's row and mask objects.
    The constructor takes only q and a list of n rows of point ids, and
    does not check that the ids lie in 0..n-1; ``load_plane`` does. A
    plane keeps no coordinates: ``build_pg2`` places its rows by the ids
    of homogeneous triples and makes no triple.
    """

    __slots__ = ("q", "n", "line_points", "point_lines", "line_masks", "point_masks")

    def __init__(self, q, line_points):
        rows, cols = _rows_and_cols(line_points)
        self._set(q, rows, cols, list(map(bitmask, rows)), list(map(bitmask, cols)))

    def _set(self, q, line_points, point_lines, line_masks, point_masks):
        self.q, self.n = q, len(line_points)
        self.line_points, self.point_lines = line_points, point_lines
        self.line_masks, self.point_masks = line_masks, point_masks
        return self

    def __repr__(self) -> str:
        return f"IncidencePlane(q={self.q}, n={self.n})"

    def dual(self) -> "IncidencePlane":
        """Plane with the roles of points and lines exchanged, sharing all storage."""
        return object.__new__(IncidencePlane)._set(
            self.q, self.point_lines, self.line_points, self.point_masks, self.line_masks
        )


def build_pg2(f: Field) -> IncidencePlane:
    """Coordinatized plane of order q over the given field.

    Points and lines are the canonical homogeneous triples in ascending
    lexicographic order; ids follow that order, so (0,0,1), (0,1,z) and
    (1,y,z) have ids 0, 1+z and 1+q+qy+z. Point P lies on line L exactly
    when the dot product of their triples vanishes. A line with c != 0 is
    z = k + m*y for k = -a/c and m = -b/c, through (0,1,m); a line with
    c = 0 holds (0,0,1) and either every (0,1,z) or every (1,-a/b,z).

    Rows and masks come by translation: line (k, m) is line (0, m) with z
    moved by +k inside every block of q ids, the points (1,y,*). Its row
    takes from block y the id at z = m*y + k, read for all k at once by an
    itemgetter over the field's sum table. Its mask is the head bit 1+m
    plus a body moved by whole-integer shifts, equal to ``bitmask`` of the
    row. Adding s = p**j raises base-p digit j of each z by one mod p: a
    body bit whose digit j is below p-1 moves up by s, any other moves down
    by (p-1)*s. Step t of a p-ary Gray walk adds p**v_p(t), the largest
    power of p dividing t, and steps 1..q-1 reach every k once; so each
    slope costs one base mask and q-1 shifts of its body.
    """
    q, p = f.q, f.p
    elems = range(q)
    ids = list(range(q * q + q + 1))
    # the field's product and sum tables, the only field values read here:
    # -1 is the c with 1 + c = 0, and ninv[c] = -1/c the b with c*b = -1
    products, sums = f.tables()
    minus_one = sums[1].index(0)
    ninv = [0] + [products[c].index(minus_one) for c in range(1, q)]
    infinity = tuple(ids[: q + 1])
    blocks = [ids[1 + q + q * y : 1 + 2 * q + q * y] for y in elems]  # ids of (1,y,*)

    # Line (k, m) with c != 0 is entry q*m + k of the tables, which end with
    # the lines with c = 0. shift[c](block) lists the ids of block at
    # z = c + k for k = 0..q-1, so one zip gives the q rows of a slope.
    shift = [itemgetter(*zs) for zs in sums]
    table_rows = []
    for m, zs in enumerate(products):
        table_rows += zip(repeat(ids[1 + m], q), *(shift[c](b) for c, b in zip(zs, blocks)))
    table_rows += [(0, *ys) for ys in blocks]
    table_rows.append(infinity)
    block = (1 << q) - 1
    table_masks = [None] * (q * q) + [1 | block << 1 + q + q * x for x in elems]
    table_masks.append((1 << q + 1) - 1)

    # Step t of the walk adds s = p**v_p(t) to k: a body bit moves up by s
    # where digit j of z is below p-1 (the bits of `up`), else down by (p-1)*s.
    # Steps 1..p*s-1 are p copies of steps 1..s-1, the first p-1 copies each
    # followed by a step of digit j.
    body_bits = (1 << q * q) - 1 << 1 + q  # ids of (1,*,*)
    walk, s = [], 1
    while s < q:
        every = ((1 << q * q) - 1) // ((1 << p * s) - 1) << 1 + q  # period p*s
        up = ((1 << (p - 1) * s) - 1) * every
        walk = (walk + [(s, up, up ^ body_bits, (p - 1) * s)]) * (p - 1) + walk
        s *= p
    heads = [1 << 1 + m for m in elems]
    bodies = [bitmask(map(getitem, blocks, zs)) for zs in products]  # k = 0
    k = 0
    table_masks[k : q * q : q] = map(or_, bodies, heads)
    for s, up, down, wrap in walk:
        bodies = [(body & up) << s | (body & down) >> wrap for body in bodies]
        k = sums[k][s]
        table_masks[k : q * q : q] = map(or_, bodies, heads)

    # The table entry of triple (a,b,c), in id order: q*(b*ninv[c]) +
    # a*ninv[c] when c != 0, else q*q + a*ninv[b] when b != 0, else q*q + q.
    # So (0,0,1) is entry 0; (0,1,0) is q*q and (0,1,z) is q*ninv[z]; (1,0,0)
    # is q*q + q, (1,y,0) is q*q + ninv[y] and (1,y,z) is q*(y*w) + w for
    # w = ninv[z].
    nz = ninv[1:]
    entries = [0, q * q, *(q * w for w in nz)]
    for y, row in enumerate(products):
        entries.append(q * q + ninv[y] if y else q * q + q)
        entries += [q * row[w] + w for w in nz]
    rows = list(map(table_rows.__getitem__, entries))
    masks = list(map(table_masks.__getitem__, entries))
    return object.__new__(IncidencePlane)._set(q, rows, list(rows), masks, list(masks))


def plane_order(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e; ValueError unless q is a prime power of at least 2."""
    if q < 2:
        raise ValueError(f"plane order must be at least 2, got {q}")
    return prime_power(q)


# The most memory a plane may take, by ``_check_plane_bytes``' estimate:
# every order up to 401 is below it, and 409 is above.
PLANE_BYTES_LIMIT = 4 << 30


def _check_plane_bytes(q: int) -> None:
    """ValueError when PG(2,q) as ``build_pg2`` stores it would take more
    than PLANE_BYTES_LIMIT bytes, checked from q alone, before anything is
    built. Each of the n masks of n bits takes 4*ceil(n/30) + 32 bytes
    (30-bit digits, header and list slot) and each of the n rows of q+1
    ids 8*(q+1) + 56 bytes (ids, header and list slots); the point side
    shares both. That is 0.72 GB at q=256 and 10.3 GB at q=512."""
    n = q * q + q + 1
    need = n * (4 * -(-n // 30) + 32) + n * (8 * (q + 1) + 56)
    if need > PLANE_BYTES_LIMIT:
        raise ValueError(
            f"plane of order {q} needs about {need / 1e9:.3g} GB to hold, "
            f"above the limit of {PLANE_BYTES_LIMIT / 1e9:.3g} GB"
        )


def build_plane(q: int) -> IncidencePlane:
    """Build PG(2,q) for a prime power q whose plane ``_check_plane_bytes``
    admits."""
    order = plane_order(q)
    _check_plane_bytes(q)
    return build_pg2(build_field(*order))


# Size violation kinds and messages, for the lines of the plane and for the
# lines of its dual, which are the points of the plane.
_SIZES = (
    ("line-size", "line L{} has {} points, expected {}"),
    ("point-degree", "point P{} lies on {} lines, expected {}"),
)


def _violation(kind: str, message: str) -> ValueError:
    return ValueError(f"axiom violation ({kind}): {message}")


def _check_sizes(q: int, line_sizes, point_sizes) -> None:
    """Raise the first line-size, then point-degree, violation: each size,
    in id order, must be q+1."""
    want = q + 1
    for sizes, (kind, text) in zip((line_sizes, point_sizes), _SIZES):
        for i, size in enumerate(sizes):
            if size != want:
                raise _violation(kind, text.format(i, size, want))


def validate_axioms(plane: IncidencePlane) -> None:
    """Check the projective plane axioms against the plane's declared order.

    Raises ValueError("axiom violation (<kind>): <message>") at the first
    violation, checking the order, line sizes, point degrees and point
    pairs in that order. Sizes are the bit counts of the masks, passed to
    the size check that ``load_plane`` runs on its rows before it builds
    any mask, so both report a size violation with the same message.

    Lines need no pair check of their own. Once n = q*q + q + 1, every line
    has q+1 points, every point lies on q+1 lines and every two points
    share exactly one line, fix a line L. Each of its q+1 points lies on q
    lines other than L, and these q(q+1) = n-1 lines are pairwise distinct:
    one line through two points of L would give those points a second
    common line. So every line other than L is among them exactly once,
    that is, it meets L in exactly one point.

    The point-pair check counts instead of scanning, since it runs only
    once the order and sizes hold. Then each of the q+1 lines through
    point i holds q points other than i, so the union of their point sets
    has at most 1 + (q+1)q = n members, and it covers all n points exactly
    when every other point shares one line with point i. A point whose
    union is full has no pair violation and is skipped; only a point whose
    union falls short is scanned against the points after it. A violating
    pair (i, j) leaves both unions short, so the first violation is the one
    a full pair scan finds. On a valid plane the check costs O(nq)
    big-integer ORs instead of n*n/2 ANDs.
    """
    n = plane.n
    if n == 0:
        raise _violation("order", "order undeterminable: plane has no lines")
    q = plane.q
    if n != q * q + q + 1:
        raise _violation("order", f"{n} lines but order {q} requires {q * q + q + 1}")
    _check_sizes(q, map(int.bit_count, plane.line_masks), map(int.bit_count, plane.point_masks))
    full = (1 << n) - 1
    masks, cover = plane.point_masks, plane.line_masks
    for i, row in enumerate(plane.point_lines):
        if reduce(or_, map(cover.__getitem__, row), 0) == full:
            continue
        mi = masks[i]
        for j in range(i + 1, n):
            c = (mi & masks[j]).bit_count()
            if c != 1:
                raise _violation("point-pair", f"points P{i} and P{j} lie on {c} common lines")


def plane_to_doc(plane: IncidencePlane) -> dict:
    """Serialize a plane to its JSON document form."""
    return {
        "q": plane.q,
        "lines": [
            {"id": f"L{i}", "points": [f"P{p}" for p in pts]}
            for i, pts in enumerate(plane.line_points)
        ],
    }


class VertexNames(NamedTuple):
    """The canonical names of n points and n lines."""

    points: list[str]  # P0..P(n-1), indexed by point id
    ids: dict[str, int]  # "Pi" to i and "Li" to n + i, the vertex ids


@lru_cache(maxsize=1)
def vertex_names(n: int) -> VertexNames:
    """The name table of n points and n lines, made once for the last n
    asked for and shared by every caller, who must not change it. It holds
    about 0.23 MB at n = 1057 (q = 32), 3.9 MB at n = 16513 (q = 128) and
    16 MB at n = 65793 (q = 256), by tracemalloc."""
    # a list: _parse_lines maps its __getitem__ over rows, and a tuple's is slower
    points = [f"P{i}" for i in range(n)]
    ids = dict(zip(points, range(n)))
    ids.update(zip([f"L{i}" for i in range(n)], range(n, 2 * n)))
    return VertexNames(points, ids)


def _point_id(name, li: int) -> int:
    m = _POINT_ID.fullmatch(str(name))
    if not m:
        raise ValueError(f"bad point id {name!r} on line L{li}")
    return int(m.group(1))


def _line_id(name, n: int) -> int:
    m = _LINE_ID.fullmatch(str(name))
    if not m:
        raise ValueError(f"bad line id {name!r}")
    li = int(m.group(1))
    if li >= n:
        raise ValueError(f"line id L{li} out of range for {n} lines")
    return li


def _line_index(name, ids: dict, n: int) -> int:
    """The line id of a line name: one table lookup, or the line-id pattern
    for a name the table lacks or gives a point."""
    try:
        li = ids[name] - n
    except (KeyError, TypeError):
        return _line_id(name, n)
    return li if li >= 0 else _line_id(name, n)


def _point_ids(points: list, ids: dict, n: int, li: int) -> tuple[int, ...]:
    """The ids of line li's point names, in their order: one table lookup
    each, or the point-id pattern for a line with a name the table lacks
    or gives a line."""
    try:
        pts = tuple(map(ids.__getitem__, points))
    except (KeyError, TypeError):
        pass
    else:
        if max(pts, default=0) < n:
            return pts
    return tuple(_point_id(name, li) for name in points)


def _parse_lines(lines: list, built: IncidencePlane | None) -> list[tuple[int, ...]]:
    """The point ids of each line of the document, indexed by line id.

    Names are read in ``vertex_names(n)``, the table of P0..P(n-1) and
    L0..L(n-1) that ``metric.partition_from_doc`` reads too; only the
    table of the last n is kept, so loading planes of one order builds it
    once. A line id is one lookup in it, and so is a point name. An id or
    a name the table lacks, such as "L01", "P007", a number or an id of n
    or more, or one naming the other kind of vertex, is read with the
    line-id or point-id pattern instead; both ways give the same ids. With
    ``built``, the PG(2,q) of the document's shape, an entry that lists
    built line i's point names in its order, under id Li, keeps the built
    row itself, and its names are not parsed.
    """
    n = len(lines)
    line_points: list[tuple[int, ...] | None] = [None] * n
    names, ids = vertex_names(n)
    name_of = names.__getitem__
    for pos, entry in enumerate(lines):
        if not isinstance(entry, dict) or "id" not in entry or "points" not in entry:
            raise ValueError(f"line entry {pos} must have 'id' and 'points'")
        li = _line_index(entry["id"], ids, n)
        if line_points[li] is not None:
            raise ValueError(f"duplicate line id L{li}")
        points = entry["points"]
        if not isinstance(points, list):
            raise ValueError(f"points of line L{li} must be an array")
        if built is not None and points == list(map(name_of, built.line_points[li])):
            line_points[li] = built.line_points[li]
            continue
        pts = _point_ids(points, ids, n, li)
        if len(set(pts)) != len(pts):
            raise ValueError(f"line L{li} repeats a point")
        line_points[li] = pts
    return line_points


def _pg2_shaped_like(doc: dict, q: int) -> IncidencePlane | None:
    """PG(2,q), built, when the document has its shape: q >= 2 is a prime
    power that a declared "q" does not contradict, there are q*q + q + 1
    line entries and each is an object with a list of q+1 points. Else None,
    so a document that cannot list PG(2,q)'s rows pays for no build."""
    lines = doc["lines"]
    if q < 2 or q * q + q + 1 != len(lines) or doc.get("q", q) != q:
        return None
    try:
        order = prime_power(q)
    except ValueError:  # no PG(2,q) to compare with
        return None
    if not all(
        isinstance(entry, dict) and isinstance(entry.get("points"), list)
        and len(entry["points"]) == q + 1
        for entry in lines
    ):
        return None
    return build_pg2(build_field(*order))


def load_plane(doc: dict) -> IncidencePlane:
    """Parse and validate a plane document.

    The order q is inferred from the line count n = q*q + q + 1 and must be
    at least 2; a declared "q" must agree. Point ids are implicit and every
    one of P0..P(n-1) must appear. Raises ValueError on malformed input or
    on the first axiom violation.

    The document is read once, by ``_parse_lines``. When n = q*q + q + 1
    for a prime power q >= 2 that a declared "q" does not contradict, and
    every entry is an object with a list of q+1 points, PG(2,q) is built
    first, as ``build_plane`` builds it. An entry ``{"id": "Li", "points":
    [...]}`` that lists built line i's point names in its order, taken from
    the n names P0..P(n-1), keeps the built row, and its names are not
    parsed. When every entry does so, in any entry order (line ids are
    distinct, so each built line is listed once), the document loads as
    the built plane, without masks or ``validate_axioms``: every file
    ``planepart plane`` writes is one, shuffled or not. That is sound
    because the incidence is then identical, id for id, to the built
    plane's, and PG(2,q) over a field satisfies the axioms: the tests run
    ``validate_axioms`` on every built plane up to q = 81, and CI on
    PG(2,125) and PG(2,128) through relabelled files.

    Any other document, such as a zero-padded, relabelled,
    non-Desarguesian or invalid one, or one incidence away from PG(2,q),
    takes the full loader, and the built plane is released. One count of
    the rows' point ids gives the coverage of P0..P(n-1) and every point's
    degree, and the line sizes and point degrees are checked by the size
    check that ``validate_axioms`` runs on masks, so with the same
    messages, before any row is sorted or transposed and before any mask
    is built: only a document whose sizes hold pays for the sort, the 2n
    masks and the point-pair check.
    """
    if not isinstance(doc, dict) or "lines" not in doc:
        raise ValueError("plane document must be an object with a 'lines' array")
    lines = doc["lines"]
    if not isinstance(lines, list) or not lines:
        raise ValueError("plane document has no lines")
    n = len(lines)
    q = (math.isqrt(4 * n - 3) - 1) // 2
    if q * q + q + 1 == n:
        _check_plane_bytes(q)
    built = _pg2_shaped_like(doc, q)
    line_points = _parse_lines(lines, built)
    if built is not None and all(map(is_, line_points, built.line_points)):
        return built
    built = None  # released before the sort and the masks
    if q < 1 or q * q + q + 1 != n:
        raise ValueError(f"{n} lines is not q*q + q + 1 for any order q >= 1")
    if q < 2:
        raise ValueError(f"plane order must be at least 2, got {q}")
    if "q" in doc and doc["q"] != q:
        raise ValueError(f"declared order {doc['q']!r} does not match inferred order {q}")
    degrees = Counter(chain.from_iterable(line_points))
    ids = set(range(n))
    if degrees.keys() != ids:
        missing = sorted(ids - degrees.keys())
        extra = sorted(degrees.keys() - ids)
        raise ValueError(
            f"point ids must be exactly P0..P{n - 1}"
            + (f"; missing {missing[:5]}" if missing else "")
            + (f"; unexpected {extra[:5]}" if extra else "")
        )
    _check_sizes(q, map(len, line_points), map(degrees.__getitem__, range(n)))
    plane = IncidencePlane(q, line_points)
    validate_axioms(plane)
    return plane
