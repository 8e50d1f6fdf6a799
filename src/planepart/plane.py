"""Projective planes as bit-matrix incidence structures."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import getitem

from .galois import Field, build_field, prime_power

_POINT_ID = re.compile(r"^P([0-9]+)$")
_LINE_ID = re.compile(r"^L([0-9]+)$")


def bitmask(ids) -> int:
    """Integer with bit i set for every id i."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class IncidencePlane:
    """Immutable incidence structure of a projective plane of order q.

    Incidence is held in both orientations: ``line_masks[i]`` has bit j set
    when point j lies on line i, and ``point_masks[j]`` has bit i set when
    line i passes through point j. Ascending id tuples mirror the masks;
    tuples of ints are not tracked by the garbage collector. A built plane
    is its own dual under the polarity of its coordinates, so line j and
    point j have the same row: its point-side lists are separate lists
    holding the line side's row and mask objects. Coordinate triples are
    present only for algebraically built planes. ``dualized`` is true for
    the view returned by ``dual``, whose points are the lines of the plane
    it came from.
    """

    __slots__ = ("q", "n", "line_points", "point_lines", "line_masks", "point_masks",
                 "point_triples", "line_triples", "dualized")

    def __init__(self, q, line_points, point_triples=None, line_triples=None):
        rows = [sorted(pts) for pts in line_points]
        n = len(rows)
        ids = list(range(n))
        point_lines = [[] for _ in ids]
        for li, pts in zip(ids, rows):
            for p in pts:
                if not 0 <= p < n:
                    raise ValueError(f"point id {p} out of range 0..{n - 1}")
                point_lines[p].append(li)
        rows = [tuple(map(ids.__getitem__, pts)) for pts in rows]
        cols = list(map(tuple, point_lines))
        self._set(q, rows, cols, list(map(bitmask, rows)), list(map(bitmask, cols)),
                  point_triples, line_triples)

    def _set(self, q, line_points, point_lines, line_masks, point_masks,
             point_triples, line_triples, dualized=False):
        self.q, self.n, self.dualized = q, len(line_points), dualized
        self.line_points, self.point_lines = line_points, point_lines
        self.line_masks, self.point_masks = line_masks, point_masks
        self.point_triples, self.line_triples = point_triples, line_triples
        return self

    def __repr__(self) -> str:
        return f"IncidencePlane(q={self.q}, n={self.n})"

    def incident(self, point: int, line: int) -> bool:
        return bool(self.line_masks[line] >> point & 1)

    def dual(self) -> "IncidencePlane":
        """Plane with the roles of points and lines exchanged, sharing all storage."""
        return object.__new__(IncidencePlane)._set(
            self.q, self.point_lines, self.line_points, self.point_masks,
            self.line_masks, self.line_triples, self.point_triples, not self.dualized,
        )


def build_pg2(f: Field) -> IncidencePlane:
    """Coordinatized plane of order q over the given field.

    Points and lines are the canonical homogeneous triples in ascending
    lexicographic order; ids follow that order, so (0,0,1), (0,1,z) and
    (1,y,z) have ids 0, 1+z and 1+q+qy+z. Point P lies on line L exactly
    when the dot product of their triples vanishes. A line with c != 0 is
    z = k + m*y for k = -a/c and m = -b/c, through (0,1,m); a line with
    c = 0 holds (0,0,1) and either every (0,1,z) or every (1,-a/b,z).
    """
    q = f.q
    elems = range(q)
    triples = [(0, 0, 1), *((0, 1, z) for z in elems)]
    triples.extend((1, y, z) for y in elems for z in elems)
    ids = list(range(len(triples)))
    # the field's tables, read through its checked ops; ninv[c] is -1/c
    products = [tuple(f.mul(a, b) for b in elems) for a in elems]
    sums = [tuple(f.add(a, b) for b in elems) for a in elems]
    ninv = [0] + [f.neg(f.inv(c)) for c in range(1, q)]
    infinity = tuple(ids[: q + 1])
    blocks = [ids[1 + q + q * y : 1 + 2 * q + q * y] for y in elems]  # ids of (1,y,*)

    def line(a, b, c):
        if not c:
            return (0, *blocks[products[a][ninv[b]]]) if b else infinity
        k, m = products[a][ninv[c]], products[b][ninv[c]]
        return (ids[1 + m], *map(getitem, blocks, map(sums[k].__getitem__, products[m])))

    rows = [line(*t) for t in triples]
    masks = list(map(bitmask, rows))
    return object.__new__(IncidencePlane)._set(
        q, rows, list(rows), masks, list(masks), triples, triples
    )


def build_plane(q: int) -> IncidencePlane:
    """Build PG(2,q) for a prime power q."""
    if q < 2:
        raise ValueError(f"plane order must be at least 2, got {q}")
    p, e = prime_power(q)
    return build_pg2(build_field(p, e))


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)


# Violation kinds and messages, (size, pair), for the lines of the plane and
# for the lines of its dual, which are the points of the plane.
_AXIOMS = (
    (
        ("line-size", "line L{} has {} points, expected {}"),
        ("line-pair", "lines L{} and L{} meet in {} points"),
    ),
    (
        ("point-degree", "point P{} lies on {} lines, expected {}"),
        ("point-pair", "points P{} and P{} lie on {} common lines"),
    ),
)


def validate_axioms(plane: IncidencePlane, fail_fast: bool = False) -> ValidationReport:
    """Check the projective plane axioms against the plane's declared order.

    Violations are data, not errors: line sizes, point degrees, and the
    coverage counts of every point pair and line pair are reported, in that
    order. Each check is written once for lines and run on the plane and on
    its dual. With ``fail_fast`` the scan stops at the first violation.
    """
    violations: list[Violation] = []

    def bad(kind, message):
        violations.append(Violation(kind, message))
        return fail_fast

    n = plane.n
    if n == 0:
        bad("order", "order undeterminable: plane has no lines")
        return ValidationReport(False, violations)
    q = plane.q
    if n != q * q + q + 1:
        if bad("order", f"{n} lines but order {q} requires {q * q + q + 1}"):
            return ValidationReport(False, violations)
    want = q + 1
    sides = list(zip((plane, plane.dual()), _AXIOMS))
    for side, ((kind, text), _) in sides:
        for i, mask in enumerate(side.line_masks):
            size = mask.bit_count()
            if size != want and bad(kind, text.format(i, size, want)):
                return ValidationReport(False, violations)
    for side, (_, (kind, text)) in reversed(sides):
        masks = side.line_masks
        for i in range(n):
            mi = masks[i]
            for j in range(i + 1, n):
                c = (mi & masks[j]).bit_count()
                if c != 1 and bad(kind, text.format(i, j, c)):
                    return ValidationReport(False, violations)
    return ValidationReport(not violations, violations)


def plane_to_doc(plane: IncidencePlane) -> dict:
    """Serialize a plane to its JSON document form."""
    return {
        "q": plane.q,
        "lines": [
            {"id": f"L{i}", "points": [f"P{p}" for p in pts]}
            for i, pts in enumerate(plane.line_points)
        ],
    }


def load_plane(doc: dict) -> IncidencePlane:
    """Parse and validate a plane document.

    The order q is inferred from the line count n = q*q + q + 1; a declared
    "q" must agree. Point ids are implicit and every one of P0..P(n-1) must
    appear. Raises ValueError on malformed input or on the first axiom
    violation.
    """
    if not isinstance(doc, dict) or "lines" not in doc:
        raise ValueError("plane document must be an object with a 'lines' array")
    lines = doc["lines"]
    if not isinstance(lines, list) or not lines:
        raise ValueError("plane document has no lines")
    n = len(lines)
    line_points: list[list[int] | None] = [None] * n
    for pos, entry in enumerate(lines):
        if not isinstance(entry, dict) or "id" not in entry or "points" not in entry:
            raise ValueError(f"line entry {pos} must have 'id' and 'points'")
        m = _LINE_ID.match(str(entry["id"]))
        if not m:
            raise ValueError(f"bad line id {entry['id']!r}")
        li = int(m.group(1))
        if li >= n:
            raise ValueError(f"line id L{li} out of range for {n} lines")
        if line_points[li] is not None:
            raise ValueError(f"duplicate line id L{li}")
        if not isinstance(entry["points"], list):
            raise ValueError(f"points of line L{li} must be an array")
        pts = []
        for name in entry["points"]:
            pm = _POINT_ID.match(str(name))
            if not pm:
                raise ValueError(f"bad point id {name!r} on line L{li}")
            pts.append(int(pm.group(1)))
        if len(set(pts)) != len(pts):
            raise ValueError(f"line L{li} repeats a point")
        line_points[li] = pts
    q = (math.isqrt(4 * n - 3) - 1) // 2
    if q < 1 or q * q + q + 1 != n:
        raise ValueError(f"{n} lines is not q*q + q + 1 for any order q >= 1")
    if "q" in doc and doc["q"] != q:
        raise ValueError(f"declared order {doc['q']} does not match inferred order {q}")
    seen = set()
    for pts in line_points:
        seen.update(pts)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        extra = sorted(seen - set(range(n)))
        raise ValueError(
            f"point ids must be exactly P0..P{n - 1}"
            + (f"; missing {missing[:5]}" if missing else "")
            + (f"; unexpected {extra[:5]}" if extra else "")
        )
    plane = IncidencePlane(q, line_points)
    report = validate_axioms(plane, fail_fast=True)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"axiom violation ({first.kind}): {first.message}")
    return plane
