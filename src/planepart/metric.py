"""Distances, representations and resolving checks on incidence graphs.

Vertices of the incidence graph of a plane of order q are its n points and
n lines, n = q*q + q + 1. The graph is bipartite with diameter 3, so every
distance to a nonempty vertex set is one of 0, 1, 2, 3 and has a closed
form; ``bfs_distance`` provides the independent shortest-path oracle.

``distance_columns`` states that rule vertex by vertex. ``packed_signatures``
computes the same distances for a family of m sets at once. For each set it
ORs the incidence rows of the set's members into the mask of vertices at
distance at most 1 and turns the 0/1/2/3 codes into two n-bit planes: the
low bit (codes 1 and 3) and the high bit (codes 2 and 3). It then
transposes the 2m planes of a side into one integer per vertex, in lanes of
ceil(2m / 8) bytes (at least one), so any family size fits. Set j occupies
bits 2j and 2j+1 of that integer.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .plane import IncidencePlane, bitmask

POINT = "P"
LINE = "L"

_VERTEX_ID = re.compile(r"^([PL])([0-9]+)$")


class VertexId(NamedTuple):
    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "VertexId":
        m = _VERTEX_ID.match(text)
        if not m:
            raise ValueError(f"bad vertex id {text!r}")
        return cls(m.group(1), int(m.group(2)))


def vertex_at(v: int, n: int) -> VertexId:
    """Vertex with integer id v: point v below n, else line v - n."""
    return VertexId(POINT, v) if v < n else VertexId(LINE, v - n)


def _iter_bits(mask: int):
    """Indices of the set bits of a nonnegative mask, ascending."""
    bits = format(mask, "b")[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


@dataclass(frozen=True)
class VertexSet:
    """Set of vertices as one membership bitmask per side."""

    point_mask: int = 0
    line_mask: int = 0

    @classmethod
    def from_indices(cls, points: Iterable[int] = (), lines: Iterable[int] = ()) -> "VertexSet":
        return cls(bitmask(points), bitmask(lines))

    @classmethod
    def from_vertices(cls, vertices: Iterable[VertexId]) -> "VertexSet":
        ids: tuple[list[int], list[int]] = ([], [])
        for kind, i in vertices:
            ids[kind != POINT].append(i)
        return cls.from_indices(*ids)

    def is_empty(self) -> bool:
        return self.point_mask == 0 and self.line_mask == 0

    def size(self) -> int:
        return self.point_mask.bit_count() + self.line_mask.bit_count()

    def point_ids(self) -> list[int]:
        return list(_iter_bits(self.point_mask))

    def line_ids(self) -> list[int]:
        return list(_iter_bits(self.line_mask))

    def vertices(self) -> list[VertexId]:
        out = [VertexId(POINT, i) for i in _iter_bits(self.point_mask)]
        out.extend(VertexId(LINE, i) for i in _iter_bits(self.line_mask))
        return out

    def intersects(self, other: "VertexSet") -> bool:
        return bool(self.point_mask & other.point_mask or self.line_mask & other.line_mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.point_mask | other.point_mask, self.line_mask | other.line_mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.point_mask ^ other.point_mask, self.line_mask ^ other.line_mask)

    def dual(self) -> "VertexSet":
        """The same vertices read in the dual plane, points and lines exchanged."""
        return VertexSet(self.line_mask, self.point_mask)


@dataclass
class Partition:
    """Ordered partition of all 2n vertices; class order is coordinate order."""

    classes: list[VertexSet]
    names: list[str] | None = None

    @property
    def m(self) -> int:
        return len(self.classes)

    def class_names(self) -> list[str]:
        if self.names is not None:
            return list(self.names)
        return [f"C{i}" for i in range(len(self.classes))]

    def validate(self, plane: IncidencePlane) -> None:
        """Raise ValueError unless classes are nonempty, disjoint and cover."""
        if not self.classes:
            raise ValueError("partition has no classes")
        if self.names is not None and len(self.names) != len(self.classes):
            raise ValueError("class name count does not match class count")
        full = (1 << plane.n) - 1
        pm = lm = 0
        for idx, cls in enumerate(self.classes):
            if cls.is_empty():
                raise ValueError(f"class {idx} is empty")
            if cls.point_mask & pm or cls.line_mask & lm:
                raise ValueError(f"class {idx} overlaps an earlier class")
            if cls.point_mask > full or cls.line_mask > full:
                raise ValueError(f"class {idx} has vertices out of range")
            pm |= cls.point_mask
            lm |= cls.line_mask
        if pm != full or lm != full:
            raise ValueError("classes do not cover every vertex")


def distance_to_set(plane: IncidencePlane, v: VertexId, s: VertexSet) -> int:
    """Distance from a vertex to a nonempty vertex set; see distance_columns."""
    kind, i = v
    pcol, lcol = distance_columns(plane, s, *(([i], []) if kind == POINT else ([], [i])))
    return (pcol or lcol)[0]


def distance_columns(
    plane: IncidencePlane,
    s: VertexSet,
    point_ids: Sequence[int] | None = None,
    line_ids: Sequence[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Distances from points and lines to one nonempty vertex set.

    0 when the vertex belongs to the set. A point is at distance 1 exactly
    when the set holds a line through it, else 2 when the set holds any
    point, else 3; lines behave dually. This equals the minimum graph
    distance to a member and applies unchanged to vertices outside every
    set of a family. Ids default to every point and every line.
    """
    if s.point_mask == 0 and s.line_mask == 0:
        raise ValueError("distance to an empty set is undefined")
    prange = range(plane.n) if point_ids is None else point_ids
    lrange = range(plane.n) if line_ids is None else line_ids
    far_point = 2 if s.point_mask else 3
    far_line = 2 if s.line_mask else 3
    pmasks = plane.point_masks
    lmasks = plane.line_masks
    lm = s.line_mask
    pm = s.point_mask
    pcol = [
        0 if pm >> p & 1 else (1 if pmasks[p] & lm else far_point) for p in prange
    ]
    lcol = [
        0 if lm >> li & 1 else (1 if lmasks[li] & pm else far_line) for li in lrange
    ]
    return pcol, lcol


_SPREAD = bytes.maketrans(b"01", b"\x00\x01")


def _point_signatures(plane: IncidencePlane, family: Sequence[VertexSet]) -> list[int]:
    """Packed distance vectors of every point to a family of nonempty sets."""
    n = plane.n
    line_masks = plane.line_masks
    full = (1 << n) - 1
    planes = []
    for s in family:
        near = 0
        for li in _iter_bits(s.line_mask):
            near |= line_masks[li]
        member = s.point_mask
        near &= ~member
        far = full & ~(member | near)
        planes += (near if member else full, far)
    lane = max(1, (len(planes) + 7) // 8)
    width = f"0{n}b"
    buf = bytearray(n * lane)
    for k in range(lane):
        group = 0
        for b, bits in enumerate(planes[8 * k : 8 * k + 8]):
            spread = format(bits, width)[::-1].encode().translate(_SPREAD)
            group |= int.from_bytes(spread, "little") << b
        buf[k::lane] = group.to_bytes(n, "little")
    return [int.from_bytes(buf[i : i + lane], "little") for i in range(0, n * lane, lane)]


def packed_signatures(
    plane: IncidencePlane,
    family: Sequence[VertexSet],
    point_ids: Sequence[int] | None = None,
    line_ids: Sequence[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Distance vectors to a set family, packed 2 bits per coordinate.

    Bits 2j and 2j+1 of a vertex's integer hold its distance to family[j].
    ``distance_columns`` is the reference form of the distance rule; this
    computes the same values for the whole family with whole-integer
    operations. Packed integers compare exactly, so equal values mean equal
    vectors.

    Each set gives two n-bit planes per side. The points at distance at
    most 1 (the OR of the incidence rows of the set's lines), less the
    set's members, form the low plane (codes 1 and 3). The points neither
    in nor next to the set form the high plane (codes 2 and 3). A set with
    no point has every point at distance 1 or 3, so its low plane is full.
    Bit v of a plane goes to byte v of a spread string, eight planes are
    shifted into one byte per vertex, and byte k of vertex v's lane holds
    planes 8k..8k+7. A lane is ceil(2m / 8) bytes (at least one), so any
    family size fits; the lanes are cut into integers at the end. Lines are
    the points of the dual plane. Ids default to every point and every
    line; given ids pick from the full lists in the order given.
    """
    if any(s.is_empty() for s in family):
        raise ValueError("distance to an empty set is undefined")
    psig = _point_signatures(plane, family)
    lsig = _point_signatures(plane.dual(), [s.dual() for s in family])
    if point_ids is not None:
        psig = [psig[p] for p in point_ids]
    if line_ids is not None:
        lsig = [lsig[li] for li in line_ids]
    return psig, lsig


@dataclass
class Verdict:
    """Outcome of a resolving check; groups list vertices sharing a vector."""

    resolving: bool
    collision_groups: list[list[VertexId]]


def signature_groups(sigs: Sequence[int], ids: Iterable) -> list[list]:
    """Ids that share a signature, as groups of two or more in first-seen order."""
    groups: dict[int, list] = {}
    for sig, v in zip(sigs, ids):
        groups.setdefault(sig, []).append(v)
    return [g for g in groups.values() if len(g) > 1]


def pair_count(groups: Iterable[Sequence]) -> int:
    """Number of unordered pairs within the groups."""
    return sum(len(g) * (len(g) - 1) // 2 for g in groups)


def is_resolving(plane: IncidencePlane, partition: Partition) -> Verdict:
    """Decide whether all 2n representation vectors are pairwise distinct."""
    partition.validate(plane)
    n = plane.n
    psig, lsig = packed_signatures(plane, partition.classes)
    groups = signature_groups(psig + lsig, range(2 * n))
    collisions = [[vertex_at(v, n) for v in g] for g in groups]
    return Verdict(not collisions, collisions)


def check_disjoint(family: Sequence[VertexSet]) -> None:
    """Raise ValueError naming the first two sets of a family that share a vertex."""
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if family[i].intersects(family[j]):
                raise ValueError(f"family sets {i} and {j} are not disjoint")


def unseparated_pairs(
    plane: IncidencePlane, family: Sequence[VertexSet]
) -> list[tuple[VertexId, VertexId]]:
    """All vertex pairs with equal distance to every set of a disjoint family.

    The family need not cover the vertex set; an empty family leaves every
    pair unseparated. Output is normalized to lexicographic order.
    """
    sets = list(family)
    check_disjoint(sets)
    n = plane.n
    psig, lsig = packed_signatures(plane, sets)
    groups = signature_groups(psig + lsig, range(2 * n))
    pairs = sorted(uw for g in groups for uw in combinations(g, 2))
    return [(vertex_at(u, n), vertex_at(w, n)) for u, w in pairs]


def bfs_distance(plane: IncidencePlane, u: VertexId, w: VertexId) -> int:
    """Exact shortest-path distance in the bipartite incidence graph."""
    if u == w:
        return 0
    seen = {u}
    frontier = deque([(u, 0)])
    while frontier:
        (kind, i), d = frontier.popleft()
        neighbors = plane.point_lines[i] if kind == POINT else plane.line_points[i]
        nkind = LINE if kind == POINT else POINT
        for j in neighbors:
            nv = VertexId(nkind, j)
            if nv == w:
                return d + 1
            if nv not in seen:
                seen.add(nv)
                frontier.append((nv, d + 1))
    raise ValueError("vertices are not connected")


def partition_to_doc(plane: IncidencePlane, partition: Partition) -> dict:
    """Serialize a partition; members are listed points first, ascending."""
    names = partition.class_names()
    classes = []
    for name, cls in zip(names, partition.classes):
        members = [f"P{i}" for i in cls.point_ids()]
        members.extend(f"L{i}" for i in cls.line_ids())
        classes.append({"name": name, "members": members})
    return {"q": plane.q, "classes": classes}


def partition_from_doc(doc: dict, plane: IncidencePlane) -> Partition:
    """Parse a partition document and check it covers every vertex once."""
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise ValueError("partition document must be an object with a 'classes' array")
    if "q" in doc and doc["q"] != plane.q:
        raise ValueError(f"partition order {doc['q']} does not match plane order {plane.q}")
    classes = []
    names = []
    for pos, entry in enumerate(doc["classes"]):
        if not isinstance(entry, dict) or "members" not in entry:
            raise ValueError(f"class entry {pos} must have 'members'")
        names.append(str(entry.get("name", f"C{pos}")))
        if not isinstance(entry["members"], list):
            raise ValueError(f"members of class {names[-1]!r} must be an array")
        members = [VertexId.parse(str(m)) for m in entry["members"]]
        for v in members:
            if v.index >= plane.n:
                raise ValueError(f"vertex {v} out of range for plane with n={plane.n}")
        cls = VertexSet.from_vertices(members)
        if cls.size() != len(members):
            twice = next(v for v, c in Counter(members).items() if c > 1)
            raise ValueError(f"class {names[-1]!r} lists vertex {twice} more than once")
        classes.append(cls)
    partition = Partition(classes, names)
    partition.validate(plane)
    return partition
