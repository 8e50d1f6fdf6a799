"""Distances, representations and resolving checks on incidence graphs.

Vertices of the incidence graph of a plane of order q are its n points and
n lines, n = q*q + q + 1. The graph is bipartite with diameter 3, so every
distance to a nonempty vertex set is one of 0, 1, 2, 3 and has a closed
form.

``packed_signatures`` applies that rule to a family of m sets at once. For
each set it ORs the incidence rows of the set's members into the mask of
vertices at distance at most 1 and turns the 0/1/2/3 codes into two n-bit
planes: the low bit (codes 1 and 3) and the high bit (codes 2 and 3). The
OR stops as soon as it covers every vertex of the side: it never shrinks,
so the rows left unread could not change it, and both planes are exact.
A large class, such as the construction's remainder, then stops long
before its last member. It then transposes the 2m planes of a side into
one integer per vertex: the planes are stacked into one integer, written
out once as a bit string, and each vertex asked for reads its column of
that string. Set j occupies bits 2j and 2j+1 of a vertex's integer.

``is_resolving`` asks only for the vertices it has to split: with known
head groups, the members of those groups, since a vertex in no group
already differs from every other; by default, every vertex.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .plane import IncidencePlane, bitmask, vertex_names

POINT = "P"
LINE = "L"

_VERTEX_ID = re.compile(r"([PL])([0-9]+)")


class VertexId(NamedTuple):
    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "VertexId":
        m = _VERTEX_ID.fullmatch(text)
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

    def is_empty(self) -> bool:
        return self.point_mask == 0 and self.line_mask == 0

    def point_ids(self) -> list[int]:
        return list(_iter_bits(self.point_mask))

    def line_ids(self) -> list[int]:
        return list(_iter_bits(self.line_mask))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.point_mask | other.point_mask, self.line_mask | other.line_mask)

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


def _point_signatures(
    plane: IncidencePlane, sets: Sequence[tuple[int, int]], ids: Sequence[int]
) -> list[int]:
    """Packed distance vectors of the points in ids, in ids order, to nonempty
    (line mask, point mask) sets."""
    n = plane.n
    if not sets:
        return [0] * len(ids)
    line_masks = plane.line_masks
    full = (1 << n) - 1
    stack = shift = 0
    for lines, member in sets:
        near = 0
        for li in _iter_bits(lines):
            near |= line_masks[li]
            if near == full:
                break
        near &= ~member
        far = full & ~(member | near)
        stack |= ((near if member else full) | far << n) << shift
        shift += 2 * n
    bits = format(stack, f"0{shift}b")
    top = n - 1
    return [int(bits[top - i::n], 2) for i in ids]


def packed_signatures(
    plane: IncidencePlane, family: Sequence[VertexSet]
) -> tuple[list[int], list[int]]:
    """Distance vectors to a set family, packed 2 bits per coordinate.

    Bits 2j and 2j+1 of a vertex's integer hold its distance to family[j]:
    0 when the vertex belongs to the set; for a point, 1 when the set holds
    a line through it, else 2 when the set holds any point, else 3; dually
    for a line. This equals the minimum graph distance to a member. Packed
    integers compare exactly, so equal values mean equal vectors.

    Each set gives two n-bit planes per side. The points at distance at
    most 1 (the OR of the incidence rows of the set's lines), less the
    set's members, form the low plane (codes 1 and 3). The points neither
    in nor next to the set form the high plane (codes 2 and 3). A set with
    no point has every point at distance 1 or 3, so its low plane is full.
    The OR stops at the first line that makes it cover every point: it only
    grows, so it would stay full, and both planes are then what the whole
    OR gives. A set holding every line through some point stops once it
    has read those lines.
    Plane b (the low plane of set j at b = 2j, its high plane at 2j + 1)
    is stacked at bit offset b*n of one integer, which is written out once
    as a bit string 2mn characters wide, the top planes zero-padded. Vertex
    v's column, every n-th character from n-1-v, reads plane b at bit b.
    Only the columns of the ids asked for are read, and here that is every
    id; ``is_resolving`` with known groups reads only their members'.
    An empty family gives every vertex 0. Lines are the points of the dual
    plane, so the line side reads each set's masks the other way round.
    The lists hold every point and every line in id order.
    """
    sets = [(s.line_mask, s.point_mask) for s in family]
    if (0, 0) in sets:
        raise ValueError("distance to an empty set is undefined")
    ids = range(plane.n)
    psig = _point_signatures(plane, sets, ids)
    lsig = _point_signatures(plane.dual(), [(pm, lm) for lm, pm in sets], ids)
    return psig, lsig


@dataclass
class Verdict:
    """Outcome of a resolving check; groups list vertices sharing a vector."""

    resolving: bool
    collision_groups: list[list[VertexId]]


def signature_groups(sigs: Sequence[int], ids: Iterable) -> list[list]:
    """Ids that share a signature, as groups of two or more in first-seen order.

    Signatures are counted first, so lists are built only for repeated ones.
    """
    counts = Counter(sigs)
    if len(counts) == len(sigs):
        return []
    groups: dict[int, list] = {sig: [] for sig, k in counts.items() if k > 1}
    for sig, v in zip(sigs, ids):
        if sig in groups:
            groups[sig].append(v)
    return list(groups.values())


def pair_count(sizes: Iterable[int]) -> int:
    """Number of unordered pairs within groups of the given sizes."""
    return sum(k * (k - 1) // 2 for k in sizes)


def is_resolving(
    plane: IncidencePlane,
    partition: Partition,
    known: tuple[int, Sequence[Sequence[int]]] | None = None,
) -> Verdict:
    """Decide whether all 2n representation vectors are pairwise distinct.

    ``known = (m, groups)`` lists the groups of vertex ids (points 0..n-1,
    then lines n..2n-1) whose members share their vectors to the first m
    classes, each group in ascending id order, as ``signature_groups``
    gives them for ``packed_signatures`` of those classes. Only the other
    classes are then signed, and only for the members of the groups:
    each group's points, then its lines as ids of the dual plane, have
    their tail vectors read, and the group is split by them. That is
    exact: a vertex's full vector is its head vector plus its tail vector
    shifted by 2m bits, so two vertices collide exactly when they share a
    head group and a tail. A vertex in no group already differs from
    every other, so its tail vector is never needed. The default is m = 0
    with one group of every vertex, which signs every class for every
    vertex. The groups are those of the full vectors, in the order the
    known groups give them.
    """
    partition.validate(plane)
    n = plane.n
    m, known_groups = known or (0, [range(2 * n)])
    sets = [(s.line_mask, s.point_mask) for s in partition.classes[m:]]
    cuts = [bisect_left(g, n) for g in known_groups]
    points = [v for g, c in zip(known_groups, cuts) for v in g[:c]]
    lines = [v - n for g, c in zip(known_groups, cuts) for v in g[c:]]
    psig = iter(_point_signatures(plane, sets, points))
    lsig = iter(_point_signatures(plane.dual(), [(pm, lm) for lm, pm in sets], lines))
    collisions = [
        [vertex_at(v, n) for v in group]
        for g, c in zip(known_groups, cuts)
        for group in signature_groups([*islice(psig, c), *islice(lsig, len(g) - c)], g)
    ]
    return Verdict(not collisions, collisions)


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
    """Parse a partition document and check it covers every vertex once.

    Member names are read with one lookup each in ``vertex_names(n)``, the
    table of the canonical names P0..P(n-1) and L0..L(n-1) that the plane
    loader reads too, which maps them to vertex ids; only the table of the
    last n is kept, so the verify of a loaded plane builds it once. A class
    holding any other name, such as "P03", a number or an index of n or
    more, is parsed member by member with ``VertexId.parse`` and range
    checked instead, so it gives the same classes and messages.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise ValueError("partition document must be an object with a 'classes' array")
    if "q" in doc and doc["q"] != plane.q:
        raise ValueError(f"partition order {doc['q']!r} does not match plane order {plane.q}")
    n = plane.n
    full = (1 << n) - 1
    index = vertex_names(n).ids
    classes = []
    names = []
    for pos, entry in enumerate(doc["classes"]):
        if not isinstance(entry, dict) or "members" not in entry:
            raise ValueError(f"class entry {pos} must have 'members'")
        names.append(str(entry.get("name", f"C{pos}")))
        if not isinstance(entry["members"], list):
            raise ValueError(f"members of class {names[-1]!r} must be an array")
        try:
            ids = list(map(index.__getitem__, entry["members"]))
        except (KeyError, TypeError):
            members = [VertexId.parse(str(m)) for m in entry["members"]]
            for v in members:
                if v.index >= n:
                    raise ValueError(f"vertex {v} out of range for plane with n={n}")
            ids = [i if kind == POINT else n + i for kind, i in members]
        mask = bitmask(ids)
        if mask.bit_count() != len(ids):
            twice = next(v for v, c in Counter(ids).items() if c > 1)
            raise ValueError(
                f"class {names[-1]!r} lists vertex {vertex_at(twice, n)} more than once"
            )
        classes.append(VertexSet(mask & full, mask >> n))
    partition = Partition(classes, names)
    partition.validate(plane)
    return partition
