"""Reference forms that the tests check the package against.

The package computes distances in batch (``packed_signatures``) and
incrementally: ``analysis._Descent`` starts from ``packed_signatures`` and
updates by class counts, and the exact search's ``_scan_completions``
updates packed codes under undo. The helpers here state the same things
plainly, vertex by vertex or pair by pair, and are imported by the tests
only.

- ``bfs_distance`` is the independent oracle: shortest paths found by
  breadth-first search, with no use of the closed form.
  ``all_pairs_distances`` tabulates it over every vertex pair.
- ``distance_columns`` is the closed-form distance rule, one set and one
  vertex at a time, with ``distance_to_set`` as its single-vertex case.
  It is checked against ``bfs_distance`` minima (test_metric) and against
  the all-pairs BFS table (acceptance criterion 1). ``packed_signatures``
  is checked against it, a fresh ``_Descent`` against it too, the
  ``_Descent`` after each move against recounts made with
  ``packed_signatures``, and ``_scan_completions`` against
  ``is_resolving``.
- ``unseparated_pairs`` lists the pairs a disjoint family leaves
  together; ``is_resolving``'s collision groups are checked against it,
  and ``check_disjoint`` guards it.
- ``separation_probability_bound`` is the paper's case split for a pair
  that k zeta sets miss, checked against its power bound 2**-k.
- ``incident`` reads one incidence bit; test_plane checks it against dot
  products of the ``pg2_triples`` coordinates computed without the
  field's tables.
- ``meet`` is the one point common to two lines, found by intersecting
  their ``line_points`` rows as sets, with no use of the masks. On
  ``plane.dual()`` it is the line joining two points. The construction's
  selector, which reads meets off the masks, is checked against it.
- ``commons`` lists a frame's common vertices, the points off its support
  line and the lines missing its support point, by ``incident`` one bit
  at a time. The construction keeps no such list; the tests build domains
  and cases from it.
- ``vertex_set_from_vertices``, ``vertices_of``, ``zeta_size`` and
  ``conflict_vertex_count`` convert or count, for the assertions.

Pairs follow the package's (points, lines) order: index 0 is the plane's
points and index 1 its lines, as in ``distance_columns``' two columns,
``packed_signatures``' (psig, lsig), ``commons`` and the construction's
``Frame`` and ``ConflictGraph`` fields.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from typing import Iterable, Sequence

from planepart.construct import ConflictGraph, Frame
from planepart.metric import (
    LINE,
    POINT,
    VertexId,
    VertexSet,
    _iter_bits,
    packed_signatures,
    signature_groups,
    vertex_at,
)
from planepart.plane import IncidencePlane


def incident(plane: IncidencePlane, point: int, line: int) -> bool:
    return bool(plane.line_masks[line] >> point & 1)


def meet(plane: IncidencePlane, a: int, b: int) -> int:
    """The point common to distinct lines a and b, from their point rows."""
    (point,) = set(plane.line_points[a]) & set(plane.line_points[b])
    return point


def commons(plane: IncidencePlane, frame: Frame) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Points off the support line and lines missing the support point, in id order."""
    p0, l0 = frame.supports
    points = tuple(p for p in range(plane.n) if not incident(plane, p, l0))
    lines = tuple(li for li in range(plane.n) if not incident(plane, p0, li))
    return points, lines


def pg2_triples(q: int) -> list[tuple[int, int, int]]:
    """Homogeneous triples of PG(2,q) whose first nonzero coordinate is 1, in
    ascending lexicographic order: triple i is point i and line i of
    ``build_plane(q)``, as ``build_pg2`` assigns the ids."""
    return sorted(t for t in product(range(q), repeat=3) if next(filter(None, t), 0) == 1)


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


def all_pairs_distances(plane: IncidencePlane) -> list[list[int]]:
    """Dense BFS distance matrix; vertex v < n is point v, otherwise line v - n."""
    n = plane.n
    size = 2 * n
    dist = [[0] * size for _ in range(size)]
    for i in range(size):
        u = vertex_at(i, n)
        row = dist[i]
        for j in range(size):
            if j != i:
                row[j] = bfs_distance(plane, u, vertex_at(j, n))
    return dist


def vertex_set_from_vertices(vertices: Iterable[VertexId]) -> VertexSet:
    ids: tuple[list[int], list[int]] = ([], [])
    for kind, i in vertices:
        ids[kind != POINT].append(i)
    return VertexSet.from_indices(*ids)


def vertices_of(s: VertexSet) -> list[VertexId]:
    out = [VertexId(POINT, i) for i in _iter_bits(s.point_mask)]
    out.extend(VertexId(LINE, i) for i in _iter_bits(s.line_mask))
    return out


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


def distance_to_set(plane: IncidencePlane, v: VertexId, s: VertexSet) -> int:
    """Distance from a vertex to a nonempty vertex set; see distance_columns."""
    kind, i = v
    pcol, lcol = distance_columns(plane, s, *(([i], []) if kind == POINT else ([], [i])))
    return (pcol or lcol)[0]


def check_disjoint(family: Sequence[VertexSet]) -> None:
    """Raise ValueError naming the first two sets of a family that share a vertex."""
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            a, b = family[i], family[j]
            if a.point_mask & b.point_mask or a.line_mask & b.line_mask:
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


def separation_probability_bound(q: int, k: int) -> tuple[float, float]:
    """Probability that k random zeta sets miss a fixed common pair.

    Returns (lhs, rhs) where lhs is the exact case-split expression and rhs
    is the power bound (1/2)**k that dominates it.
    """
    if not 1 <= k <= q:
        raise ValueError(f"need 1 <= k <= q, got k={k}, q={q}")
    ratio = (q - 2) / (2 * q - 2)
    lhs = ((q - k + 1) / (q + 1)) * ratio**k + (k / (q + 1)) * ((q - 1) / q) * ratio ** (
        k - 1
    )
    return lhs, 0.5**k


def zeta_size(z: VertexSet) -> int:
    return bin(z.point_mask).count("1") + bin(z.line_mask).count("1")


def conflict_vertex_count(graph: ConflictGraph) -> int:
    return sum(map(len, graph.members))
