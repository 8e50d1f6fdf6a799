"""Randomized construction of resolving partitions for plane incidence graphs.

The partition is assembled from four kinds of classes. H0 holds the major
points of a fixed support frame. A batch of k random zeta sets separates
almost all pairs of common vertices. A conflict graph collects the pairs
that survive, and l further classes built from searching-set codes finish
the separation. Everything left over lands in the final remainder class.

Every returned partition is verified. The conflict graph is read off the
groups of all 2n vertices that share their vectors to H0 and the zeta
sets, and verification splits only those groups by the vectors to the
later classes. No other pair can collide, since it already differs in a
coordinate of H0 or a zeta set, so the split finds exactly the collisions
that a check of every class finds.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from .metric import (
    Partition,
    VertexSet,
    is_resolving,
    packed_signatures,
    pair_count,
    partition_to_doc,
    signature_groups,
)
from .plane import IncidencePlane, bitmask

log = logging.getLogger("planepart.construct")


class SelectionError(Exception):
    """A greedy selection step ran out of admissible vertices.

    The message names the violated requirement; the attempt that meets it
    ends with the message as its obstruction, and the next one draws afresh.
    """


class ConstructionError(Exception):
    """All construction attempts failed."""

    def __init__(self, q: int, seed: int, attempts: int, obstruction: str):
        self.q = q
        self.seed = seed
        self.attempts = attempts
        self.obstruction = obstruction
        super().__init__(
            f"construction failed for q={q} after {attempts} attempts "
            f"(seed {seed}); last obstruction: {obstruction}"
        )

    def report(self) -> dict:
        return {
            "q": self.q,
            "seed": self.seed,
            "attempts": self.attempts,
            "obstruction": self.obstruction,
        }


def default_zeta_count(q: int) -> int:
    """Default number of zeta-set classes, ceil(3*log2(q)) + 3, exactly."""
    return (q * q * q - 1).bit_length() + 3


def zeta_count(q: int, k: int | None) -> int:
    """k, or the default for None; raises ValueError unless 1 <= k <= q."""
    if k is None:
        k = default_zeta_count(q)
        if k > q:
            raise ValueError(
                f"q={q} is too small for the default of {k} zeta sets; pass k <= q explicitly"
            )
    if k < 1:
        raise ValueError(f"zeta set count must be positive, got {k}")
    if k > q:
        raise ValueError(f"order too small for construction: k={k} zeta sets need k <= q={q}")
    return k


def default_searching_count(q: int) -> int:
    """Number of searching classes, ceil(log2(q)), exactly; no other count works.

    Fewer sets cannot give the q major points distinct codewords. With
    more, set ceil(log2 q) of every family is empty, and so is its class:
    the q major ranks need only ceil(log2 q) bits, and under the q/8
    budget the ranks on each conflict side stay below q.
    """
    return (q - 1).bit_length()


def min_free_lines(q: int) -> float:
    """Lower bound 3q/8 - log2(q) - 2 on free lines through a target point.

    Nonpositive values mean the greedy phase has no guarantee at this order
    and may exhaust its retries.
    """
    return 3.0 * q / 8.0 - math.log2(q) - 2.0


def expected_unseparated_bound(q: int, k: int) -> float:
    """Bound 2*C(q^2, 2)/2^k on the expected number of unseparated pairs."""
    qq = q * q
    return qq * (qq - 1) / float(1 << k)


@dataclass(frozen=True)
class Frame:
    """Support and major vertices of a plane, as (points, lines) pairs.

    Index 0 of each pair holds points and index 1 lines, the order of
    ``packed_signatures``' (psig, lsig). The support point lies on the
    support line. Major points are the other points of the support line
    and major lines the other lines through the support point; every
    remaining vertex is common.
    """

    supports: tuple[int, int]
    majors: tuple[tuple[int, ...], tuple[int, ...]]


def choose_frame(plane: IncidencePlane) -> Frame:
    """Label the plane relative to an incident support point and line.

    The support is the lowest point id with its lowest incident line. The
    major points are read off the support line's row and the major lines
    off the support point's column, each in row order.
    """
    p0, l0 = 0, plane.point_lines[0][0]
    majors = (
        tuple(p for p in plane.line_points[l0] if p != p0),
        tuple(li for li in plane.point_lines[p0] if li != l0),
    )
    return Frame((p0, l0), majors)


def sample_zeta_sets(
    plane: IncidencePlane, frame: Frame, k: int, rng: random.Random
) -> list[VertexSet]:
    """Draw k zeta sets on distinct major base points and base lines.

    Bases are sampled without replacement and paired by sampling order.
    Each set is a mixed class of size q: its points are a uniform
    floor(q/2) subset of its base line with the support point removed, and
    its lines join its base point to the other points of the base line.
    The returned sets are pairwise disjoint and avoid the major points. k
    is not checked here; ``zeta_count`` checks it.
    """
    q = plane.q
    base_points = rng.sample(frame.majors[0], k)
    base_lines = rng.sample(frame.majors[1], k)
    p0 = frame.supports[0]
    out = []
    for bp, bl in zip(base_points, base_lines):
        on_line = [p for p in plane.line_points[bl] if p != p0]
        half = rng.sample(on_line, q // 2)
        bp_mask = plane.point_masks[bp]
        joined = [
            (bp_mask & plane.point_masks[r]).bit_length() - 1
            for r in set(on_line).difference(half)
        ]
        out.append(VertexSet.from_indices(half, joined))
    return out


@dataclass(frozen=True)
class ConflictGraph:
    """Same-representation pairs among common and support vertices.

    The graph is a disjoint union of cliques, each entirely points or
    entirely lines: ``members``, the vertices of the cliques, is a
    (points, lines) pair. ``x_edge_count`` counts only pairs of common
    vertices; the support point or line joins a clique when it collides
    with a common vertex. ``groups`` holds every group of vertex
    ids (points 0..n-1, lines n..2n-1) that share their representation,
    majors included and sides mixed, as ``signature_groups`` gives them.
    """

    members: tuple[tuple[int, ...], tuple[int, ...]]
    x_edge_count: int
    groups: tuple[tuple[int, ...], ...]


def build_conflict_graph(
    plane: IncidencePlane, frame: Frame, family: list[VertexSet]
) -> ConflictGraph:
    """Group common and support vertices by representation under a disjoint family.

    One ``signature_groups`` call groups all 2n vertices. A side's cliques
    are those groups restricted to the side's vertices other than its
    majors, that is to its commons and support, keeping the restrictions of
    two or more: two vertices of a side share a representation exactly when
    they lie in one group, so these are the groups of the side's domain.
    """
    n = plane.n
    psig, lsig = packed_signatures(plane, family)
    groups = signature_groups(psig + lsig, range(2 * n))
    members, x_edges = [], 0
    for side, (majors, support) in enumerate(zip(frame.majors, frame.supports)):
        lo, skip = side * n, set(majors)
        kept = (tuple(v - lo for v in g if lo <= v < lo + n and v - lo not in skip) for g in groups)
        cliques = [c for c in kept if len(c) > 1]
        members.append(tuple(sorted(v for c in cliques for v in c)))
        x_edges += pair_count(len(c) - (support in c) for c in cliques)
    return ConflictGraph(tuple(members), x_edges, tuple(map(tuple, groups)))


def searching_family(domain, count: int, excluded=()) -> list[list]:
    """Subsets of a domain whose membership vectors distinguish all elements.

    The elements that are not excluded get ranks in domain order, from 1
    when something is excluded and from 0 otherwise, and subset j collects
    the elements whose rank has bit j set. So excluded elements alone have
    the all-zero codeword. Raises ValueError when count is too small for
    distinct codewords.
    """
    excluded = set(excluded)
    free = [x for x in domain if x not in excluded]
    start = 1 if excluded else 0
    needed = max(len(free) - 1 + start, 0).bit_length()
    if count < needed:
        raise ValueError(
            f"{count} searching sets cannot distinguish {len(free)} elements"
            f"{' plus exclusions' if excluded else ''}; need {needed}"
        )
    return [[x for r, x in enumerate(free, start) if r >> j & 1] for j in range(count)]


# Messages of a stalled selector, (conflict step, target step), indexed by
# its side: 0 chooses lines through points, 1 points on lines.
_STUCK = (
    (
        "no free line through conflict point P{}: every candidate is used, "
        "forbidden, or meets the support line outside the uncovered targets",
        "no free line through target point P{}: every candidate is used, "
        "forbidden, or meets an excluded conflict point",
    ),
    (
        "no free point on conflict line L{}: every candidate is used, "
        "forbidden, or joins the support point outside the uncovered targets",
        "no free point on target line L{}: every candidate is used, "
        "forbidden, or lies on an excluded conflict line",
    ),
)


def select_class_lines(
    plane: IncidencePlane,
    side: int,
    support: int,
    targets,
    conflict_points,
    forbidden_points,
    forbidden_lines,
    used: VertexSet,
) -> list[int]:
    """Greedy choice of common lines for one searching class.

    ``support`` is the support line. Targets must be points of it other
    than the support point; this is not checked. Each target ends up on
    exactly one chosen line and no other point of the support line does.
    Each conflict point gets exactly one chosen line; forbidden points are
    never met, forbidden lines and lines already assigned are never picked.

    One greedy step serves a vertex u, a conflict point or a target: it
    takes the lowest line through u that is not the support, is neither
    forbidden nor assigned, meets the support line, by the incidence masks,
    in a still uncovered target, and avoids the forbidden points and every
    conflict point but u. It runs for the conflict points, then for the
    targets still uncovered, each in ascending order. For a target the meet
    test only drops the support, since every other line through it meets
    the support there. Raises SelectionError when a step has no admissible
    line.

    ``side`` is 0 when lines are chosen, on ``plane`` with the support
    line, and 1 when points are chosen: on ``plane.dual()`` with the
    support point and ``used.dual()``, where the masks give the join of two
    points. It picks the error text, which names the kinds chosen.
    """
    stuck_conflict, stuck_target = _STUCK[side]
    q_mask = bitmask(conflict_points)
    forbidden = bitmask(forbidden_points)
    blocked = bitmask(forbidden_lines) | used.line_mask
    lmasks = plane.line_masks
    support_mask = lmasks[support]
    uncovered = set(targets)
    chosen = []

    def take(u, stuck):
        nonlocal blocked
        avoid = forbidden | q_mask & ~(1 << u)
        for ln in plane.point_lines[u]:
            pm = lmasks[ln]
            t = (pm & support_mask).bit_length() - 1
            if t in uncovered and ln != support and not (blocked >> ln & 1 or pm & avoid):
                uncovered.remove(t)
                blocked |= 1 << ln
                chosen.append(ln)
                return
        raise SelectionError(stuck.format(u))

    for u in sorted(conflict_points):
        take(u, stuck_conflict)
    for t in sorted(uncovered):
        take(t, stuck_target)
    return sorted(chosen)


def build_h2(
    plane: IncidencePlane,
    frame: Frame,
    conflict: ConflictGraph,
    used: VertexSet,
) -> tuple[list[VertexSet], VertexSet]:
    """Build the ``default_searching_count(q)`` separating classes.

    Each side has two searching-set families: its targets, over its major
    vertices, and its conflicts, over its side of the conflict graph, the
    support vertex excluded. Class j combines the j-th set of each family.
    Its lines come from select_class_lines on the plane and the support
    line, and its points from the same selector on the dual plane, the
    support point and the dual of ``used``. Both stay disjoint from
    everything already assigned. Returns the classes and ``used`` grown by
    every chosen line and point; a conflict side too large for the count
    raises SelectionError.
    """
    count = default_searching_count(plane.q)
    views = (plane, plane.dual())
    try:
        target_families = [searching_family(majors, count) for majors in frame.majors]
        conflict_families = [
            searching_family(c, count, {v}.intersection(c))
            for c, v in zip(conflict.members, frame.supports)
        ]
    except ValueError as exc:
        raise SelectionError(f"searching families infeasible: {exc}") from exc
    conflict_sets = [set(c) for c in conflict.members]
    classes = []
    for j in range(count):
        targets = [f[j] for f in target_families]
        in_class = [f[j] for f in conflict_families]
        forbidden = [c.difference(q) for c, q in zip(conflict_sets, in_class)]
        chosen = [(), ()]
        # view 0 chooses lines and view 1 points, so view s's picks are the
        # other side's; ``used`` is flipped to the next view after each, so
        # it ends in the plane's view
        for side in (0, 1):
            picks = select_class_lines(
                views[side], side, frame.supports[1 - side], targets[side],
                in_class[side], forbidden[side], forbidden[1 - side], used,
            )
            chosen[1 - side] = picks
            used = (used | VertexSet.from_indices(lines=picks)).dual()
        classes.append(VertexSet.from_indices(*chosen))
    return classes, used


@dataclass
class ConstructionResult:
    """Verified resolving partition with the parameters that produced it.

    The partition's class names give each class its role: H0, the zeta
    sets Z1..Zk, the searching classes S1..Sl and the remainder Hrest.
    """

    partition: Partition
    q: int
    k: int
    l: int
    seed: int
    retries: int

    @property
    def class_count(self) -> int:
        return self.partition.m


def draw_conflict(
    plane: IncidencePlane, frame: Frame, k: int, rng: random.Random
) -> tuple[list[VertexSet], ConflictGraph]:
    """First stage of a construction attempt, the one ``estimate`` samples.

    Draws k zeta sets and returns the family H0, Z1..Zk, whose entries
    after the first are the zeta sets, and the conflict graph of the pairs
    that family leaves unseparated.
    """
    family = [VertexSet.from_indices(points=frame.majors[0])]
    family += sample_zeta_sets(plane, frame, k, rng)
    return family, build_conflict_graph(plane, frame, family)


def _attempt(plane: IncidencePlane, frame: Frame, k: int, rng: random.Random) -> Partition | str:
    """One attempt: its verified partition, or its obstruction.

    The partition's first 1 + k classes are the family of the conflict
    graph, so ``is_resolving`` gets the graph's groups as known for them
    and signs only the searching classes and the remainder. Its verdict is
    that of a check of every class, groups and count alike.
    """
    q = plane.q
    family, conflict = draw_conflict(plane, frame, k, rng)
    if conflict.x_edge_count * 8 > q:
        return (
            f"unseparated pair budget exceeded: {conflict.x_edge_count} pairs "
            f"among common vertices, allowed q/8 = {q / 8:g}"
        )
    used = family[0]
    for z in family[1:]:
        used = used | z
    try:
        searching, used = build_h2(plane, frame, conflict, used)
    except SelectionError as exc:
        return str(exc)
    full = (1 << plane.n) - 1
    classes = family + searching
    classes.append(VertexSet(full & ~used.point_mask, full & ~used.line_mask))
    names = ["H0"] + [f"Z{i}" for i in range(1, k + 1)]
    names += [f"S{i}" for i in range(1, len(searching) + 1)] + ["Hrest"]
    partition = Partition(classes, names)
    verdict = is_resolving(plane, partition, (len(family), conflict.groups))
    if not verdict.resolving:
        return f"verification failed: {len(verdict.collision_groups)} colliding groups"
    return partition


def construct_partition(
    plane: IncidencePlane,
    seed: int = 0,
    max_retries: int = 20,
    k: int | None = None,
) -> ConstructionResult:
    """Run the full construction with seeded retries until a partition verifies.

    Attempt i draws fresh zeta sets from ``random.Random(seed + i)``; an
    attempt aborts early when the surviving unseparated pairs exceed the
    q/8 budget, when a greedy selection exhausts, or when the assembled
    partition fails verification. Raises ConstructionError once retries
    run out, naming the last obstruction. The searching class count is
    always ``default_searching_count(q)``.
    """
    if max_retries < 0:
        raise ValueError(f"retry count must be nonnegative, got {max_retries}")
    q = plane.q
    k = zeta_count(q, k)
    slack = min_free_lines(q)
    if slack <= 0:
        log.warning(
            "q=%d leaves no guaranteed free lines (3q/8 - log2 q - 2 = %.2f); "
            "the greedy phase may exhaust its retries",
            q,
            slack,
        )
    frame = choose_frame(plane)
    for attempt in range(max_retries + 1):
        outcome = _attempt(plane, frame, k, random.Random(seed + attempt))
        if not isinstance(outcome, str):
            break
        log.info("attempt %d for q=%d: %s", attempt, q, outcome)
    else:
        raise ConstructionError(q, seed, max_retries + 1, outcome)
    if attempt:
        log.info("construction for q=%d succeeded after %d retries", q, attempt)
    return ConstructionResult(
        outcome, q=q, k=k, l=default_searching_count(q), seed=seed, retries=attempt
    )


def result_to_doc(result: ConstructionResult, plane: IncidencePlane) -> dict:
    """Partition document with the construction metadata block."""
    doc = partition_to_doc(plane, result.partition)
    doc["metadata"] = {
        "q": result.q,
        "k": result.k,
        "l": result.l,
        "seed": result.seed,
        "retries": result.retries,
    }
    return doc
