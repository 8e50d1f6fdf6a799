"""Randomized construction of resolving partitions for plane incidence graphs.

The partition is assembled from four kinds of classes. H0 holds the major
points of a fixed support frame. A batch of k random zeta sets separates
almost all pairs of common vertices. A conflict graph collects the pairs
that survive, and l further classes built from searching-set codes finish
the separation. Everything left over lands in the final remainder class.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field

from .metric import (
    Partition,
    VertexSet,
    _iter_bits,
    check_disjoint,
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

    The message names the violated requirement; the construction driver
    treats this as a signal to restart the attempt with fresh randomness.
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


def expected_unseparated_bound(q: int, k: int) -> float:
    """Bound 2*C(q^2, 2)/2^k on the expected number of unseparated pairs."""
    qq = q * q
    return qq * (qq - 1) / float(1 << k)


@dataclass(frozen=True)
class Frame:
    """Support pair, major vertices and common vertices of a plane.

    ``line_meet[l]`` is the point where line l crosses the support line
    (the support line maps to the support point); ``point_join[p]`` is the
    line through point p and the support point (the support point maps to
    the support line).
    """

    support_point: int
    support_line: int
    major_points: tuple[int, ...]
    major_lines: tuple[int, ...]
    common_points: tuple[int, ...]
    common_lines: tuple[int, ...]
    line_meet: tuple[int, ...] = field(repr=False)
    point_join: tuple[int, ...] = field(repr=False)

    def dual(self) -> "Frame":
        """The same frame read in the dual plane, points and lines exchanged."""
        return Frame(
            self.support_line,
            self.support_point,
            self.major_lines,
            self.major_points,
            self.common_lines,
            self.common_points,
            self.point_join,
            self.line_meet,
        )


def _frame_side(plane: IncidencePlane, p0: int, l0: int):
    """Major points, common points and each line's meet with l0, for support (p0, l0).

    Run on the dual plane with (l0, p0) it gives the major lines, the common
    lines and each point's join with p0.
    """
    n = plane.n
    majors = tuple(p for p in plane.line_points[l0] if p != p0)
    commons = tuple(_iter_bits(((1 << n) - 1) & ~plane.line_masks[l0]))
    meet = [p0] * n
    for p in plane.line_points[l0]:
        for li in plane.point_lines[p]:
            meet[li] = p
    meet[l0] = p0
    return majors, commons, tuple(meet)


def choose_frame(plane: IncidencePlane, support: tuple[int, int] | None = None) -> Frame:
    """Label the plane relative to an incident support point and line.

    The default support is the lowest point id with its lowest incident
    line. An explicit override pair must be incident.
    """
    if support is None:
        p0 = 0
        l0 = plane.point_lines[0][0]
    else:
        p0, l0 = support
        if not plane.incident(p0, l0):
            raise ValueError(f"support override P{p0}, L{l0} is not an incident pair")
    major_points, common_points, line_meet = _frame_side(plane, p0, l0)
    major_lines, common_lines, point_join = _frame_side(plane.dual(), l0, p0)
    return Frame(
        p0, l0, major_points, major_lines, common_points, common_lines, line_meet, point_join
    )


@dataclass(frozen=True)
class ZetaSet:
    """Mixed class of size q on a major base point and major base line.

    The point half is a floor(q/2) subset of the base line with the support
    point removed; the line half joins the base point to the complementary
    points of the base line.
    """

    base_point: int
    base_line: int
    point_half: tuple[int, ...]
    line_half: tuple[int, ...]

    def members(self) -> VertexSet:
        return VertexSet.from_indices(self.point_half, self.line_half)

    def size(self) -> int:
        return len(self.point_half) + len(self.line_half)


def sample_zeta_sets(
    plane: IncidencePlane, frame: Frame, k: int, rng: random.Random
) -> list[ZetaSet]:
    """Draw k zeta sets on distinct base points and distinct base lines.

    Bases are sampled without replacement and paired by sampling order;
    each point half is a uniform floor(q/2) subset of its base line. The
    returned sets are pairwise disjoint and avoid the major points.
    """
    q = plane.q
    if k > q:
        raise ValueError(f"order too small for construction: k={k} zeta sets need k <= q={q}")
    if k < 1:
        raise ValueError(f"zeta set count must be positive, got {k}")
    base_points = rng.sample(frame.major_points, k)
    base_lines = rng.sample(frame.major_lines, k)
    p0 = frame.support_point
    out = []
    for bp, bl in zip(base_points, base_lines):
        on_line = [p for p in plane.line_points[bl] if p != p0]
        half = sorted(rng.sample(on_line, q // 2))
        half_set = set(half)
        joined = []
        bp_mask = plane.point_masks[bp]
        for r in on_line:
            if r not in half_set:
                meet = bp_mask & plane.point_masks[r]
                joined.append(meet.bit_length() - 1)
        out.append(ZetaSet(bp, bl, tuple(half), tuple(sorted(joined))))
    return out


@dataclass(frozen=True)
class ConflictGraph:
    """Same-representation pairs among common and support vertices.

    The graph is a disjoint union of cliques, each entirely points or
    entirely lines. ``x_edge_count`` counts only pairs of common vertices;
    the support point or line joins a clique when it collides with a
    common vertex.
    """

    point_cliques: tuple[tuple[int, ...], ...]
    line_cliques: tuple[tuple[int, ...], ...]
    points: tuple[int, ...]
    lines: tuple[int, ...]
    x_edge_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.points) + len(self.lines)


def _collision_cliques(domain, sigs, special):
    cliques = tuple(sorted(tuple(sorted(g)) for g in signature_groups(sigs, domain)))
    return cliques, pair_count(len(c) - (special in c) for c in cliques)


def build_conflict_graph(
    plane: IncidencePlane, frame: Frame, family: list[VertexSet]
) -> ConflictGraph:
    """Group common and support vertices by representation under a family."""
    check_disjoint(family)
    pdomain = list(frame.common_points) + [frame.support_point]
    ldomain = list(frame.common_lines) + [frame.support_line]
    psig, lsig = packed_signatures(plane, family, pdomain, ldomain)
    point_cliques, xp = _collision_cliques(pdomain, psig, frame.support_point)
    line_cliques, xl = _collision_cliques(ldomain, lsig, frame.support_line)
    points = tuple(sorted(v for c in point_cliques for v in c))
    lines = tuple(sorted(v for c in line_cliques for v in c))
    return ConflictGraph(point_cliques, line_cliques, points, lines, xp + xl)


def searching_family(domain, count: int, excluded=()) -> list[list]:
    """Subsets of a domain whose membership vectors distinguish all elements.

    Element ranks are assigned in domain order and subset j collects the
    elements whose rank has bit j set. Excluded elements are pinned to rank
    zero, the all-zero codeword; when nothing is excluded rank zero is used
    by the first element instead. Raises ValueError when count is too small
    for distinct codewords.
    """
    domain = list(domain)
    excluded = set(excluded)
    if not excluded.issubset(domain):
        raise ValueError("excluded elements must belong to the domain")
    free = len(domain) - len(excluded)
    max_rank = free - 1 if not excluded else free
    needed = max(max_rank, 0).bit_length()
    if count < needed:
        raise ValueError(
            f"{count} searching sets cannot distinguish {free} elements"
            f"{' plus exclusions' if excluded else ''}; need {needed}"
        )
    sets: list[list] = [[] for _ in range(count)]
    rank = 0 if not excluded else 1
    for x in domain:
        if x in excluded:
            continue
        for j in range(count):
            if rank >> j & 1:
                sets[j].append(x)
        rank += 1
    return sets


# Messages of a stalled selector, (conflict step, target step), indexed by
# whether it runs on the dual plane and so chooses points on lines.
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
    frame: Frame,
    targets,
    conflict_points,
    forbidden_points,
    forbidden_lines,
    used: VertexSet,
) -> list[int]:
    """Greedy choice of common lines for one searching class.

    Targets must be major points of ``frame``; this is not checked. Each
    target ends up on exactly one chosen line and no other point of the
    support line does. Each conflict point gets exactly one chosen line;
    forbidden points are never met, forbidden lines and lines already
    assigned are never picked. Conflict points go first, each taking a
    line whose support-line meet is a still uncovered target and which
    avoids the other conflict points; remaining targets then receive lines
    clear of every conflict point. Ties break to the lowest line id.
    Raises SelectionError when a step has no admissible line.

    Run on ``plane.dual()`` with ``frame.dual()`` and ``used.dual()``, the
    same code chooses common points covering major lines, and its errors
    name points on lines.
    """
    tset = set(targets)
    q_mask = bitmask(conflict_points)
    qc_mask = bitmask(forbidden_points)
    blocked = bitmask(forbidden_lines) | used.line_mask
    stuck_conflict, stuck_target = _STUCK[plane.dualized]
    meet = frame.line_meet
    lmasks = plane.line_masks
    covered: set[int] = set()
    chosen = []
    for u in sorted(conflict_points):
        others = q_mask & ~(1 << u)
        pick = -1
        for ln in plane.point_lines[u]:
            t = meet[ln]
            if t not in tset or t in covered:
                continue
            if blocked >> ln & 1:
                continue
            pm = lmasks[ln]
            if pm & qc_mask or pm & others:
                continue
            pick = ln
            break
        if pick < 0:
            raise SelectionError(stuck_conflict.format(u))
        chosen.append(pick)
        covered.add(meet[pick])
        blocked |= 1 << pick
    avoid = q_mask | qc_mask
    l0 = frame.support_line
    for t in sorted(tset - covered):
        pick = -1
        for ln in plane.point_lines[t]:
            if ln == l0 or blocked >> ln & 1:
                continue
            if lmasks[ln] & avoid:
                continue
            pick = ln
            break
        if pick < 0:
            raise SelectionError(stuck_target.format(t))
        chosen.append(pick)
        blocked |= 1 << pick
    return sorted(chosen)


@dataclass(frozen=True)
class H2Spec:
    """Searching sets and chosen vertices of one separating class."""

    targets_points: tuple[int, ...]
    targets_lines: tuple[int, ...]
    conflict_points: tuple[int, ...]
    conflict_lines: tuple[int, ...]
    lines: tuple[int, ...]
    points: tuple[int, ...]

    def members(self) -> VertexSet:
        return VertexSet.from_indices(self.points, self.lines)


def build_h2(
    plane: IncidencePlane,
    frame: Frame,
    conflict: ConflictGraph,
    used: VertexSet,
) -> tuple[list[H2Spec], VertexSet]:
    """Build the ``default_searching_count(q)`` separating classes.

    Four searching-set families run over the major points, the major
    lines, and the two sides of the conflict graph, support excluded.
    Class j combines the j-th set of each family; its lines come from
    select_class_lines and its points from the same selector run on the
    dual, and both stay disjoint from everything already assigned. Returns
    the specs and ``used`` grown by every chosen line and point; a conflict
    side too large for the count raises SelectionError.
    """
    count = default_searching_count(plane.q)
    excluded_p = [frame.support_point] if frame.support_point in conflict.points else []
    excluded_l = [frame.support_line] if frame.support_line in conflict.lines else []
    try:
        t_family = searching_family(frame.major_points, count)
        tstar_family = searching_family(frame.major_lines, count)
        q_family = searching_family(conflict.points, count, excluded_p)
        r_family = searching_family(conflict.lines, count, excluded_l)
    except ValueError as exc:
        raise SelectionError(f"searching families infeasible: {exc}") from exc
    cpoints = set(conflict.points)
    clines = set(conflict.lines)
    dual, dual_frame = plane.dual(), frame.dual()
    specs = []
    for j in range(count):
        t_j = t_family[j]
        q_j = q_family[j]
        r_j = r_family[j]
        qc_j = sorted(cpoints.difference(q_j))
        rc_j = sorted(clines.difference(r_j))
        lines = select_class_lines(plane, frame, t_j, q_j, qc_j, rc_j, used)
        used = used | VertexSet.from_indices(lines=lines)
        tstar_j = tstar_family[j]
        points = select_class_lines(dual, dual_frame, tstar_j, r_j, rc_j, qc_j, used.dual())
        used = used | VertexSet.from_indices(points=points)
        specs.append(
            H2Spec(
                targets_points=tuple(t_j),
                targets_lines=tuple(tstar_j),
                conflict_points=tuple(q_j),
                conflict_lines=tuple(r_j),
                lines=tuple(lines),
                points=tuple(points),
            )
        )
    return specs, used


@dataclass
class ConstructionResult:
    """Verified resolving partition with the data that produced it."""

    partition: Partition
    frame: Frame
    zeta_sets: list[ZetaSet]
    h2: list[H2Spec]
    q: int
    k: int
    l: int
    seed: int
    retries: int

    @property
    def class_count(self) -> int:
        return self.partition.m

    def roles(self) -> dict[str, str]:
        names = self.partition.class_names()
        out = {names[0]: "major-points"}
        for name in names[1 : 1 + self.k]:
            out[name] = "zeta"
        for name in names[1 + self.k : 1 + self.k + self.l]:
            out[name] = "searching"
        out[names[-1]] = "remainder"
        return out


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
    defaults = k is None
    if k is None:
        k = default_zeta_count(q)
    l = default_searching_count(q)
    if k < 1:
        raise ValueError(f"zeta set count must be positive, got {k}")
    if k > q:
        if defaults:
            raise ValueError(
                f"q={q} is too small for the default of {k} zeta sets; pass k <= q explicitly"
            )
        raise ValueError(f"order too small for construction: k={k} zeta sets need k <= q={q}")
    if min_free_lines(q) <= 0:
        log.warning(
            "q=%d leaves no guaranteed free lines (3q/8 - log2 q - 2 = %.2f); "
            "the greedy phase may exhaust its retries",
            q,
            min_free_lines(q),
        )
    frame = choose_frame(plane)
    h0 = VertexSet.from_indices(points=frame.major_points)
    names = ["H0"]
    names += [f"Z{i}" for i in range(1, k + 1)]
    names += [f"S{i}" for i in range(1, l + 1)]
    names.append("Hrest")
    full = (1 << plane.n) - 1
    obstruction = "no attempt ran"
    for attempt in range(max_retries + 1):
        rng = random.Random(seed + attempt)
        try:
            zetas = sample_zeta_sets(plane, frame, k, rng)
            zclasses = [z.members() for z in zetas]
            family = [h0] + zclasses
            conflict = build_conflict_graph(plane, frame, family)
            if conflict.x_edge_count * 8 > q:
                raise SelectionError(
                    f"unseparated pair budget exceeded: {conflict.x_edge_count} pairs "
                    f"among common vertices, allowed q/8 = {q / 8:g}"
                )
            used = h0
            for z in zclasses:
                used = used | z
            specs, used = build_h2(plane, frame, conflict, used)
            classes = [h0] + zclasses + [s.members() for s in specs]
            classes.append(VertexSet(full & ~used.point_mask, full & ~used.line_mask))
            partition = Partition(classes, names)
            verdict = is_resolving(plane, partition)
            if verdict.resolving:
                if attempt:
                    log.info("construction for q=%d succeeded after %d retries", q, attempt)
                return ConstructionResult(
                    partition=partition,
                    frame=frame,
                    zeta_sets=zetas,
                    h2=specs,
                    q=q,
                    k=k,
                    l=l,
                    seed=seed,
                    retries=attempt,
                )
            obstruction = (
                f"verification failed: {len(verdict.collision_groups)} colliding groups"
            )
            log.info("attempt %d for q=%d: %s", attempt, q, obstruction)
        except SelectionError as exc:
            obstruction = str(exc)
            log.info("attempt %d for q=%d: %s", attempt, q, obstruction)
    raise ConstructionError(q, seed, max_retries + 1, obstruction)


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
