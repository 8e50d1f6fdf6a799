"""Bounds, exact searches and Monte Carlo estimates at desk scale."""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import random
import time
from dataclasses import asdict, dataclass

from .construct import (
    build_conflict_graph,
    choose_frame,
    default_zeta_count,
    expected_unseparated_bound,
    sample_zeta_sets,
)
from .galois import prime_power
from .metric import (
    Partition,
    VertexSet,
    bfs_distance,
    distance_columns,
    is_resolving,
    packed_signatures,
    pair_count,
    partition_to_doc,
    signature_groups,
    vertex_at,
)
from .plane import IncidencePlane, build_plane

LOWER_BOUND_CAVEAT = (
    "with no pure point or line classes the two vertex families are not "
    "automatically distinguished; the total is the formula value and may be "
    "off by one in edge cases"
)


@dataclass
class LowerBoundResult:
    """Minimal class counts satisfying the two counting inequalities.

    r, s and t count pure point classes, pure line classes and mixed
    classes. Feasibility requires 2^(r+t-1) * (s+t) >= n and
    2^(s+t-1) * (r+t) >= n with n = q*q + q + 1, compared exactly.
    """

    q: int
    r: int
    s: int
    t: int
    total: int
    pure_mixed_t: int
    inequalities: dict
    caveat: str = LOWER_BOUND_CAVEAT

    def to_doc(self) -> dict:
        return asdict(self)


_BOX_MAX = 64


def lower_bound(q: int) -> LowerBoundResult:
    """Minimize r+s+t over the 0..64 box under the counting inequalities.

    Sides without separating capacity are ruled out by requiring r+t >= 1
    and s+t >= 1. Ascending totals are tried with r varying slowest, so a
    reported optimum with r = s = 0 means no split with pure classes does
    better. Also reports the least t with t * 2^(t-1) >= n, the pure mixed
    form of the same bound. Like every plane order, q must be a prime power.
    """
    if q < 2:
        raise ValueError(f"order must be at least 2, got {q}")
    prime_power(q)
    n = q * q + q + 1
    best = None
    for total in range(1, 3 * _BOX_MAX + 1):
        for r in range(0, min(total, _BOX_MAX) + 1):
            for s in range(0, min(total - r, _BOX_MAX) + 1):
                t = total - r - s
                if t > _BOX_MAX:
                    continue
                if r + t < 1 or s + t < 1:
                    continue
                if (1 << (r + t - 1)) * (s + t) >= n and (1 << (s + t - 1)) * (r + t) >= n:
                    best = (r, s, t)
                    break
            if best:
                break
        if best:
            break
    if best is None:
        raise AssertionError(f"no feasible (r, s, t) within the box for q={q}")
    r, s, t = best
    pure_t = 1
    while pure_t * (1 << (pure_t - 1)) < n:
        pure_t += 1
    inequalities = {
        "line_side": {"lhs": (1 << (r + t - 1)) * (s + t), "rhs": n},
        "point_side": {"lhs": (1 << (s + t - 1)) * (r + t), "rhs": n},
    }
    return LowerBoundResult(q, r, s, t, r + s + t, pure_t, inequalities)


@dataclass
class SearchResult:
    """Outcome of a partition dimension search.

    When ``exact`` the value is both bounds. Otherwise every partition into
    fewer than ``lower`` classes was ruled out and ``upper``, when known,
    has a verified witness. ``nodes`` counts partitions verified in
    canonical enumeration order and does not depend on the worker count.
    """

    q: int
    exact: bool
    lower: int
    upper: int | None
    witness: Partition | None
    nodes: int
    wall_time: float

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None

    def to_doc(self, plane: IncidencePlane | None = None) -> dict:
        doc: dict = {"q": self.q, "exact": self.exact, "nodes": self.nodes}
        if self.exact:
            doc["pd"] = self.lower
        else:
            doc["bracket"] = {"lower": self.lower, "upper": self.upper}
        if self.witness is not None and plane is not None:
            doc["witness"] = partition_to_doc(plane, self.witness)
        return doc


def _all_pairs_distances(plane: IncidencePlane) -> list[list[int]]:
    """Dense distance matrix from the BFS oracle.

    Vertex v < n is point v, otherwise line v - n.
    """
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


def _assignment_to_partition(assign, t: int, n: int) -> Partition:
    classes = [[] for _ in range(t)]
    for v, c in enumerate(assign):
        classes[c].append(v)
    sets = []
    for members in classes:
        pts = [v for v in members if v < n]
        lns = [v - n for v in members if v >= n]
        sets.append(VertexSet.from_indices(pts, lns))
    return Partition(sets)


def _class_options(size: int, t: int) -> list[list[list[int]]]:
    """Restricted growth rule for partitions of size vertices into t classes.

    Entry [v][used] lists, in canonical order, the classes vertex v may
    join when `used` classes are open, keeping exactly t classes reachable.
    """
    return [
        [
            [c for c in range(min(used + 1, t)) if used + (c == used) + size - v > t]
            for used in range(t + 1)
        ]
        for v in range(size)
    ]


def _rgs_prefixes(size: int, t: int, depth: int):
    """Restricted growth prefixes of the given depth, canonical order.

    Only prefixes that can still reach exactly t blocks are produced.
    """
    if size == 0 or t < 1 or t > size:
        return
    options = _class_options(size, t)
    depth = min(depth, size)
    prefix = [0] * depth

    def rec(i, used):
        if i == depth:
            yield tuple(prefix)
            return
        for c in options[i][used]:
            prefix[i] = c
            yield from rec(i + 1, used + (c == used))

    yield from rec(0, 0)


def _scan_completions(dist, size, t, limit, prefix):
    """Verify completions of a restricted-growth prefix, canonical order.

    Distance vectors are maintained incrementally, packed 2 bits per class
    with empty slots at 3, so a leaf check is one set-cardinality test.
    Levels inside the prefix allow only the prefix's class. Returns
    (verified, witness) where verified counts partitions checked, stopping
    at the limit or at the first resolving assignment.
    """
    options = _class_options(size, t)
    for v, c in enumerate(prefix):
        options[v] = [[c]] * (t + 1)
    dvec = [(1 << (2 * t)) - 1] * size
    assign = [0] * size
    verified = 0
    witness = None

    def rec(v, used):
        nonlocal verified, witness
        if v == size:
            verified += 1
            if len(set(dvec)) == size:
                witness = list(assign)
            return witness is not None or verified >= limit
        drow = dist[v]
        for c in options[v][used]:
            assign[v] = c
            base = 2 * c
            trail = []
            for u in range(size):
                cur = dvec[u] >> base & 3
                d = drow[u]
                if d < cur:
                    trail.append((u, dvec[u]))
                    dvec[u] -= (cur - d) << base
            stop = rec(v + 1, used + (c == used))
            for u, packed in trail:
                dvec[u] = packed
            if stop:
                return True
        return False

    rec(0, 0)
    return verified, witness


def _worker_count(workers: int | None) -> int:
    """The pool size: os.cpu_count() for None, else at least 1."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    return workers


# Set once per pool worker, so each task ships only its item.
_WORKER: dict = {}


def _worker_init(fn, args):
    _WORKER["call"] = fn, args


def _worker_call(item):
    fn, args = _WORKER["call"]
    return fn(*args, item)


@contextlib.contextmanager
def _pooled(workers, fn, args, items, chunksize):
    """Yield the results of fn(*args, item) over items, in order, from a pool.

    Leaving the block terminates the pool, abandoning unread tasks.
    """
    with multiprocessing.Pool(workers, initializer=_worker_init, initargs=(fn, args)) as pool:
        yield pool.imap(_worker_call, items, chunksize)


def _scan_level(dist, size, t, budget, workers):
    """Scan one class count under a budget.

    Results are consumed in canonical prefix order and a witness only
    counts when it falls within the budget, so the outcome and the node
    count are identical for every worker count. Returns (nodes, witness);
    nodes reaching the budget without a witness means it ran out.
    """
    depth = 0
    span = 1
    while span < 8 * workers and depth < size:
        depth += 1
        span *= min(depth, t) + 1
    prefixes = list(_rgs_prefixes(size, t, depth))
    nodes = 0
    if workers <= 1 or len(prefixes) <= 1:
        # Lazy: each prefix is limited to the budget left when it is reached.
        scans = contextlib.nullcontext(
            _scan_completions(dist, size, t, budget - nodes, prefix) for prefix in prefixes
        )
    else:
        scans = _pooled(workers, _scan_completions, (dist, size, t, budget), prefixes, 1)
    with scans as results:
        for count, witness in results:
            nodes += count
            if witness is not None and nodes <= budget:
                return nodes, witness
            if nodes >= budget:
                return budget, None
    return nodes, None


def exhaustive_pd(
    plane: IncidencePlane,
    t_min: int = 1,
    t_max: int | None = None,
    budget: int = 10**8,
    workers: int | None = None,
) -> SearchResult:
    """Exact partition dimension by canonical enumeration of set partitions.

    Partitions into exactly t classes are enumerated as restricted growth
    strings (vertex 0 pinned to class 0) for t ascending from t_min. The
    first witness gives the exact value provided t_min is 1, since every
    smaller class count was exhausted first. The budget caps the number of
    partitions verified; when it runs out the result is a bracket whose
    upper end is the trivial singleton witness.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if t_min < 1:
        raise ValueError(f"smallest class count must be at least 1, got {t_min}")
    workers = _worker_count(workers)
    start = time.monotonic()
    size = 2 * plane.n
    if t_max is None:
        t_max = size
    t_max = min(t_max, size)
    if t_min > t_max:
        raise ValueError(f"empty class count range {t_min}..{t_max}")
    dist = _all_pairs_distances(plane)
    nodes = 0
    lower, upper, found = t_max + 1, None, None
    for t in range(t_min, t_max + 1):
        count, witness = _scan_level(dist, size, t, budget - nodes, workers)
        nodes += count
        if witness is not None:
            lower, upper, found = t, t, _assignment_to_partition(witness, t, plane.n)
            break
        if nodes >= budget:
            singles = _assignment_to_partition(list(range(size)), size, plane.n)
            lower, upper, found = t, size, singles
            break
    return SearchResult(
        q=plane.q,
        exact=t_min == 1 and lower == upper,
        lower=lower,
        upper=upper,
        witness=found,
        nodes=nodes,
        wall_time=time.monotonic() - start,
    )


def randomized_upper_bound(
    plane: IncidencePlane, t: int, attempts: int = 20, seed: int = 0
) -> Partition | None:
    """Search for a resolving t-partition by seeded restarts and local moves.

    Attempt i draws from its own stream id composed of (seed, i). Each
    attempt starts from a random valid t-partition and relocates one
    vertex at a time, accepting only moves that strictly reduce the number
    of colliding pairs. A move changes two classes, so only their two
    signature coordinates are recomputed. Returns the first verified
    witness, or None when every attempt stalls at a local minimum.
    """
    if t < 2:
        raise ValueError(f"need at least 2 classes, got {t}")
    size = 2 * plane.n
    if t > size:
        raise ValueError(f"cannot split {size} vertices into {t} classes")
    if attempts < 1:
        raise ValueError(f"need at least one attempt, got {attempts}")
    n = plane.n
    ids = range(size)
    for attempt in range(attempts):
        rng = random.Random((seed << 32) | attempt)
        order = list(ids)
        rng.shuffle(order)
        assign = [0] * size
        for c, v in enumerate(order[:t]):
            assign[v] = c
        for v in order[t:]:
            assign[v] = rng.randrange(t)
        classes = _assignment_to_partition(assign, t, n).classes
        psig, lsig = packed_signatures(plane, classes)
        sigs = psig + lsig
        current = pair_count(signature_groups(sigs, ids))
        improved = True
        while current > 0 and improved:
            improved = False
            for v in ids:
                src = assign[v]
                if classes[src].size() == 1:
                    continue
                one = VertexSet.from_vertices([vertex_at(v, n)])
                shrunk = classes[src] ^ one
                pcol, lcol = distance_columns(plane, shrunk)
                src_col = pcol + lcol
                for c in range(t):
                    if c == src:
                        continue
                    grown = classes[c] | one
                    pcol, lcol = distance_columns(plane, grown)
                    keep = ~(3 << 2 * src | 3 << 2 * c)
                    cand_sigs = [
                        sig & keep | a << 2 * src | b << 2 * c
                        for sig, a, b in zip(sigs, src_col, pcol + lcol)
                    ]
                    cand = pair_count(signature_groups(cand_sigs, ids))
                    if cand < current:
                        current, sigs = cand, cand_sigs
                        classes[src], classes[c] = shrunk, grown
                        assign[v] = c
                        improved = True
                        break
                if improved:
                    break
        if current == 0:
            witness = Partition(classes)
            if is_resolving(plane, witness).resolving:
                return witness
    return None


@dataclass
class EstimateReport:
    """Monte Carlo record of unseparated common pairs after k zeta sets."""

    q: int
    k: int
    trials: int
    counts: list[int]
    mean: float
    std_error: float | None
    bound: float
    seed: int

    def to_doc(self) -> dict:
        return asdict(self)


def _estimate_trial(plane, frame, h0, k, seed, trial) -> int:
    rng = random.Random((seed << 32) | trial)
    zetas = sample_zeta_sets(plane, frame, k, rng)
    family = [h0] + [z.members() for z in zetas]
    return build_conflict_graph(plane, frame, family).x_edge_count


def estimate_unseparated(
    q: int,
    k: int | None = None,
    trials: int = 200,
    seed: int = 0,
    workers: int | None = None,
) -> EstimateReport:
    """Sample the number of unseparated common pairs left by k zeta sets.

    Each trial draws a fresh batch of zeta sets from its own integer
    stream id composed of (seed, trial), so results do not depend on the
    worker count. Pairs are counted among common points and among common
    lines only, the domains the expectation bound speaks about.
    """
    if k is None:
        k = default_zeta_count(q)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    workers = _worker_count(workers)
    plane = build_plane(q)
    if k > q:
        raise ValueError(f"order too small for construction: k={k} zeta sets need k <= q={q}")
    frame = choose_frame(plane)
    args = (plane, frame, VertexSet.from_indices(points=frame.major_points), k, seed)
    if workers <= 1 or trials == 1:
        counts = [_estimate_trial(*args, t) for t in range(trials)]
    else:
        chunk = max(1, trials // (4 * workers))
        with _pooled(min(workers, trials), _estimate_trial, args, range(trials), chunk) as results:
            counts = list(results)
    mean = sum(counts) / trials
    if trials > 1:
        var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = None
    return EstimateReport(
        q=q,
        k=k,
        trials=trials,
        counts=counts,
        mean=mean,
        std_error=std_error,
        bound=expected_unseparated_bound(q, k),
        seed=seed,
    )
