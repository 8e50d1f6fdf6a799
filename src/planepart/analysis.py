"""Bounds, exact searches and Monte Carlo estimates at desk scale."""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import random
import time
from collections import Counter
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
    is_resolving,
    pair_count,
    partition_to_doc,
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
    2^(s+t-1) * (r+t) >= n with n = q*q + q + 1, compared exactly. The
    optimum is always pure mixed, so r = s = 0 and t = total =
    pure_mixed_t (see ``lower_bound``).
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


def lower_bound(q: int) -> LowerBoundResult:
    """Least r+s+t under the counting inequalities: (0, 0, t), t * 2^(t-1) >= n.

    No split with pure classes does better. If (r, s, t) is feasible and
    T = r+s+t, then T * 2^(T-1) >= (s+t) * 2^(r+t-1) >= n, and the same
    holds on the other side, so (0, 0, T) is feasible too. The least
    feasible total is thus the least t with t * 2^(t-1) >= n, exactly, for
    every q. Like every plane order, q must be a prime power.
    """
    if q < 2:
        raise ValueError(f"order must be at least 2, got {q}")
    prime_power(q)
    n = q * q + q + 1
    t = 1
    while t << (t - 1) < n:
        t += 1
    inequalities = {side: {"lhs": t << (t - 1), "rhs": n} for side in ("line_side", "point_side")}
    return LowerBoundResult(q, 0, 0, t, t, t, inequalities)


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
    """The partition with vertex v (point v below n, else line v - n) in class assign[v]."""
    ids = [([], []) for _ in range(t)]
    for v, c in enumerate(assign):
        ids[c][v >= n].append(v % n)
    return Partition([VertexSet.from_indices(*pair) for pair in ids])


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


def _rgs_prefixes(size: int, t: int, depth: int) -> list[tuple[int, ...]]:
    """Restricted growth prefixes of length min(depth, size), canonical order.

    Each level extends every prefix by the classes its next vertex may
    join, with max(prefix) + 1 classes open, so only prefixes that can
    still reach exactly t classes are kept.
    """
    options = _class_options(size, t)
    prefixes = [()]
    for v in range(min(depth, size)):
        prefixes = [p + (c,) for p in prefixes for c in options[v][max(p, default=-1) + 1]]
    return prefixes


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


def _serve(conn, fn, args):
    """Pool worker: answer each chunk of items with its fn(*args, item) list."""
    while True:
        chunk = conn.recv()
        try:
            conn.send((True, [fn(*args, item) for item in chunk]))
        except Exception as err:
            conn.send((False, err))


def _in_order(conns, chunks):
    """Hand chunks to idle workers and yield their results in chunk order."""
    pending = iter(range(len(chunks)))
    owner, done = {}, {}
    for conn, i in zip(conns, pending):
        conn.send(chunks[i])
        owner[conn] = i
    for i in range(len(chunks)):
        while i not in done:
            for conn in multiprocessing.connection.wait(list(owner)):
                done[owner.pop(conn)] = conn.recv()
                j = next(pending, None)
                if j is not None:
                    conn.send(chunks[j])
                    owner[conn] = j
        ok, results = done.pop(i)
        if not ok:
            raise results
        yield from results


@contextlib.contextmanager
def _pooled(workers, fn, args, items, chunksize):
    """Yield the results of fn(*args, item) over items, in order.

    With one worker or at most one item they are computed lazily in this
    process. Otherwise worker processes take chunks of chunksize items in
    turn, an exception raised by fn is re-raised here in item order, and
    leaving the block kills the workers, abandoning unread chunks. Each
    worker has a pipe of its own and shares no lock, so a kill in the middle
    of sending a result cannot hang this process, as it can with the shared
    result queue of multiprocessing.Pool; a worker that dies surfaces here
    as EOFError.
    """
    if workers <= 1 or len(items) <= 1:
        yield (fn(*args, item) for item in items)
        return
    chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
    conns, procs = [], []
    try:
        for _ in range(min(workers, len(chunks))):
            here, there = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(there, fn, args), daemon=True)
            proc.start()
            there.close()
            conns.append(here)
            procs.append(proc)
        yield _in_order(conns, chunks)
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _scan_level(dist, size, t, budget, workers):
    """Scan one class count under a budget.

    One worker scans the level in one canonical recursion. A pool splits it
    into restricted-growth prefixes, about eight per worker, and reads the
    results in prefix order, which is canonical order; a witness counts only
    within the budget. So the outcome and the node count are identical for
    every worker count. Returns (nodes, witness); nodes reaching the budget
    without a witness means it ran out.
    """
    depth, span = 0, 1
    while workers > 1 and span < 8 * workers and depth < size:
        depth += 1
        span *= min(depth, t) + 1
    prefixes = _rgs_prefixes(size, t, depth)
    nodes = 0
    with _pooled(workers, _scan_completions, (dist, size, t, budget), prefixes, 1) as results:
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


class _Descent:
    """Signatures of a t-partition of the 2n vertices, kept under single moves.

    Vertex ids are points 0..n-1 and lines n..2n-1. The state is the
    assignment; ``nb[c][u]``, the number of neighbours of u in class c;
    ``sides[c]``, the point and line counts of class c; the packed
    signatures; a Counter of them; and ``pairs``, the number of colliding
    pairs. No mask is read: u's code to a class c other than its own is 1
    when nb[c][u] > 0, else 2 when c holds a vertex on u's side (two points
    share a line, and dually), else 3.

    Moving v from class src to class c changes coordinates src and c only,
    and only for v and its q+1 neighbours, unless src loses its last vertex
    on v's side or c gains its first one. Then vertices on v's side may
    flip between far codes 2 and 3: ``scores`` makes one O(n) pass over the
    signature integers, and ``move`` recomputes that whole side.
    """

    def __init__(self, plane: IncidencePlane, assign: list[int], t: int):
        n = plane.n
        self.n, self.assign = n, assign
        self.adj = [[n + li for li in row] for row in plane.point_lines]
        self.adj += [list(row) for row in plane.line_points]
        self.nb = [[0] * (2 * n) for _ in range(t)]
        self.sides = [[0, 0] for _ in range(t)]
        for u, c in enumerate(assign):
            self.sides[c][u >= n] += 1
            for w in self.adj[u]:
                self.nb[assign[w]][u] += 1
        self.sigs = [0] * (2 * n)
        for c in range(t):
            self.sigs = [s | self.code(u, c) << 2 * c for u, s in enumerate(self.sigs)]
        self.counts = Counter(self.sigs)
        self.pairs = pair_count(self.counts.values())

    def code(self, u: int, c: int) -> int:
        """Distance from u to class c, read off the counts."""
        if self.assign[u] == c:
            return 0
        return 1 if self.nb[c][u] else 2 if self.sides[c][u >= self.n] else 3

    def scores(self, v: int, below: int = -1) -> list[tuple[int, int]]:
        """Colliding pairs after moving v to each other class, ascending.

        Returns (c, pairs) items and stops after the first pair count below
        ``below``. Empty when v is alone in its class. v gets code 0 to c
        and, to src, 1 when it has a neighbour there, else its side's far
        code. A neighbour w keeps code 0 to src when it is in src, else gets
        1 when another neighbour of it is in src, else its side's far code,
        and gets code 0 or 1 to c. Without a far-code flip only these are
        rescored against the Counter. With one, a copy of the signatures
        also turns, on v's side, src's code 2 into 3 or c's code 3 into 2,
        and its pairs are counted afresh.
        """
        n, assign, sigs, counts, have = self.n, self.assign, self.sigs, self.counts, self.sides
        src = assign[v]
        if sum(have[src]) == 1:
            return []
        near = self.adj[v]
        nb_src = self.nb[src]
        side = v >= n
        shift = 2 * src
        clear = ~(3 << shift)
        far = 2 if have[src][not side] else 3  # on the neighbours' side
        # v and its neighbours with coordinate src already moved.
        moved = [
            sigs[w] & clear | (0 if assign[w] == src else 1 if nb_src[w] > 1 else far) << shift
            for w in near
        ]
        moved_v = sigs[v] & clear | (1 if nb_src[v] else 2 if have[src][side] > 1 else 3) << shift
        # Take the touched vertices out of the count; they go back at the end.
        touched = near + [v]
        lost = 0
        for u in touched:
            k = counts[sigs[u]] - 1
            counts[sigs[u]] = k
            lost += k
        lo, hi = side * n, side * n + n
        up = 1 << shift if have[src][side] == 1 else 0
        zeros = itertools.repeat(0)
        out = []
        for c in range(len(have)):
            if c == src:
                continue
            bit = 2 * c
            keep = ~(3 << bit)
            new = [s & keep | (assign[w] != c) << bit for w, s in zip(near, moved)]
            new.append(moved_v & keep)
            down = 0 if have[c][side] else 1 << bit
            if up or down:
                full = sigs[:lo] + [
                    s + (up if s >> shift & 3 == 2 else 0) - (down if s >> bit & 3 == 3 else 0)
                    for s in sigs[lo:hi]
                ] + sigs[hi:]
                for u, s in zip(touched, new):
                    full[u] = s
                pairs = pair_count(Counter(full).values())
            else:
                # A new signature shared by k others adds k pairs; equal new
                # signatures also pair among themselves.
                gained = sum(map(counts.get, new, zeros))
                if len(set(new)) < len(new):
                    gained += pair_count(Counter(new).values())
                pairs = self.pairs - lost + gained
            out.append((c, pairs))
            if pairs < below:
                break
        for u in touched:
            counts[sigs[u]] += 1
        return out

    def move(self, v: int, c: int) -> None:
        """Move v to class c and update every count it changes."""
        n, assign, counts, sigs = self.n, self.assign, self.counts, self.sigs
        src, side, have = assign[v], v >= n, self.sides
        # A far-code flip on v's side rescores that whole side.
        flips = have[src][side] == 1 or not have[c][side]
        touched = self.adj[v] + (list(range(side * n, side * n + n)) if flips else [v])
        assign[v] = c
        have[src][side] -= 1
        have[c][side] += 1
        for w in self.adj[v]:
            self.nb[src][w] -= 1
            self.nb[c][w] += 1
        keep = ~(3 << 2 * src | 3 << 2 * c)
        pairs = self.pairs
        for u in touched:
            k = counts[sigs[u]] - 1
            pairs -= k
            if k:
                counts[sigs[u]] = k
            else:
                counts.pop(sigs[u])
            sigs[u] = sigs[u] & keep | self.code(u, src) << 2 * src | self.code(u, c) << 2 * c
            pairs += counts[sigs[u]]
            counts[sigs[u]] += 1
        self.pairs = pairs


def randomized_upper_bound(
    plane: IncidencePlane, t: int, attempts: int = 20, seed: int = 0
) -> Partition | None:
    """Search for a resolving t-partition by seeded restarts and local moves.

    Attempt i draws from its own stream id composed of (seed, i). Each
    attempt starts from a random valid t-partition and relocates one
    vertex at a time. Vertices are tried in id order and target classes in
    ascending order; the first move that strictly reduces the number of
    colliding pairs is taken, and the scan restarts at vertex 0. Codes come
    from counts: a vertex outside class c is at distance 1 from it when it
    has a neighbour in c, else 2 when c holds a vertex on its side, else 3.
    Each candidate is scored exactly, in O(q) unless it changes a class
    between having and lacking vertices on the moved vertex's side; then by
    one O(n) pass over the signature integers (see ``_Descent``). Returns
    the first witness that ``is_resolving`` accepts, or None when every
    attempt stalls at a local minimum.
    """
    if t < 2:
        raise ValueError(f"need at least 2 classes, got {t}")
    size = 2 * plane.n
    if t > size:
        raise ValueError(f"cannot split {size} vertices into {t} classes")
    if attempts < 1:
        raise ValueError(f"need at least one attempt, got {attempts}")
    for attempt in range(attempts):
        rng = random.Random((seed << 32) | attempt)
        order = list(range(size))
        rng.shuffle(order)
        assign = [0] * size
        for c, v in enumerate(order[:t]):
            assign[v] = c
        for v in order[t:]:
            assign[v] = rng.randrange(t)
        state = _Descent(plane, assign, t)
        v = 0
        while state.pairs and v < size:
            scored = state.scores(v, state.pairs)
            if scored and scored[-1][1] < state.pairs:
                state.move(v, scored[-1][0])
                v = 0
            else:
                v += 1
        if state.pairs == 0:
            witness = _assignment_to_partition(state.assign, t, plane.n)
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
    frame = choose_frame(plane)
    args = (plane, frame, VertexSet.from_indices(points=frame.major_points), k, seed)
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
