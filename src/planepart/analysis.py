"""Bounds, exact searches and Monte Carlo estimates at desk scale."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import signal
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

from .construct import choose_frame, draw_conflict, expected_unseparated_bound, zeta_count
from .metric import (
    Partition,
    VertexSet,
    is_resolving,
    packed_signatures,
    pair_count,
    partition_to_doc,
)
from .plane import IncidencePlane, build_plane, plane_order


@dataclass
class LowerBoundResult:
    """The counting lower bound on the partition dimension of a plane of order q.

    ``total`` is the least class count t with t * 2^(t-1) >= n, where
    n = q*q + q + 1, and ``inequality`` holds both sides of that count,
    compared exactly (see ``lower_bound``).
    """

    q: int
    total: int
    inequality: dict

    def to_doc(self) -> dict:
        return asdict(self)


def lower_bound(q: int) -> LowerBoundResult:
    """Least class count t of a resolving partition by counting: t * 2^(t-1) >= n.

    The n = q*q + q + 1 points need pairwise distinct distance vectors. A
    point has code 0 to its own class. To any other class it has code 1
    when the class holds a line through it, else the class's far code,
    which is fixed: 2 when the class holds a point, else 3. With t classes
    the points of one class thus have at most 2^(t-1) vectors, so
    t * 2^(t-1) >= n.

    Pure classes never help. With r classes of points only, s of lines only
    and t mixed ones, a point has code 2 to every pure point class other
    than its own, so the points number at most 2^(s+t-1) * (t + 2r) and, by
    duality, the lines at most 2^(r+t-1) * (t + 2s). For T = r+s+t,
    2^r * T >= 2^r * (t+r) >= t + 2r, so T * 2^(T-1) >= 2^(s+t-1) * (t+2r)
    >= n: no split brings the total below the least such t. Like every
    plane order, q must be a prime power.
    """
    plane_order(q)
    n = q * q + q + 1
    t = _counting_bound(n)
    return LowerBoundResult(q, t, {"lhs": t << (t - 1), "rhs": n})


def _counting_bound(n: int) -> int:
    """Least t with t * 2^(t-1) >= n: no partition of a plane with n points
    into fewer classes resolves (see ``lower_bound``)."""
    t = 1
    while t << (t - 1) < n:
        t += 1
    return t


@dataclass
class SearchResult:
    """Outcome of a partition dimension search.

    When ``exact`` the value is both bounds. Otherwise every partition into
    fewer than ``lower`` classes was ruled out and ``upper``, when known,
    has a verified witness. The exhaustive search rules them out by the
    counting bound of ``lower_bound`` or by scanning level ``lower - 1``
    to the end, which suffices: splitting a class A | B of a resolving
    partition keeps it resolving, since d(v, A | B) = min(d(v, A), d(v, B)),
    so a resolving partition into fewer classes splits into one at that
    level. Levels below its ``t_min`` are not scanned and rule nothing out
    beyond the counting bound. ``nodes`` counts partitions verified in
    canonical enumeration order and does not depend on the worker count.
    """

    q: int
    exact: bool
    lower: int
    upper: int | None
    witness: Partition | None
    nodes: int
    wall_time: float

    def to_doc(self, plane: IncidencePlane | None = None) -> dict:
        doc: dict = {"q": self.q, "exact": self.exact, "nodes": self.nodes}
        if self.exact:
            doc["pd"] = self.lower
        else:
            doc["bracket"] = {"lower": self.lower, "upper": self.upper}
        if self.witness is not None and plane is not None:
            doc["witness"] = partition_to_doc(plane, self.witness)
        return doc


def _incidence_graph(plane: IncidencePlane) -> list[list[int]]:
    """Adjacency lists of the incidence graph: points 0..n-1, lines n..2n-1."""
    n = plane.n
    graph = [[n + li for li in row] for row in plane.point_lines]
    return graph + [list(row) for row in plane.line_points]


def _assignment_to_partition(assign, t: int, n: int) -> Partition:
    """The partition with vertex v (point v below n, else line v - n) in class assign[v]."""
    masks = [[0, 0] for _ in range(t)]
    for v, c in enumerate(assign):
        masks[c][v >= n] |= 1 << v % n
    return Partition([VertexSet(*pair) for pair in masks])


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


def _scan_completions(graph, t, limit, prefix):
    """Verify completions of a restricted-growth prefix, canonical order.

    Codes follow the rule in ``packed_signatures``' docstring, packed 2 bits
    per class, 3 while a class is empty, so a leaf check is one
    set-cardinality test. Placing v in class c sets v's code to c to 0 and
    lowers each neighbour's to at most 1; if c had no vertex on v's side,
    every code 3 to c on that side becomes 2. Each level restores the codes
    it found, and the point and line count of c, on the way back. Levels
    inside the prefix allow only the prefix's class. Returns (verified,
    witness) where verified counts partitions checked, stopping at the
    limit or at the first resolving assignment.
    """
    size = len(graph)
    n = size // 2
    options = _class_options(size, t)
    for v, c in enumerate(prefix):
        options[v] = [[c]] * (t + 1)
    dvec = [(1 << (2 * t)) - 1] * size
    sides = [[0, 0] for _ in range(t)]
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
        side = v >= n
        lo, hi = side * n, side * n + n
        saved = dvec[:]
        for c in options[v][used]:
            assign[v] = c
            base = 2 * c
            dvec[v] &= ~(3 << base)
            for w in graph[v]:
                if dvec[w] >> base & 2:  # code 2 or 3 becomes 1
                    dvec[w] -= (dvec[w] >> base & 3) - 1 << base
            have = sides[c]
            if not have[side]:
                one = 1 << base
                dvec[lo:hi] = [d - one if d >> base & 3 == 3 else d for d in dvec[lo:hi]]
            have[side] += 1
            stop = rec(v + 1, used + (c == used))
            have[side] -= 1
            dvec[:] = saved
            if stop:
                return True
        return False

    rec(0, 0)
    del rec  # rec holds itself through its cell: free it without the cyclic collector
    return verified, witness


def _worker_count(workers: int | None) -> int:
    """The pool size: os.cpu_count() for None, else workers capped at it."""
    cpus = os.cpu_count() or 1
    if workers is None:
        return cpus
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    return min(workers, cpus)


def _class_count_range(t_min: int, t_max: int | None, size: int, start: int = 1):
    """Checked class counts max(t_min, start)..min(t_max, size); a None t_max means size."""
    if t_min < 1:
        raise ValueError(f"smallest class count must be at least 1, got {t_min}")
    t_min = max(t_min, start)
    t_max = size if t_max is None else min(t_max, size)
    if t_min > t_max:
        raise ValueError(f"empty class count range {t_min}..{t_max}")
    return t_min, t_max


@contextlib.contextmanager
def _sigterm_held():
    """Keep SIGTERM pending in this thread for the block, where signal masks
    exist; yields the mask to restore, or None."""
    if not hasattr(signal, "pthread_sigmask"):
        yield None
        return
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _serve(conn, fn, args, mask):
    """Pool worker: answer each chunk of items with its fn(*args, item) list,
    under the signal mask its parent had before it held SIGTERM (if any)."""
    if mask is not None:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    while True:
        chunk = conn.recv()
        try:
            conn.send((True, [fn(*args, item) for item in chunk]))
        except Exception as err:
            conn.send((False, err))


def _in_order(conns, items, chunksize, bind, answered):
    """Hand chunks of items to idle workers and yield their results in order.

    Item i is sent as bind(i, items[i], answered) when its chunk is handed
    out, and answered[i] is set once its result comes back.
    """
    from multiprocessing.connection import wait

    starts = range(0, len(items), chunksize)
    pending = iter(starts)
    owner, done = {}, {}

    def hand(conn, start):
        stop = min(start + chunksize, len(items))
        conn.send([bind(i, items[i], answered) for i in range(start, stop)])
        owner[conn] = start

    for conn, start in zip(conns, pending):
        hand(conn, start)
    for start in starts:
        while start not in done:
            for conn in wait(list(owner)):
                first = owner.pop(conn)
                ok, results = done[first] = conn.recv()
                if ok:
                    answered[first : first + len(results)] = results
                nxt = next(pending, None)
                if nxt is not None:
                    hand(conn, nxt)
        ok, results = done.pop(start)
        if not ok:
            raise results
        yield from results


@contextlib.contextmanager
def _pooled(workers, fn, args, items, chunksize, bind=lambda i, item, answered: item):
    """Yield the results of fn(*args, item) over items, in order.

    With one worker or at most one item they are computed lazily in this
    process. Otherwise worker processes take chunks of chunksize items in
    turn, an exception raised by fn is re-raised here in item order, and
    leaving the block kills the workers, abandoning unread chunks. Each
    worker has a pipe of its own and shares no lock, so a kill in the middle
    of sending a result cannot hang this process, as it can with the shared
    result queue of multiprocessing.Pool; a worker that dies surfaces here
    as EOFError.

    Item i is passed as bind(i, item, answered), computed when it is handed
    out. answered lists every item's result, None until it is known: in
    this process every earlier result is known by then, and in a pool every
    one but those of the chunks other workers are still running.
    """
    answered = [None] * len(items)
    if workers <= 1 or len(items) <= 1:

        def serial():
            for i, item in enumerate(items):
                answered[i] = fn(*args, bind(i, item, answered))
                yield answered[i]

        yield serial()
        return
    # imported only here, so that a command that runs no pool does not load
    # multiprocessing: about 1.8 MB of resident memory and 10 ms of start-up
    import multiprocessing

    conns, procs = [], []
    try:
        # A SIGTERM handler that raises (``cli.main`` sets one) runs only once
        # every worker forked is in procs, for the finally below to kill.
        with _sigterm_held() as mask:
            for _ in range(min(workers, len(range(0, len(items), chunksize)))):
                here, there = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_serve, args=(there, fn, args, mask), daemon=True
                )
                proc.start()
                there.close()
                conns.append(here)
                procs.append(proc)
        yield _in_order(conns, items, chunksize, bind, answered)
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _scan_capped(graph, t, job):
    """``_scan_completions`` of job = (limit, prefix), as the pool sends it.

    A limit below 1 scans nothing: the counts before the prefix already
    fill the budget, so its result is never read.
    """
    limit, prefix = job
    return _scan_completions(graph, t, limit, prefix) if limit > 0 else (0, None)


def _scan_level(graph, t, budget, workers):
    """Scan one class count under a budget.

    One worker scans the level in one canonical recursion. A pool splits it
    into restricted-growth prefixes, at the least depth that gives eight per
    worker, and reads the results in prefix order, which is canonical order;
    a witness counts only within the budget. A prefix is handed out capped
    at the budget less the counts already returned for the prefixes before
    it, and not scanned once they fill it, so a worker stops about where
    one recursion would. A prefix still running elsewhere is not
    subtracted, so the cap is never below what one recursion has left at
    that prefix, and the outcome and the node count are identical for
    every worker count. Returns (nodes, witness); nodes reaching the budget
    without a witness means it ran out.
    """
    size = len(graph)
    depth, prefixes = 0, [()]
    while workers > 1 and len(prefixes) < 8 * workers and depth < size:
        depth += 1
        prefixes = _rgs_prefixes(size, t, depth)

    def capped(i, prefix, answered):
        return budget - sum(r[0] for r in answered[:i] if r is not None), prefix

    nodes = 0
    with _pooled(workers, _scan_capped, (graph, t), prefixes, 1, capped) as results:
        for count, witness in results:
            nodes += count
            if witness is not None and nodes <= budget:
                return nodes, witness
            if nodes >= budget:
                return budget, None
    return nodes, None


# Stack frames left to exhaustive_pd's callers below the recursion limit.
_CALLER_FRAMES = 100


def exhaustive_pd(
    plane: IncidencePlane,
    t_min: int = 1,
    t_max: int | None = None,
    budget: int = 10**8,
    workers: int | None = None,
) -> SearchResult:
    """Exact partition dimension by canonical enumeration of set partitions.

    Partitions into exactly t classes are enumerated as restricted growth
    strings (vertex 0 pinned to class 0) for t ascending from t_min, with
    codes kept as the vertices are placed (see ``_scan_completions``).
    Splitting a class of a resolving partition keeps it resolving, since
    d(v, A | B) = min(d(v, A), d(v, B)); so a level t scanned to the end
    without a witness proves pd > t, whatever t_min is. The lower end of
    the result is the larger of the counting bound of ``lower_bound``,
    taken from the plane's point count, and one more than the last such
    level, and the result is exact when it meets the first witness's
    level. The budget caps the number of partitions verified; when it runs
    out the result is a bracket whose upper end is the trivial singleton
    witness. The returned witness is checked by ``is_resolving``, and a
    RuntimeError names q and t if it fails. The scan recurses once per
    vertex, so a plane whose 2n vertices, with a margin for the caller's
    frames, exceed the recursion limit is rejected before any scan.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    t_min, t_max = _class_count_range(t_min, t_max, 2 * plane.n)
    workers = _worker_count(workers)
    start = time.monotonic()
    graph = _incidence_graph(plane)
    size = len(graph)
    limit = sys.getrecursionlimit()
    if size + _CALLER_FRAMES > limit:
        raise ValueError(
            f"exhaustive search recurses once per vertex: {size} vertices and "
            f"{_CALLER_FRAMES} caller frames exceed the recursion limit {limit}"
        )
    nodes = 0
    lower, upper, found = _counting_bound(plane.n), None, None
    for t in range(t_min, t_max + 1):
        count, witness = _scan_level(graph, t, budget - nodes, workers)
        nodes += count
        if witness is not None:
            upper, found = t, _assignment_to_partition(witness, t, plane.n)
            break
        if nodes >= budget:
            upper = size
            found = _assignment_to_partition(list(range(size)), size, plane.n)
            break
        lower = max(lower, t + 1)
    if found is not None and not is_resolving(plane, found).resolving:
        raise RuntimeError(
            f"exhaustive search at q={plane.q} returned a {upper}-class partition "
            "that is not resolving"
        )
    return SearchResult(
        q=plane.q,
        exact=lower == upper,
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
    signatures, first taken from ``packed_signatures``, whose docstring
    states the code rule; ``counts``, a plain dict from each signature to
    the number of vertices that have it; and ``pairs``, the number of
    colliding pairs. Moves read the rule off the counts (see ``code``).

    Moving v from class src to class c changes coordinates src and c only,
    and only for v and its q+1 neighbours, unless src loses its last vertex
    on v's side or c gains its first one. Then vertices on v's side may
    flip between far codes 2 and 3: ``scores`` makes one O(n) pass over the
    signature integers, and ``move`` recomputes that whole side.
    """

    def __init__(self, plane: IncidencePlane, graph: list[list[int]], assign: list[int], t: int):
        n = len(graph) // 2
        self.n, self.assign, self.adj = n, assign, graph
        self.nb = [[0] * (2 * n) for _ in range(t)]
        self.sides = [[0, 0] for _ in range(t)]
        for u, c in enumerate(assign):
            self.sides[c][u >= n] += 1
            for w in graph[u]:
                self.nb[assign[w]][u] += 1
        psig, lsig = packed_signatures(plane, _assignment_to_partition(assign, t, n).classes)
        self.sigs = psig + lsig
        self.counts = dict(Counter(self.sigs))
        self.pairs = pair_count(self.counts.values())

    def code(self, u: int, c: int) -> int:
        """Distance from u to class c, read off the counts."""
        if self.assign[u] == c:
            return 0
        return 1 if self.nb[c][u] else 2 if self.sides[c][u >= self.n] else 3

    def scores(self, v: int) -> list[tuple[int, int]]:
        """Colliding pairs after moving v to each other class, ascending.

        Returns (c, pairs) items and stops after the first pair count below
        ``pairs``. Empty when v is alone in its class. Also empty, unscored,
        when pairs > 0 and no move of v can go below the count: v and its
        neighbours collide with no vertex, and v is not the last vertex of
        src on its side (see ``randomized_upper_bound``).

        v gets code 0 to c and, to src, 1 when it has a neighbour there,
        else its side's far code. A neighbour w keeps code 0 to src when it
        is in src, else gets 1 when another neighbour of it is in src, else
        its side's far code, and gets code 0 or 1 to c. Without a far-code
        flip only these are rescored against the counts, and their new
        signatures also pair among themselves: with dup = len(new) -
        len(set(new)), no pair at 0, one at 1, and only at 2 or more (a
        triple, or two repeated values) are they counted by value. With a
        flip, a copy of the signatures also turns, on v's side, src's code
        2 into 3 or c's code 3 into 2, and its pairs are counted afresh.
        """
        n, assign, sigs, counts, have = self.n, self.assign, self.sigs, self.counts, self.sides
        src = assign[v]
        if sum(have[src]) == 1:
            return []
        near = self.adj[v]
        side = v >= n
        shift = 2 * src
        up = 1 << shift if have[src][side] == 1 else 0
        # Take the touched vertices out of the count; they go back at the end.
        touched = near + [v]
        lost = 0
        for u in touched:
            k = counts[sigs[u]] - 1
            counts[sigs[u]] = k
            lost += k
        # Nothing touched collides and src keeps v's side: no class can go
        # below the count (see randomized_upper_bound).
        if not (lost or up) and self.pairs:
            for u in touched:
                counts[sigs[u]] += 1
            return []
        nb_src = self.nb[src]
        clear = ~(3 << shift)
        far = 2 if have[src][not side] else 3  # on the neighbours' side
        # v and its neighbours with coordinate src already moved.
        cls = [assign[w] for w in near]
        moved = [
            sigs[w] & clear | (0 if d == src else 1 if nb_src[w] > 1 else far) << shift
            for w, d in zip(near, cls)
        ]
        moved_v = sigs[v] & clear | (1 if nb_src[v] else 3 if up else 2) << shift
        lo, hi = side * n, side * n + n
        rest = self.pairs - lost
        get = counts.get
        zeros = itertools.repeat(0)
        out = []
        for c in range(len(have)):
            if c == src:
                continue
            bit = 2 * c
            keep = ~(3 << bit)
            one = 1 << bit
            new = [s if d == c else s & keep | one for d, s in zip(cls, moved)]
            new.append(moved_v & keep)
            down = 0 if have[c][side] else one
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
                gained = sum(map(get, new, zeros))
                dup = len(new) - len(set(new))
                if dup == 1:
                    gained += 1
                elif dup:
                    gained += pair_count(Counter(new).values())
                pairs = rest + gained
            out.append((c, pairs))
            if pairs < self.pairs:
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
            s = sigs[u] = sigs[u] & keep | self.code(u, src) << 2 * src | self.code(u, c) << 2 * c
            k = counts.get(s, 0)
            pairs += k
            counts[s] = k + 1
        self.pairs = pairs


def randomized_upper_bound(
    plane: IncidencePlane, t: int, attempts: int = 20, seed: int = 0
) -> Partition | None:
    """Search for a resolving t-partition by seeded restarts and local moves.

    Attempt i draws from ``random.Random((seed << 32) | i)``. These streams
    can overlap: attempt s + 1 of seed s draws as attempt s + 1 of seed 0
    (ROADMAP item 3). Each attempt starts from a random valid t-partition
    and relocates one vertex at a time. Vertices are tried in id order and
    target classes in ascending order; the first move that strictly reduces
    the number of colliding pairs is taken, and the scan restarts at vertex
    0. An attempt's first signatures come from ``packed_signatures``, whose
    docstring states the code rule, and moves update them from class
    counts. Each candidate is scored exactly, in O(q) unless it changes a
    class between having and lacking vertices on the moved vertex's side;
    then by one O(n) pass over the signature integers (see ``_Descent``).

    A vertex v is skipped unscored when it and its q+1 neighbours each have
    a signature no other vertex shares and v is not the last vertex of its
    class on its side. No move of v can then lower the count, so the scan
    would have gone on to the next vertex anyway. A move lowers the count
    only by separating a colliding pair, and the touched vertices are in
    none. The untouched ones change only if the target class c had no
    vertex on v's side: then every untouched vertex on that side turns code
    3 to c into 2 alike, which separates none of their pairs, and a pair
    across the sides was already apart at c (codes 1 or 3 against 0 or 2).

    Each move must leave the pair count it was scored at, else RuntimeError:
    a scoring that disagrees with ``move`` could otherwise take moves that
    do not lower the count, and the scan would never end.

    Returns the first witness that ``is_resolving`` accepts, or None when
    every attempt stalls at a local minimum.
    """
    if t < 2:
        raise ValueError(f"need at least 2 classes, got {t}")
    graph = _incidence_graph(plane)
    size = len(graph)
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
        state = _Descent(plane, graph, assign, t)
        v = 0
        while state.pairs and v < size:
            scored = state.scores(v)
            if scored and scored[-1][1] < state.pairs:
                c, pairs = scored[-1]
                state.move(v, c)
                if state.pairs != pairs:
                    raise RuntimeError(
                        f"q={plane.q}, t={t}: moving vertex {v} to class {c} left "
                        f"{state.pairs} colliding pairs, but it was scored at {pairs}"
                    )
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


def _estimate_trial(plane, frame, k, seed, trial) -> int:
    return draw_conflict(plane, frame, k, random.Random((seed << 32) | trial))[1].x_edge_count


def estimate_unseparated(
    q: int,
    k: int | None = None,
    trials: int = 200,
    seed: int = 0,
    workers: int | None = None,
) -> EstimateReport:
    """Sample the number of unseparated common pairs left by k zeta sets.

    Trial i runs the construction's first stage, ``draw_conflict``, on
    ``random.Random((seed << 32) | i)``, so results do not depend on the
    worker count. These streams can overlap: trial s + 1 of seed s draws as
    trial s + 1 of seed 0 (ROADMAP item 3). Pairs are counted among common
    points and among common lines only, the domains the expectation bound
    speaks about.
    """
    plane_order(q)
    k = zeta_count(q, k)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    workers = _worker_count(workers)
    plane = build_plane(q)
    frame = choose_frame(plane)
    args = (plane, frame, k, seed)
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
