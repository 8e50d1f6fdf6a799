import contextlib
import gc
import itertools
import json
import multiprocessing
import os
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from planepart import analysis, estimate_unseparated, is_resolving, lower_bound
from planepart.analysis import (
    _Descent,
    _assignment_to_partition,
    _incidence_graph,
    _pooled,
    _worker_count,
    _rgs_prefixes,
    _scan_completions,
    _scan_level,
    exhaustive_pd,
    randomized_upper_bound,
)
from planepart.construct import build_conflict_graph, choose_frame, draw_conflict, sample_zeta_sets
from planepart.metric import VertexSet, packed_signatures, pair_count, signature_groups

from conftest import collector, prime_powers
from oracles import all_pairs_distances, distance_columns


def test_lower_bound_q2():
    res = lower_bound(2)
    assert res.total == 3
    # t = 2 is infeasible: 2 * 2^1 = 4 < 7
    assert 2 * 2 < 7 <= 3 * 4
    assert res.inequality == {"lhs": 12, "rhs": 7}


def test_lower_bound_q16():
    res = lower_bound(16)
    assert res.total == 7
    assert 6 * 32 < 273 <= 7 * 64
    assert res.to_doc() == {"q": 16, "total": 7, "inequality": {"lhs": 448, "rhs": 273}}


def test_lower_bound_rejects_tiny_orders():
    with pytest.raises(ValueError):
        lower_bound(1)


def test_lower_bound_reports_its_count():
    # acceptance criterion 6 checks that total is the least such t
    for q in prime_powers(2, 256):
        res = lower_bound(q)
        t = res.total
        assert res.inequality == {"lhs": t << (t - 1), "rhs": q * q + q + 1}, f"q={q}"


def test_lower_bound_monotone_sample():
    totals = [lower_bound(q).total for q in prime_powers(2, 64)]
    assert totals == sorted(totals)


def test_lower_bound_is_the_box_minimum_up_to_q256():
    # brute force over r pure point, s pure line and t mixed classes,
    # 0 <= r, s, t <= 16, under both counts: the points number at most
    # 2^(s+t-1) * (t+2r) and the lines at most 2^(r+t-1) * (t+2s), doubled
    # here to stay in integers; so pure classes never lower the total
    box = range(17)
    for q in prime_powers(2, 256):
        n = q * q + q + 1
        best = min(
            r + s + t
            for r in box
            for s in box
            for t in box
            if (t + 2 * r) << (s + t) >= 2 * n and (t + 2 * s) << (r + t) >= 2 * n
        )
        assert lower_bound(q).total == best, f"q={q}"


def test_lower_bound_at_q_2_40():
    res = lower_bound(2**40)
    assert res.total == 75
    assert 74 << 73 < 2**80 + 2**40 + 1 <= 75 << 74


def stirling2(n, k):
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


@pytest.mark.parametrize("size,t", [(6, 1), (6, 2), (6, 3), (8, 3), (10, 4), (10, 10)])
def test_enumeration_counts_match_stirling_numbers(size, t):
    # an edgeless graph; only the partition count matters here
    graph = [[] for _ in range(size)]
    total = 0
    for prefix in _rgs_prefixes(size, t, 3):
        count, witness = _scan_completions(graph, t, 10**9, prefix)
        total += count
    assert total == stirling2(size, t)


def test_rgs_prefixes_equal_a_brute_force_filter():
    # restricted growth: each entry opens at most the next class, and the
    # classes still unopened fit into the vertices left
    def reachable(prefix, size, t):
        opened = 0
        for c in prefix:
            if c > opened:
                return False
            opened += c == opened
        return opened + size - len(prefix) >= t

    for size in range(1, 10):
        for t in range(1, size + 1):
            for depth in range(6):
                product = itertools.product(range(t), repeat=min(depth, size))
                expected = [p for p in product if reachable(p, size, t)]
                assert list(_rgs_prefixes(size, t, depth)) == expected, (size, t, depth)


def test_scan_respects_limit():
    graph = [[] for _ in range(8)]
    count, witness = _scan_completions(graph, 3, 10, (0,))
    assert count == 10 and witness is None


def test_scan_leaves_no_cycle_for_the_collector(plane_for):
    # the CLI runs scans with the cyclic collector paused
    graph = _incidence_graph(plane_for(2))
    gc.collect()
    with collector(False):
        for t in (2, 3):
            _scan_completions(graph, t, 1000, (0,))
        assert gc.collect() == 0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3]))
def test_scan_codes_agree_with_is_resolving(data, q, plane_for):
    # a scan pinned to a whole assignment verifies that one partition; its
    # codes come from class counts, is_resolving's from packed_signatures.
    # Singletons and other classes lacking one side exercise the 3 -> 2 rule.
    plane = plane_for(q)
    graph = _incidence_graph(plane)
    size = len(graph)
    t = data.draw(st.integers(2, size), label="t")
    order = data.draw(st.permutations(range(size)), label="order")
    assign = [0] * size
    for c, v in enumerate(order[:t]):
        assign[v] = c
    for v in order[t:]:
        assign[v] = data.draw(st.integers(0, t - 1))
    count, witness = _scan_completions(graph, t, 1, assign)
    resolving = is_resolving(plane, _assignment_to_partition(assign, t, plane.n)).resolving
    assert count == 1
    assert (witness is not None) == resolving
    assert witness in (None, assign)


def test_exhaustive_pd_singletons_fast(plane_for):
    plane = plane_for(2)
    size = 2 * plane.n
    res = exhaustive_pd(plane, t_min=size, t_max=size, workers=1)
    # no level below size was scanned: the lower end is the counting bound
    assert (res.lower, res.upper) == (lower_bound(2).total, size) == (3, size)
    assert res.witness is not None
    assert is_resolving(plane, res.witness).resolving
    assert not res.exact


def test_exhaustive_pd_rejects_an_empty_class_count_range(plane_for):
    with pytest.raises(ValueError) as err:
        exhaustive_pd(plane_for(2), 5, 3)
    assert str(err.value) == "empty class count range 5..3"


def test_exhaustive_pd_t1_is_never_resolving(plane_for):
    plane = plane_for(2)
    res = exhaustive_pd(plane, t_min=1, t_max=1, workers=1)
    assert res.witness is None
    assert res.nodes == 1
    assert res.lower == 3  # the counting bound, above the scanned level 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "t_min,t_max,budget,expected",
    [
        # (exact, lower, upper, nodes), the same for every worker count; the
        # lower end is never below the counting bound, 3 at q=2
        (1, 6, 100, (False, 3, 14, 100)),
        (4, 4, 50, (False, 3, 14, 50)),
        (1, 6, 10_000, (False, 3, 14, 10_000)),
    ],
)
def test_exhaustive_pd_budget_bracket(plane_for, workers, t_min, t_max, budget, expected):
    plane = plane_for(2)
    res = exhaustive_pd(plane, t_min=t_min, t_max=t_max, budget=budget, workers=workers)
    assert (res.exact, res.lower, res.upper, res.nodes) == expected
    assert is_resolving(plane, res.witness).resolving


@pytest.mark.parametrize(
    "t_min, expected",
    [
        # (exact, lower, upper, nodes). Level 3 is scanned to the end, so
        # pd > 3 holds though levels 1 and 2 are skipped; from t_min 5 no
        # level below the witness is scanned, and only the counting bound,
        # 3, holds. pd(PG(2,2)) is 4.
        (3, (True, 4, 4, 791_147)),
        (5, (False, 3, 5, 1180)),
    ],
)
def test_exhaustive_pd_lower_end_counts_only_scanned_levels(plane_for, t_min, expected):
    plane = plane_for(2)
    res = exhaustive_pd(plane, t_min=t_min, workers=1)
    assert (res.exact, res.lower, res.upper, res.nodes) == expected
    assert is_resolving(plane, res.witness).resolving


@pytest.mark.parametrize(
    "patched, budget, t",
    [("_scan_completions", 10**8, 3), ("_assignment_to_partition", 50, 14)],
)
def test_exhaustive_pd_raises_on_a_witness_that_does_not_resolve(
    plane_for, monkeypatch, patched, budget, t
):
    # a 3-class partition with 12 vertices in class 0 cannot resolve; it
    # stands in for a faulty level witness and for faulty singletons
    plane = plane_for(2)
    bad = [0, 1, 2] + [0] * (2 * plane.n - 3)
    bad_partition = _assignment_to_partition(bad, 3, plane.n)
    assert not is_resolving(plane, bad_partition).resolving
    fakes = {
        "_scan_completions": lambda graph, t, budget, prefix: (1, bad),
        "_assignment_to_partition": lambda assign, t, n: bad_partition,
    }
    monkeypatch.setattr(analysis, patched, fakes[patched])
    with pytest.raises(RuntimeError) as err:
        exhaustive_pd(plane, t_min=3, t_max=3, budget=budget, workers=1)
    assert str(err.value) == (
        f"exhaustive search at q=2 returned a {t}-class partition that is not resolving"
    )


# points P0..P3 and lines L0..L3 (ids 4..7) with only P0 and P1 on L0; its
# first 3-class witness is the 410th partition, 109 into the third of five
# depth-3 prefixes
_SMALL_GRAPH = [[4], [4], [], [], [0, 1], [], [], []]
_SMALL_CASES = [(100, 100, False), (405, 405, False), (410, 410, True), (500, 410, True)]


def test_scan_level_budget_rule_is_worker_independent():
    graph = _SMALL_GRAPH
    for budget, nodes, found in _SMALL_CASES:
        results = [_scan_level(graph, 3, budget, workers) for workers in (1, 2)]
        assert results[0] == results[1]
        count, witness = results[0]
        assert (count, witness is not None) == (nodes, found)
    prefixes = _rgs_prefixes(8, 3, 3)
    counts = [_scan_completions(graph, 3, 10**9, p)[0] for p in prefixes[:3]]
    assert len(prefixes) == 5 and sum(counts[:2]) == 301 < 405 and counts[2] == 109


@contextlib.contextmanager
def _all_at_once(workers, fn, args, items, chunksize, bind):
    # a pool with a worker per item: each is handed out before any returns
    jobs = [bind(i, item, [None] * len(items)) for i, item in enumerate(items)]
    yield (fn(*args, job) for job in jobs)


def test_scan_level_counts_a_witness_only_within_the_budget(monkeypatch):
    # prefixes handed out before any count returns get the whole budget, so
    # at budget 405 the witness's prefix reaches it, 5 partitions past it
    real, seen = analysis._scan_completions, []

    def recorded(graph, t, limit, prefix):
        count, witness = real(graph, t, limit, prefix)
        seen.append(witness is not None)
        return count, witness

    monkeypatch.setattr(analysis, "_scan_completions", recorded)
    monkeypatch.setattr(analysis, "_pooled", _all_at_once)
    for budget, nodes, found in _SMALL_CASES:
        seen.clear()
        count, witness = _scan_level(_SMALL_GRAPH, 3, budget, 2)
        assert (count, witness is not None) == (nodes, found)
        assert any(seen) == (budget >= 405)


@contextlib.contextmanager
def _first_returns_last(workers, fn, args, items, chunksize, bind):
    # two workers, one held by the first item while the other runs the rest:
    # each later item is handed out knowing every earlier result but the first
    answered = [None] * len(items)
    first = bind(0, items[0], answered)
    for i in range(1, len(items)):
        answered[i] = fn(*args, bind(i, items[i], answered))
    answered[0] = fn(*args, first)
    yield iter(answered)


def test_scan_level_scans_nothing_once_returned_counts_fill_the_budget(plane_for, monkeypatch):
    graph = _incidence_graph(plane_for(2))
    budget = 50_000
    real, scans = analysis._scan_completions, []

    def recorded(graph, t, limit, prefix):
        count, witness = real(graph, t, limit, prefix)
        scans.append((limit, count))
        return count, witness

    serial = _scan_level(graph, 3, budget, 1)
    monkeypatch.setattr(analysis, "_scan_completions", recorded)
    monkeypatch.setattr(analysis, "_pooled", _first_returns_last)
    assert _scan_level(graph, 3, budget, 2) == serial == (budget, None)
    assert all(count <= limit for limit, count in scans)
    assert len(scans) < len(_rgs_prefixes(len(graph), 3, 5)) == 41


def test_scan_level_caps_each_prefix_at_the_budget_left_by_returned_counts(
    plane_for, monkeypatch, tmp_path
):
    # PG(2,2) has pd 4, so level 3 holds no witness and the budget runs out
    # there, split into 41 prefixes for two workers
    graph = _incidence_graph(plane_for(2))
    budget, log = 100_000, tmp_path / "scans.jsonl"
    real = analysis._scan_completions

    def recorded(graph, t, limit, prefix):
        count, witness = real(graph, t, limit, prefix)
        with open(log, "a") as out:
            out.write(json.dumps([list(prefix), limit, count]) + "\n")
        return count, witness

    serial = _scan_level(graph, 3, budget, 1)
    monkeypatch.setattr(analysis, "_scan_completions", recorded)
    assert _scan_level(graph, 3, budget, 2) == serial == (budget, None)
    scans = {tuple(p): (limit, count) for p, limit, count in map(json.loads, log.open())}
    prefixes = _rgs_prefixes(len(graph), 3, 5)
    assert len(prefixes) == 41 and set(scans) <= set(prefixes)
    last = max(map(prefixes.index, scans))
    sizes = [real(graph, 3, budget, p)[0] for p in prefixes[: last + 1]]
    for j, prefix in enumerate(prefixes[: last + 1]):
        if prefix not in scans:
            continue
        limit, count = scans[prefix]
        # never past its cap, and the cap is never below what one recursion
        # has left at this prefix; a cap below 1 scans nothing
        assert count == min(limit, sizes[j])
        assert limit >= budget - sum(sizes[:j])
        # with two workers, at most one earlier prefix was still running
        returned = [scans[p][1] for p in prefixes[:j] if p in scans]
        assert budget - limit >= sum(returned) - max(returned, default=0)
    assert min(limit for limit, _ in scans.values()) < budget


def _fail_at_three(item):
    if item == 3:
        raise ValueError(f"bad item {item}")
    return item * item


def _die_at_three(item):
    if item == 3:
        os._exit(1)
    return item


def test_pooled_reraises_in_order_and_leaves_no_worker():
    got = []
    with _pooled(2, _fail_at_three, (), range(6), 1) as results:
        with pytest.raises(ValueError, match="^bad item 3$"):
            got.extend(results)
    assert got == [0, 1, 4]
    with _pooled(2, abs, (), [-1, -2, -3, -4], 1) as results:
        assert next(results) == 1  # leave with chunks unread
    with _pooled(2, _die_at_three, (), range(6), 2) as results:
        with pytest.raises(EOFError):
            list(results)
    assert multiprocessing.active_children() == []


def test_worker_count_is_capped_at_the_cpu_count():
    # computes a size only: no process is started
    cpus = os.cpu_count() or 1
    assert _worker_count(10**6) == cpus
    assert _worker_count(None) == cpus
    assert _worker_count(1) == 1
    with pytest.raises(ValueError, match="^worker count must be at least 1, got 0$"):
        _worker_count(0)


def test_rejected_partitions_audit_against_closed_form(plane_for):
    # re-verify a sample of enumerated partitions at t = pd - 1 = 3 with the
    # closed-form representation path: none may resolve
    plane = plane_for(2)
    size = 2 * plane.n
    t = 3
    sampled = 0
    index = 0
    rng = random.Random(0)
    stack = [([0], 1)]
    # iterative canonical enumeration, independent of the module internals
    assigns = []

    def rec(assign, used):
        nonlocal index, sampled
        v = len(assign)
        if v == size:
            index += 1
            if index % 997 == 0:
                assigns.append(list(assign))
            return
        for c in range(min(used + 1, t)):
            if (used + 1 if c == used else used) + (size - v - 1) < t:
                continue
            assign.append(c)
            rec(assign, used + 1 if c == used else used)
            assign.pop()

    rec([0], 1)
    assert index == stirling2(size, t)
    assert len(assigns) > 500
    for assign in assigns:
        partition = _assignment_to_partition(assign, t, plane.n)
        assert not is_resolving(plane, partition).resolving


def test_randomized_upper_bound_trivial(plane_for):
    plane = plane_for(2)
    size = 2 * plane.n
    witness = randomized_upper_bound(plane, size, attempts=1, seed=0)
    assert witness is not None
    assert is_resolving(plane, witness).resolving


def test_randomized_upper_bound_q3_descent(plane_for):
    plane = plane_for(3)
    lb = lower_bound(3).total
    assert lb == 4
    t = 2 * plane.n
    best = None
    while t >= 2:
        witness = randomized_upper_bound(plane, t, attempts=6, seed=0)
        if witness is None:
            break
        assert is_resolving(plane, witness).resolving
        best = t
        t -= 1
    assert best is not None
    assert best >= lb


def _recount(plane, assign, t):
    """Signatures and colliding pairs of an assignment, computed from scratch."""
    psig, lsig = packed_signatures(plane, _assignment_to_partition(assign, t, plane.n).classes)
    sigs = psig + lsig
    return sigs, pair_count(map(len, signature_groups(sigs, range(len(sigs)))))


def _skip_rule(plane, state, v):
    """The documented skip rule, restated from a recount of the state's assignment.

    The state has colliding pairs, v and its neighbours each have a
    signature no other vertex shares, and v is not the last vertex of its
    class on its side.
    """
    n, assign = plane.n, state.assign
    side = v >= n
    near = [n + li for li in plane.point_lines[v]] if side == 0 else plane.line_points[v - n]
    sigs, pairs = _recount(plane, assign, len(state.sides))
    counts = Counter(sigs)
    on_side = assign[side * n : side * n + n].count(assign[v])
    return pairs > 0 and all(counts[sigs[u]] == 1 for u in [v, *near]) and on_side > 1


def _recounted_scores(plane, state, v):
    """(c, pairs) for every class c other than v's, each pair count recounted
    from scratch after moving v to c."""
    t = len(state.sides)
    out = []
    for c in range(t):
        if c != state.assign[v]:
            moved = list(state.assign)
            moved[v] = c
            out.append((c, _recount(plane, moved, t)[1]))
    return out


def _check_scores(plane, state, v):
    """scores(v) leaves the counts as they were and is the recounted scoring
    cut after the first count below the state's pairs, else every other
    class; it is empty when v is alone in its class or the skip rule holds,
    and then no move of v goes below the pairs."""
    before = dict(state.counts)
    scored = state.scores(v)
    assert dict(state.counts) == before
    if state.assign.count(state.assign[v]) == 1:
        assert scored == [], v
        return
    full = _recounted_scores(plane, state, v)
    if _skip_rule(plane, state, v):
        assert scored == [], v
        assert min(pairs for _, pairs in full) >= state.pairs, v
        return
    cut = next((i for i, (_, pairs) in enumerate(full) if pairs < state.pairs), len(full) - 1)
    assert scored == full[: cut + 1], v


def _check_scores_then_move(plane, state, v, c):
    """v's scores are checked against a recount, and moving v to c keeps the
    state exact."""
    _check_scores(plane, state, v)
    if state.assign.count(state.assign[v]) == 1:
        return
    t = len(state.sides)
    state.move(v, c)
    sigs, pairs = _recount(plane, state.assign, t)
    assert state.sigs == sigs
    assert state.pairs == pairs
    assert dict(state.counts) == dict(Counter(sigs))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_descent_scores_and_moves_match_a_full_recount(plane_for, data):
    q = data.draw(st.sampled_from([2, 3, 4]), label="q")
    plane = plane_for(q)
    size = 2 * plane.n
    # At q=2 up to one class per vertex, so that many classes lack a point or
    # a line and start at far code 3. At q=4 up to the 26 classes at which
    # search_random_q4 starts, where signatures pack 52 bit planes a side.
    t = data.draw(st.integers(2, {2: size, 3: 9, 4: 26}[q]), label="t")
    assign = data.draw(st.lists(st.integers(0, t - 1), min_size=size, max_size=size))
    for c, v in enumerate(data.draw(st.permutations(range(size)))[:t]):
        assign[v] = c
    state = _Descent(plane, _incidence_graph(plane), assign, t)
    # The fresh state against the closed form, one class at a time.
    n = plane.n
    columns = []
    for c in range(t):
        members = VertexSet.from_indices(
            [p for p in range(n) if assign[p] == c], [li for li in range(n) if assign[n + li] == c]
        )
        pcol, lcol = distance_columns(plane, members)
        columns.append(pcol + lcol)
    assert [[sig >> 2 * c & 3 for sig in state.sigs] for c in range(t)] == columns
    assert state.pairs == pair_count(Counter(zip(*columns)).values())
    for _ in range(data.draw(st.integers(1, 6))):
        v = data.draw(st.integers(0, size - 1), label="v")
        c = data.draw(st.integers(0, t - 2), label="c")
        _check_scores_then_move(plane, state, v, c + (c >= state.assign[v]))


def test_descent_rescans_a_side_whose_far_code_flips(plane_for):
    """Moves that empty or first fill a class on one side are scored exactly.

    On PG(2,2), class 0 holds P0..P5 and L0..L4, class 1 holds P6 and L6,
    class 2 holds L5 alone. Moving P6 to class 0 takes class 1's last point
    and flips the point side; moving L6 to class 2 takes class 1's last
    line and flips the line side; moving P0 to class 2 gives that class a
    first point and flips the point side. Moving L0 to class 1 flips no
    side.
    """
    plane = plane_for(2)
    n = plane.n
    assign = [0] * 6 + [1] + [0] * 5 + [2, 1]
    for v, c in ((6, 0), (n + 6, 2), (0, 2), (n, 1)):
        state = _Descent(plane, _incidence_graph(plane), list(assign), 3)
        _check_scores_then_move(plane, state, v, c)


def _descend(state, steps):
    """Take up to `steps` first-improvement moves, as randomized_upper_bound does."""
    for _ in range(steps):
        for v in range(len(state.assign)):
            scored = state.scores(v)
            if scored and scored[-1][1] < state.pairs:
                state.move(v, scored[-1][0])
                break
        else:
            return


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_descent_skips_exactly_the_scans_that_cannot_improve(plane_for, data):
    """Along a descent, scores(v) is the recounted scoring cut at the first
    improvement, except that it is empty exactly when the skip rule holds,
    and then no class brings the count below pairs."""
    plane = plane_for(data.draw(st.sampled_from([2, 3, 4]), label="q"))
    size = 2 * plane.n
    t = data.draw(st.integers(2, 9), label="t")
    assign = data.draw(st.lists(st.integers(0, t - 1), min_size=size, max_size=size))
    for c, v in enumerate(data.draw(st.permutations(range(size)))[:t]):
        assign[v] = c
    state = _Descent(plane, _incidence_graph(plane), assign, t)
    for _ in range(data.draw(st.integers(0, 4), label="random moves")):
        v = data.draw(st.integers(0, size - 1), label="v")
        if state.assign.count(state.assign[v]) > 1:
            c = data.draw(st.integers(0, t - 2), label="c")
            state.move(v, c + (c >= state.assign[v]))
    _descend(state, data.draw(st.integers(0, 30), label="descent steps"))
    for v in range(size):
        _check_scores(plane, state, v)


def test_descent_scores_a_move_that_empties_a_side(plane_for):
    """The skip needs more than no touched vertex colliding.

    On PG(2,2) with t=4, P0, L1, L3 and L5 each have a signature of their
    own, and the state has 3 colliding pairs. But P0 is class 1's only
    point, so moving it flips class 1's far code on the point side from 2
    to 3, and moving it to class 0 leaves 1 pair. So scores must not skip P0.
    """
    plane = plane_for(2)
    assign = [1, 2, 0, 0, 2, 0, 3, 2, 3, 2, 1, 3, 3, 0]
    state = _Descent(plane, _incidence_graph(plane), assign, 4)
    assert state.pairs == 3
    assert all(state.counts[state.sigs[u]] == 1 for u in [0, *state.adj[0]])
    assert _recounted_scores(plane, state, 0) == [(0, 1), (2, 3), (3, 1)]
    assert state.scores(0) == [(0, 1)]


def test_descent_skips_a_move_that_first_fills_a_side(plane_for):
    """A class with no vertex on v's side does not stop the skip.

    On PG(2,2) with t=4, L1 and its points P0, P3 and P4 each have a
    signature of their own, L1 is one of three lines of class 2, and class 0
    holds P3 and P4 but no line. Moving L1 there turns every other line's
    code 3 to class 0 into 2 alike, and the points, at code 0 or 2 there,
    were already apart from every line, at 1 or 3. So no pair comes apart,
    and the state's 1 pair cannot drop.
    """
    plane = plane_for(2)
    assign = [3, 1, 2, 0, 0, 1, 3, 1, 2, 3, 2, 3, 3, 2]
    state = _Descent(plane, _incidence_graph(plane), assign, 4)
    n = plane.n
    assert state.pairs == 1 and state.sides[0] == [2, 0]
    assert all(state.counts[state.sigs[u]] == 1 for u in [n + 1, *state.adj[n + 1]])
    assert _recounted_scores(plane, state, n + 1) == [(0, 2), (1, 1), (3, 1)]
    assert state.scores(n + 1) == []


@pytest.mark.parametrize(
    "assign, v, c, repeats",
    [
        ([2, 0, 1, 0, 1, 1, 0, 2, 1, 1, 0, 1, 0, 1], 2, 0, [2]),
        ([2, 0, 1, 0, 1, 1, 0, 2, 1, 1, 0, 1, 0, 1], 6, 1, [3]),
        ([2, 0, 0, 1, 2, 0, 1, 2, 1, 2, 2, 1, 2, 0], 0, 1, [2, 2]),
    ],
)
def test_descent_scores_a_candidate_whose_new_signatures_repeat(
    plane_for, assign, v, c, repeats
):
    """The touched vertices' new signatures are paired among themselves exactly.

    On PG(2,2) with t=3 and no far-code flip: moving P2 to class 0 gives
    L2 and L6 one signature (one repeat, one pair); moving P6 to class 1
    gives P6, L2 and L4 one signature (a triple); moving P0 to class 1
    gives P0 and L1 one signature and L3 and L5 another (two repeats).
    """
    plane = plane_for(2)
    state = _Descent(plane, _incidence_graph(plane), list(assign), 3)
    src, side = assign[v], v >= plane.n
    assert state.sides[src][side] > 1 and state.sides[c][side] > 0
    moved = list(assign)
    moved[v] = c
    sigs = _recount(plane, moved, 3)[0]
    new = Counter(sigs[u] for u in [v, *state.adj[v]])
    assert sorted((k for k in new.values() if k > 1), reverse=True) == repeats
    assert c in [d for d, _ in state.scores(v)]
    _check_scores(plane, state, v)


def _reference_search(plane, t, attempts, seed):
    """randomized_upper_bound restated without _Descent.

    The same seeded starts; vertices in id order, target classes ascending,
    every candidate scored by a full recount, and the first one below the
    pair count taken, after which the scan restarts at vertex 0. A vertex
    alone in its class is not moved. Returns the first partition with no
    colliding pair, else None.
    """
    size = 2 * plane.n
    for attempt in range(attempts):
        rng = random.Random((seed << 32) | attempt)
        order = list(range(size))
        rng.shuffle(order)
        assign = [0] * size
        for c, v in enumerate(order[:t]):
            assign[v] = c
        for v in order[t:]:
            assign[v] = rng.randrange(t)
        pairs = _recount(plane, assign, t)[1]
        v = 0
        while pairs and v < size:
            src = assign[v]
            targets = [c for c in range(t) if c != src] if assign.count(src) > 1 else []
            for c in targets:
                moved = list(assign)
                moved[v] = c
                after = _recount(plane, moved, t)[1]
                if after < pairs:
                    assign, pairs, v = moved, after, 0
                    break
            else:
                v += 1
        if pairs == 0:
            return _assignment_to_partition(assign, t, plane.n)
    return None


@pytest.mark.parametrize(
    "q, t, seeds, found",
    # t=3 at q=2 is below the counting bound, and at q=3 every attempt at
    # t=4 stalls at a local minimum.
    [
        (2, 3, [0, 1], False),
        (2, 5, [0, 1, 2], True),
        (3, 4, [0, 1], False),
        (3, 5, [0, 1, 2, 3], True),
        (3, 6, [0, 1, 2], True),
    ],
)
def test_randomized_upper_bound_follows_the_reference_descent(plane_for, q, t, seeds, found):
    plane = plane_for(q)
    for seed in seeds:
        expected = _reference_search(plane, t, 4, seed)
        assert (expected is not None) == found, seed
        assert randomized_upper_bound(plane, t, attempts=4, seed=seed) == expected, seed


def test_randomized_upper_bound_rejects_a_move_that_misses_its_score(plane_for, monkeypatch):
    scores = _Descent.scores
    calls = 0

    def one_low(self, v):
        # reports the last candidate one pair below its real count
        nonlocal calls
        calls += 1
        assert calls <= 10_000, "the descent did not stop"
        out = scores(self, v)
        if out:
            c, pairs = out[-1]
            out[-1] = (c, pairs - 1)
        return out

    monkeypatch.setattr(_Descent, "scores", one_low)
    with pytest.raises(RuntimeError) as err:
        randomized_upper_bound(plane_for(3), 5, attempts=4, seed=0)
    message = str(err.value)
    left, scored = map(int, re.fullmatch(
        r"q=3, t=5: moving vertex \d+ to class \d+ left (\d+) colliding pairs, "
        r"but it was scored at (\d+)", message
    ).groups())
    assert left == scored + 1


def test_randomized_upper_bound_arg_checks(plane_for):
    plane = plane_for(2)
    with pytest.raises(ValueError):
        randomized_upper_bound(plane, 1)
    with pytest.raises(ValueError):
        randomized_upper_bound(plane, 15 * 2)


def test_estimate_deterministic_single_trial():
    a = estimate_unseparated(16, trials=1, seed=9, workers=1)
    b = estimate_unseparated(16, trials=1, seed=9, workers=1)
    assert a.to_doc() == b.to_doc()
    assert a.k == 15
    assert a.std_error is None


def test_estimate_samples_the_first_stage_of_construct(plane_for):
    """Trial 0 of seed 0 draws from the stream of construct's attempt 0 of seed 0."""
    plane = plane_for(16)
    _, conflict = draw_conflict(plane, choose_frame(plane), 15, random.Random(0))
    assert estimate_unseparated(16, trials=1, seed=0).counts[0] == conflict.x_edge_count


def test_estimate_worker_independence():
    a = estimate_unseparated(16, trials=6, seed=2, workers=1)
    b = estimate_unseparated(16, trials=6, seed=2, workers=3)
    assert a.counts == b.counts


def test_estimate_std_error_formula():
    rep = estimate_unseparated(16, trials=8, seed=5, workers=1)
    mean = sum(rep.counts) / 8
    var = sum((c - mean) ** 2 for c in rep.counts) / 7
    assert rep.mean == pytest.approx(mean)
    assert rep.std_error == pytest.approx((var / 8) ** 0.5)


def test_estimate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        estimate_unseparated(8)  # default k = 12 > q
    with pytest.raises(ValueError):
        estimate_unseparated(16, trials=0)


def test_more_zeta_sets_never_unseparate(plane_for):
    # prefixes of one fixed draw: adding sets to the family can only
    # reduce the number of unseparated common pairs
    plane = plane_for(16)
    fr = choose_frame(plane)
    h0 = VertexSet.from_indices(points=fr.majors[0])
    zetas = sample_zeta_sets(plane, fr, 16, random.Random(4))
    counts = []
    for k in range(1, 17):
        family = [h0] + zetas[:k]
        counts.append(build_conflict_graph(plane, fr, family).x_edge_count)
    assert counts == sorted(counts, reverse=True)


def test_all_pairs_distances_diameter(plane_for):
    plane = plane_for(2)
    dist = all_pairs_distances(plane)
    flat = [d for row in dist for d in row]
    assert max(flat) == 3
    assert all(dist[i][i] == 0 for i in range(len(dist)))
