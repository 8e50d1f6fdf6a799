import itertools
import multiprocessing
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from planepart import estimate_unseparated, is_resolving, lower_bound
from planepart.analysis import (
    _Descent,
    _assignment_to_partition,
    _pooled,
    _rgs_prefixes,
    _scan_completions,
    _scan_level,
    _all_pairs_distances,
    exhaustive_pd,
    randomized_upper_bound,
)
from planepart.construct import build_conflict_graph, choose_frame, sample_zeta_sets
from planepart.metric import VertexSet, packed_signatures, pair_count, signature_groups

from conftest import prime_powers


def test_lower_bound_q2():
    res = lower_bound(2)
    assert (res.r, res.s, res.t) == (0, 0, 3)
    assert res.total == 3
    assert res.pure_mixed_t == 3
    # t = 2 is infeasible: 2 * 2^1 = 4 < 7
    assert 2 * 2 < 7 <= 3 * 4


def test_lower_bound_q16():
    res = lower_bound(16)
    assert res.total == 7
    assert res.pure_mixed_t == 7
    assert 6 * 32 < 273 <= 7 * 64


def test_lower_bound_rejects_tiny_orders():
    with pytest.raises(ValueError):
        lower_bound(1)


def test_lower_bound_reports_inequalities_and_caveat():
    doc = lower_bound(4).to_doc()
    assert doc["inequalities"]["line_side"]["lhs"] >= doc["inequalities"]["line_side"]["rhs"]
    assert doc["inequalities"]["point_side"]["lhs"] >= doc["inequalities"]["point_side"]["rhs"]
    assert "not automatically distinguished" in doc["caveat"]


def test_lower_bound_monotone_sample():
    totals = [lower_bound(q).total for q in prime_powers(2, 64)]
    assert totals == sorted(totals)


def test_lower_bound_is_the_box_minimum_up_to_q256():
    # brute force over 0 <= r, s, t <= 16 under both counting inequalities
    box = range(17)
    for q in prime_powers(2, 256):
        n = q * q + q + 1
        best = min(
            r + s + t
            for r in box
            for s in box
            for t in box
            if r + t >= 1 and s + t >= 1
            and (s + t) << (r + t - 1) >= n and (r + t) << (s + t - 1) >= n
        )
        res = lower_bound(q)
        assert (res.r, res.s, res.total) == (0, 0, best), f"q={q}"


def test_lower_bound_at_q_2_40():
    res = lower_bound(2**40)
    assert (res.r, res.s, res.t, res.total, res.pure_mixed_t) == (0, 0, 75, 75, 75)
    assert 74 << 73 < 2**80 + 2**40 + 1 <= 75 << 74


def stirling2(n, k):
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


@pytest.mark.parametrize("size,t", [(6, 1), (6, 2), (6, 3), (8, 3), (10, 4), (9, 9)])
def test_enumeration_counts_match_stirling_numbers(size, t):
    # fake distance matrix; only the partition count matters here
    dist = [[3] * size for _ in range(size)]
    total = 0
    for prefix in _rgs_prefixes(size, t, 3):
        count, witness = _scan_completions(dist, size, t, 10**9, prefix)
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
    dist = [[3] * 8 for _ in range(8)]
    count, witness = _scan_completions(dist, 8, 3, 10, (0,))
    assert count == 10 and witness is None


def test_exhaustive_pd_singletons_fast(plane_for):
    plane = plane_for(2)
    size = 2 * plane.n
    res = exhaustive_pd(plane, t_min=size, t_max=size, workers=1)
    assert res.lower == res.upper == size
    assert res.witness is not None
    assert is_resolving(plane, res.witness).resolving
    assert not res.exact  # lower counts were not exhausted


def test_exhaustive_pd_rejects_an_empty_class_count_range(plane_for):
    with pytest.raises(ValueError) as err:
        exhaustive_pd(plane_for(2), 5, 3)
    assert str(err.value) == "empty class count range 5..3"


def test_exhaustive_pd_t1_is_never_resolving(plane_for):
    plane = plane_for(2)
    res = exhaustive_pd(plane, t_min=1, t_max=1, workers=1)
    assert res.witness is None
    assert res.nodes == 1
    assert res.lower == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "t_min,t_max,budget,expected",
    [
        # (exact, lower, upper, nodes), the same for every worker count
        (1, 6, 100, (False, 2, 14, 100)),
        (4, 4, 50, (False, 4, 14, 50)),
        (1, 6, 10_000, (False, 3, 14, 10_000)),
    ],
)
def test_exhaustive_pd_budget_bracket(plane_for, workers, t_min, t_max, budget, expected):
    plane = plane_for(2)
    res = exhaustive_pd(plane, t_min=t_min, t_max=t_max, budget=budget, workers=workers)
    assert (res.exact, res.lower, res.upper, res.nodes) == expected
    assert is_resolving(plane, res.witness).resolving


def test_scan_level_budget_rule_is_worker_independent():
    # a fixed random distance table whose first 3-class witness is the
    # 545th partition, 33 into the fourth of five depth-3 prefixes; at
    # budget 540 the pool sees that witness but it lies past the budget
    rng = random.Random(42)
    size = 8
    dist = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            dist[i][j] = dist[j][i] = rng.choice((1, 2, 3))
    cases = [(100, 100, False), (540, 540, False), (545, 545, True), (600, 545, True)]
    for budget, nodes, found in cases:
        results = [_scan_level(dist, size, 3, budget, workers) for workers in (1, 2)]
        assert results[0] == results[1]
        count, witness = results[0]
        assert (count, witness is not None) == (nodes, found)


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


def _check_scores_then_move(plane, state, v, c):
    """Every score of v is a full recount; moving v to c keeps the state exact."""
    t = len(state.sides)
    src = state.assign[v]
    before = dict(state.counts)
    scored = state.scores(v)
    assert dict(state.counts) == before
    if state.assign.count(src) == 1:
        assert scored == []
        return
    assert [d for d, _ in scored] == [d for d in range(t) if d != src]
    for d, pairs in scored:
        moved = list(state.assign)
        moved[v] = d
        assert pairs == _recount(plane, moved, t)[1], (v, d)
    state.move(v, c)
    sigs, pairs = _recount(plane, state.assign, t)
    assert state.sigs == sigs
    assert state.pairs == pairs
    assert dict(state.counts) == dict(Counter(sigs))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_descent_scores_and_moves_match_a_full_recount(plane_for, data):
    plane = plane_for(data.draw(st.sampled_from([2, 3, 4]), label="q"))
    size = 2 * plane.n
    t = data.draw(st.integers(2, 9), label="t")
    assign = data.draw(st.lists(st.integers(0, t - 1), min_size=size, max_size=size))
    for c, v in enumerate(data.draw(st.permutations(range(size)))[:t]):
        assign[v] = c
    state = _Descent(plane, assign, t)
    assert (state.sigs, state.pairs) == _recount(plane, assign, t)
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
        state = _Descent(plane, list(assign), 3)
        _check_scores_then_move(plane, state, v, c)


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
    h0 = VertexSet.from_indices(points=fr.major_points)
    zetas = sample_zeta_sets(plane, fr, 16, random.Random(4))
    counts = []
    for k in range(1, 17):
        family = [h0] + [z.members() for z in zetas[:k]]
        counts.append(build_conflict_graph(plane, fr, family).x_edge_count)
    assert counts == sorted(counts, reverse=True)


def test_all_pairs_distances_diameter(plane_for):
    plane = plane_for(2)
    dist = _all_pairs_distances(plane)
    flat = [d for row in dist for d in row]
    assert max(flat) == 3
    assert all(dist[i][i] == 0 for i in range(len(dist)))
