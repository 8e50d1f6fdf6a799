import random

import pytest

from planepart import estimate_unseparated, is_resolving, lower_bound
from planepart.analysis import (
    _assignment_to_partition,
    _rgs_prefixes,
    _scan_completions,
    _scan_level,
    _all_pairs_distances,
    exhaustive_pd,
    randomized_upper_bound,
)
from planepart.construct import build_conflict_graph, choose_frame, sample_zeta_sets
from planepart.metric import VertexSet

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
