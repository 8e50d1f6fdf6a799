import logging
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from planepart import construct, construct_partition, is_resolving
from planepart.construct import (
    ConflictGraph,
    ConstructionError,
    SelectionError,
    build_conflict_graph,
    build_h2,
    choose_frame,
    default_searching_count,
    default_zeta_count,
    draw_conflict,
    expected_unseparated_bound,
    min_free_lines,
    result_to_doc,
    sample_zeta_sets,
    searching_family,
    select_class_lines,
    zeta_count,
)
from planepart.metric import (
    LINE,
    POINT,
    Verdict,
    VertexId,
    VertexSet,
    packed_signatures,
    pair_count,
    signature_groups,
)
from planepart.plane import IncidencePlane

from conftest import prime_powers, relabelled_plane
from oracles import (
    commons,
    conflict_vertex_count,
    distance_columns,
    distance_to_set,
    incident,
    meet,
    separation_probability_bound,
    zeta_size,
)


@pytest.fixture(scope="module")
def q64(plane_for):
    plane = plane_for(64)
    return plane, construct_partition(plane, seed=7, max_retries=20)


def test_frame_counts_q2(plane_for):
    # the supports and the majors of a side leave its 4 common vertices
    plane = plane_for(2)
    fr = choose_frame(plane)
    assert fr.supports[0] == 0
    assert [len(majors) for majors in fr.majors] == [2, 2]
    left = [plane.n - len({*majors, s}) for majors, s in zip(fr.majors, fr.supports)]
    assert left == [4, 4]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_common_vertex_count_is_2q_squared(q, plane_for):
    # each side's majors are q distinct vertices of the support row or
    # column other than the supports, read through the oracle; the row and
    # column hold q + 1, so the majors are all of them less the supports,
    # and the commons number n - 1 - q = q*q per side
    plane = plane_for(q)
    fr = choose_frame(plane)
    p0, l0 = fr.supports
    assert incident(plane, p0, l0)
    assert [len(set(majors)) for majors in fr.majors] == [q, q]
    assert all(p != p0 and incident(plane, p, l0) for p in fr.majors[0])
    assert all(l != l0 and incident(plane, p0, l) for l in fr.majors[1])
    assert sum(plane.n - 1 - len(majors) for majors in fr.majors) == 2 * q * q


def test_frame_meet_and_join_tables(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    # on the dual, the meet of two points is their join and incidence is
    # read with the roles exchanged
    common = commons(plane, fr)
    for side, view in enumerate((plane, plane.dual())):
        for u in common[1 - side]:
            v = meet(view, u, fr.supports[1 - side])
            assert v in fr.majors[side]
            assert incident(view, v, u)


@pytest.mark.parametrize("q", [4, 5, 16])
def test_zeta_sets_have_size_q(q, plane_for):
    plane = plane_for(q)
    fr = choose_frame(plane)
    zetas = sample_zeta_sets(plane, fr, min(3, q), random.Random(1))
    for z in zetas:
        assert zeta_size(z) == q
        assert bin(z.point_mask).count("1") == q // 2
        assert bin(z.line_mask).count("1") == q - q // 2


def test_zeta_geometry(plane_for):
    # the point half lies on a major line, the join of any two of its
    # points; dually the line half passes through a major point, the meet
    # of any two of its lines
    plane = plane_for(5)
    fr = choose_frame(plane)
    for z in sample_zeta_sets(plane, fr, 4, random.Random(3)):
        points, lines = z.point_ids(), z.line_ids()
        base_line = meet(plane.dual(), *points[:2])
        assert base_line in fr.majors[1]
        for p in points:
            assert incident(plane, p, base_line)
            assert p != fr.supports[0]
        base_point = meet(plane, *lines[:2])
        assert base_point in fr.majors[0]
        for ln in lines:
            assert incident(plane, base_point, ln)
            assert ln not in fr.majors[1] and ln != fr.supports[1]


def test_zeta_counts_and_error():
    with pytest.raises(ValueError, match="^q=8 is too small for the default of 12 zeta sets"):
        zeta_count(8, None)
    too_many = "^order too small for construction: k=9 zeta sets need k <= q=8$"
    with pytest.raises(ValueError, match=too_many):
        zeta_count(8, 9)
    with pytest.raises(ValueError, match="^zeta set count must be positive, got 0$"):
        zeta_count(8, 0)
    assert zeta_count(16, None) == 15
    assert zeta_count(8, 8) == 8
    assert default_zeta_count(16) == 15
    assert default_zeta_count(8) == 12
    assert default_zeta_count(64) == 21
    assert default_zeta_count(128) == 24
    assert default_searching_count(64) == 6


def test_zeta_disjointness_100_seeds(plane_for):
    plane = plane_for(16)
    fr = choose_frame(plane)
    h0_points = plane.line_masks[fr.supports[1]] & ~(1 << fr.supports[0])
    for seed in range(100):
        zetas = sample_zeta_sets(plane, fr, 15, random.Random(seed))
        pm = lm = 0
        for m in zetas:
            assert not m.point_mask & pm
            assert not m.line_mask & lm
            assert not m.point_mask & h0_points
            pm |= m.point_mask
            lm |= m.line_mask


def test_separation_probability_bound_values():
    lhs, rhs = separation_probability_bound(16, 15)
    assert rhs == 0.5**15
    assert lhs < rhs
    lhs, rhs = separation_probability_bound(1024, 33)
    assert lhs < rhs == 0.5**33
    with pytest.raises(ValueError):
        separation_probability_bound(16, 17)


def test_expected_unseparated_bound_value():
    assert expected_unseparated_bound(32, 18) == pytest.approx(3.99609375)


def test_min_free_lines_value():
    assert min_free_lines(64) == 16.0
    assert min_free_lines(16) == 0.0


def test_searching_family_four_elements():
    sets = searching_family(["a", "b", "c", "d"], 2)
    vectors = {}
    for x in "abcd":
        vectors[x] = tuple(int(x in s) for s in sets)
    assert sorted(vectors.values()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_searching_family_sixteen_majors(plane_for):
    fr = choose_frame(plane_for(16))
    sets = searching_family(fr.majors[0], 4)
    codes = {p: tuple(int(p in s) for s in sets) for p in fr.majors[0]}
    assert len(set(codes.values())) == 16


def test_searching_family_exclusions():
    sets = searching_family(list(range(5)), 3, excluded=[2])
    codes = {x: tuple(int(x in s) for s in sets) for x in range(5)}
    assert codes[2] == (0, 0, 0)
    others = [codes[x] for x in range(5) if x != 2]
    assert (0, 0, 0) not in others
    assert len(set(others)) == 4


def test_searching_family_errors():
    with pytest.raises(ValueError, match="searching sets"):
        searching_family(list(range(5)), 2)
    with pytest.raises(ValueError, match="searching sets"):
        searching_family(list(range(5)), 2, excluded=[0])


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=40), data=st.data())
def test_searching_family_codes_always_distinct(size, data):
    domain = list(range(size))
    excluded = data.draw(st.sets(st.sampled_from(domain))) if size > 1 else set()
    free = size - len(excluded)
    needed = max(free - 1 if not excluded else free, 0).bit_length()
    count = data.draw(st.integers(min_value=needed, max_value=needed + 2))
    sets = searching_family(domain, count, excluded)
    codes = {x: tuple(int(x in s) for s in sets) for x in domain}
    zero = tuple([0] * count)
    for x in excluded:
        assert codes[x] == zero
    non_excluded = [codes[x] for x in domain if x not in excluded]
    assert len(set(non_excluded)) == free
    if excluded:
        assert zero not in non_excluded


def brute_force_valid_line_systems(plane, support_line, targets):
    """All admissible chosen-line systems for empty conflict data, by scan."""
    per_target = {
        t: [
            ln
            for ln in plane.point_lines[t]
            if ln != support_line and meet(plane, ln, support_line) == t
        ]
        for t in targets
    }
    systems = set()
    pools = [per_target[t] for t in sorted(targets)]

    def rec(i, acc):
        if i == len(pools):
            systems.add(tuple(sorted(acc)))
            return
        for ln in pools[i]:
            if ln not in acc:
                rec(i + 1, acc + [ln])

    rec(0, [])
    return systems


def test_select_class_lines_q4_against_enumeration(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    targets = list(fr.majors[0][:2])
    valid = brute_force_valid_line_systems(plane, fr.supports[1], targets)
    assert len(valid) == 16  # 4 free lines per target, independent choices
    chosen = select_class_lines(plane, 0, fr.supports[1], targets, [], [], [], VertexSet())
    assert tuple(sorted(chosen)) in valid
    assert len(chosen) == len(targets)
    # deterministic, lowest admissible id per target
    again = select_class_lines(plane, 0, fr.supports[1], targets, [], [], [], VertexSet())
    assert again == chosen
    for t in targets:
        options = [ln for ln in plane.point_lines[t] if ln != fr.supports[1]]
        assert min(options) in chosen


def test_frame_dual_is_the_frame_of_the_dual_plane(plane_for):
    # relabel lines so that line 0 is the lowest line through point 0; then
    # the plane and its dual both take support (0, 0) and their frames must
    # be each other with points and lines exchanged
    planes = (plane_for(4), relabelled_plane(plane_for, 9, 3), relabelled_plane(plane_for, 16, 5))
    for plane in planes:
        rows = list(plane.line_points)
        l0 = plane.point_lines[0][0]
        rows[0], rows[l0] = rows[l0], rows[0]
        swapped = IncidencePlane(plane.q, rows)
        fr = choose_frame(swapped)
        assert fr.supports == (0, 0)
        dual_fr = choose_frame(swapped.dual())
        for field in ("supports", "majors"):
            assert getattr(dual_fr, field) == getattr(fr, field)[::-1]


@pytest.mark.parametrize("q, seed", [(2, None), (4, None), (8, None), (9, 3), (16, 5)])
def test_frame_commons_are_the_complement_of_the_support_row_and_column(plane_for, q, seed):
    # the majors are the support row and column less the support pair, read
    # one incidence bit at a time through the oracle, and with the supports
    # they leave exactly the oracle's commons
    plane = plane_for(q) if seed is None else relabelled_plane(plane_for, q, seed)
    fr = choose_frame(plane)
    p0, l0 = fr.supports
    assert incident(plane, p0, l0)
    assert fr.majors[0] == tuple(p for p in range(plane.n) if p != p0 and incident(plane, p, l0))
    assert fr.majors[1] == tuple(l for l in range(plane.n) if l != l0 and incident(plane, p0, l))
    for side, common in enumerate(commons(plane, fr)):
        assert sorted((*fr.majors[side], fr.supports[side], *common)) == list(range(plane.n))


def test_select_class_lines_on_dual_picks_points_q4(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    targets = list(fr.majors[1][:2])
    dual = plane.dual()
    chosen = select_class_lines(dual, 1, fr.supports[0], targets, [], [], [], VertexSet())
    assert len(chosen) == len(targets)
    joins = [meet(dual, pt, fr.supports[0]) for pt in chosen]
    for pt, join in zip(chosen, joins):
        assert pt in commons(plane, fr)[0]
        assert join in targets
        assert incident(plane, pt, join)
    assert sorted(joins) == sorted(targets)


def test_select_class_lines_respects_used_and_forbidden(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    t = fr.majors[0][0]
    options = [ln for ln in plane.point_lines[t] if ln != fr.supports[1]]
    used = VertexSet.from_indices(lines=options[:1])
    chosen = select_class_lines(plane, 0, fr.supports[1], [t], [], [], [], used)
    assert chosen == [options[1]]
    forbidden = options
    with pytest.raises(SelectionError, match="target point"):
        select_class_lines(plane, 0, fr.supports[1], [t], [], [], forbidden, VertexSet())


def test_point_side_selection_error_names_a_line_and_a_point(plane_for):
    # Through the dual the selector chooses points, so a stall must be
    # reported as a point missing on a line, never as a line through a point.
    plane = plane_for(4)
    fr = choose_frame(plane)
    dual, p0 = plane.dual(), fr.supports[0]
    t = fr.majors[1][0]
    options = [p for p in plane.line_points[t] if p != p0]
    stuck_target = rf"^no free point on target line L{t}: .* conflict line$"
    with pytest.raises(SelectionError, match=stuck_target):
        select_class_lines(dual, 1, p0, [t], [], [], options, VertexSet())
    u = commons(plane, fr)[1][0]
    used = VertexSet.from_indices(points=plane.line_points[u])
    stuck_conflict = rf"^no free point on conflict line L{u}: .* support point "
    with pytest.raises(SelectionError, match=stuck_conflict):
        select_class_lines(dual, 1, p0, fr.majors[1], [u], [], [], used.dual())


def test_build_h2_stalls_name_the_side_that_stalled(plane_for):
    # On a built plane point j's row is line j's, so only the kinds in the
    # text show which side build_h2 told the selector it runs.
    plane = plane_for(16)
    frame = choose_frame(plane)
    empty = ConflictGraph(((), ()), 0, ())
    # every common point used: the lines are chosen, then no point is free
    common = commons(plane, frame)
    used = VertexSet.from_indices(points=common[0])
    with pytest.raises(SelectionError, match="^no free point on target line L"):
        build_h2(plane, frame, empty, used)
    used = VertexSet.from_indices(lines=common[1])
    with pytest.raises(SelectionError, match="^no free line through target point P"):
        build_h2(plane, frame, empty, used)


def test_build_h2_rejects_a_conflict_side_too_large_for_the_searching_sets(plane_for):
    # ceil(log2 16) = 4 searching sets give 16 codewords, so 17 conflict
    # vertices of one side, the support not among them, cannot be told apart
    plane = plane_for(16)
    frame = choose_frame(plane)
    infeasible = (
        "^searching families infeasible: 4 searching sets cannot distinguish 17 elements; need 5$"
    )
    for side in (0, 1):
        members = [(), ()]
        members[side] = commons(plane, frame)[side][:17]
        conflict = ConflictGraph(tuple(members), 0, ())
        with pytest.raises(SelectionError, match=infeasible):
            build_h2(plane, frame, conflict, VertexSet())


def test_select_class_lines_conflict_requirements(plane_for):
    plane = plane_for(8)
    fr = choose_frame(plane)
    targets = list(fr.majors[0])[:4]
    u, other = commons(plane, fr)[0][:2]
    chosen = select_class_lines(plane, 0, fr.supports[1], targets, [u], [other], [], VertexSet())
    through_u = [ln for ln in chosen if incident(plane, u, ln)]
    assert len(through_u) == 1
    meets = [meet(plane, ln, fr.supports[1]) for ln in chosen]
    for ln in chosen:
        assert not incident(plane, other, ln)
    assert sorted(meets) == sorted(targets)


def test_conflict_graph_empty_when_fully_separated(plane_for):
    plane = plane_for(2)
    fr = choose_frame(plane)
    common = commons(plane, fr)
    family = [VertexSet.from_indices(points=[p]) for p in (*common[0], fr.supports[0])]
    family += [VertexSet.from_indices(lines=[l]) for l in (*common[1], fr.supports[1])]
    graph = build_conflict_graph(plane, fr, family)
    assert conflict_vertex_count(graph) == 0
    assert graph.x_edge_count == 0


def side_cliques(plane, frame, graph, side):
    """The conflict groups restricted to a side's commons and support, each
    as that side's ids, keeping the restrictions of two or more."""
    lo, domain = side * plane.n, {*commons(plane, frame)[side], frame.supports[side]}
    cut = (tuple(v - lo for v in g if v - lo in domain) for g in graph.groups)
    return tuple(sorted(c for c in cut if len(c) > 1))


def test_conflict_graph_cliques_are_pure_and_counted(plane_for):
    plane = plane_for(16)
    fr = choose_frame(plane)
    h0 = VertexSet.from_indices(points=fr.majors[0])
    family = [h0] + sample_zeta_sets(plane, fr, 6, random.Random(5))
    graph = build_conflict_graph(plane, fr, family)
    # each side's cliques are pure, and the edge count matches an
    # independent recount from the signatures of the common vertices
    expect = 0
    sides = zip(packed_signatures(plane, family), commons(plane, fr), fr.supports)
    for side, (sigs, common, support) in enumerate(sides):
        cliques = side_cliques(plane, fr, graph, side)
        assert graph.members[side] == tuple(sorted(v for c in cliques for v in c))
        for clique in cliques:
            assert set(clique) <= {*common, support}
            assert len(clique) >= 2
        expect += sum(c * (c - 1) // 2 for c in Counter(sigs[v] for v in common).values())
    assert graph.x_edge_count == expect


@pytest.mark.parametrize("q, seed, k", [(9, 1, 3), (16, None, 4), (16, 3, 4), (27, None, 6)])
def test_conflict_cliques_are_the_all_vertex_groups_restricted_to_each_side(
    q, seed, k, plane_for
):
    plane = plane_for(q) if seed is None else relabelled_plane(plane_for, q, seed)
    fr = choose_frame(plane)
    family, graph = draw_conflict(plane, fr, k, random.Random(seed or 0))
    psig, lsig = packed_signatures(plane, family)
    assert graph.groups == tuple(map(tuple, signature_groups(psig + lsig, range(2 * plane.n))))
    # the groups hold majors, which the cliques leave out
    n = plane.n
    assert any(v % n in fr.majors[v >= n] for g in graph.groups for v in g)
    # the rule the cliques had before the all-vertex groups: each side's
    # commons and support grouped by that side's signatures alone
    pairs = 0
    sides = zip((psig, lsig), commons(plane, fr), fr.supports)
    for side, (sigs, common, support) in enumerate(sides):
        domain = [*common, support]
        groups = signature_groups(list(map(sigs.__getitem__, domain)), domain)
        expect = tuple(sorted(tuple(sorted(g)) for g in groups))
        assert expect and side_cliques(plane, fr, graph, side) == expect
        assert graph.members[side] == tuple(sorted(v for c in expect for v in c))
        pairs += pair_count(len(c) - (support in c) for c in expect)
    assert graph.x_edge_count == pairs


def test_construct_q64_shape(q64):
    plane, res = q64
    assert res.k == 21 and res.l == 6
    assert res.class_count == 29
    assert res.class_count <= 4 * math.ceil(math.log2(64)) + 5
    names = res.partition.class_names()
    assert names[0] == "H0" and names[1] == "Z1" and names[22] == "S1" and names[-1] == "Hrest"
    assert is_resolving(plane, res.partition).resolving
    zetas = [f"Z{i}" for i in range(1, 22)]
    assert names == ["H0", *zetas, *(f"S{i}" for i in range(1, 7)), "Hrest"]


def searching_sets(frame, conflict, count):
    """Per searching class, its (targets, conflicts), each a (points, lines)
    pair of searching-family sets, as build_h2's docstring states them."""
    targets = [searching_family(majors, count) for majors in frame.majors]
    conflicts = [
        searching_family(c, count, {v}.intersection(c))
        for c, v in zip(conflict.members, frame.supports)
    ]
    return [([t[j] for t in targets], [c[j] for c in conflicts]) for j in range(count)]


def test_construct_h0_is_exactly_the_point_side_majors(q64):
    plane, res = q64
    fr = choose_frame(plane)
    h0 = res.partition.classes[0]
    assert h0.point_mask == plane.line_masks[fr.supports[1]] & ~(1 << fr.supports[0])
    assert h0.line_mask == 0


def test_h2_separates_majors_by_membership(q64):
    plane, res = q64
    fr = choose_frame(plane)
    searching = res.partition.classes[1 + res.k : 1 + res.k + res.l]
    targets = [searching_family(majors, res.l) for majors in fr.majors]
    for j, cls in enumerate(searching):
        for side, kind in enumerate((POINT, LINE)):
            for v in fr.majors[side]:
                d = 1 if v in targets[side][j] else 2
                assert distance_to_set(plane, VertexId(kind, v), cls) == d


def test_h2_support_coordinates_are_two(q64):
    plane, res = q64
    fr = choose_frame(plane)
    for cls in res.partition.classes[1 + res.k : 1 + res.k + res.l]:
        for kind, support in zip((POINT, LINE), fr.supports):
            assert distance_to_set(plane, VertexId(kind, support), cls) == 2


def test_h2_conflict_point_coordinates(q64):
    plane, res = q64
    fr = choose_frame(plane)
    conflict = build_conflict_graph(plane, fr, res.partition.classes[: 1 + res.k])
    searching = res.partition.classes[1 + res.k : 1 + res.k + res.l]
    for cls, (_, conflicts) in zip(searching, searching_sets(fr, conflict, res.l)):
        for side, kind in enumerate((POINT, LINE)):
            in_class = set(conflicts[side])
            for v in conflict.members[side]:
                if v == fr.supports[side]:
                    continue
                d = distance_to_set(plane, VertexId(kind, v), cls)
                if v in in_class:
                    assert d <= 1
                else:
                    assert d == 2


def test_h2_classes_disjoint_from_everything_prior(q64):
    plane, res = q64
    pm = lm = 0
    for cls in res.partition.classes:
        assert not cls.point_mask & pm and not cls.line_mask & lm
        pm |= cls.point_mask
        lm |= cls.line_mask
    full = (1 << plane.n) - 1
    assert pm == full and lm == full


def test_conflict_size_bound_when_budget_holds(q64):
    plane, res = q64
    fr = choose_frame(plane)
    family = [res.partition.classes[0]] + list(res.partition.classes[1 : 1 + res.k])
    graph = build_conflict_graph(plane, fr, family)
    assert graph.x_edge_count * 8 <= plane.q
    assert conflict_vertex_count(graph) <= plane.q / 4 + 4


def test_remainder_class_holds_support_and_major_lines(q64):
    plane, res = q64
    fr = choose_frame(plane)
    rest = res.partition.classes[-1]
    assert rest.point_mask >> fr.supports[0] & 1
    assert rest.line_mask >> fr.supports[1] & 1
    for ml in fr.majors[1]:
        assert rest.line_mask >> ml & 1


def test_frame_meet_join_map_majors_to_support(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    for side, view in enumerate((plane, plane.dual())):
        support, other = fr.supports[side], fr.supports[1 - side]
        assert all(meet(view, m, other) == support for m in fr.majors[1 - side])


def test_construct_determinism_and_metadata(plane_for):
    plane = plane_for(16)
    a = construct_partition(plane, seed=3, max_retries=10)
    b = construct_partition(plane, seed=3, max_retries=10)
    assert result_to_doc(a, plane) == result_to_doc(b, plane)
    doc = result_to_doc(a, plane)
    assert doc["metadata"] == {"q": 16, "k": 15, "l": 4, "seed": 3, "retries": a.retries}
    assert len(doc["classes"]) == a.class_count


def test_construct_too_small_orders():
    from planepart import build_plane

    plane = build_plane(8)
    with pytest.raises(ValueError, match="too small"):
        construct_partition(plane)
    with pytest.raises(ValueError, match="order too small"):
        construct_partition(plane, k=9)


def test_construct_failure_reports_obstruction(plane_for, caplog):
    plane = plane_for(4)
    caplog.set_level(logging.INFO, logger="planepart.construct")
    with pytest.raises(ConstructionError) as err:
        construct_partition(plane, seed=0, max_retries=2, k=2)
    budget = "unseparated pair budget exceeded: {} pairs among common vertices, allowed q/8 = 0.5"
    assert err.value.report() == {
        "q": 4,
        "seed": 0,
        "attempts": 3,
        "obstruction": budget.format(40),
    }
    attempts = [m for m in caplog.messages if m.startswith("attempt ")]
    assert attempts == [
        f"attempt {i} for q=4: {budget.format(pairs)}" for i, pairs in enumerate((26, 26, 40))
    ]


def test_construct_reports_a_selection_failure(plane_for, monkeypatch, caplog):
    """A SelectionError from build_h2 ends its attempt and names the last obstruction."""
    plane = plane_for(32)
    stuck = "no free line through target point P3: every candidate is used"
    calls = []

    def stall(*args):
        calls.append(args)
        raise SelectionError(stuck)

    monkeypatch.setattr(construct, "build_h2", stall)
    caplog.set_level(logging.INFO, logger="planepart.construct")
    with pytest.raises(ConstructionError) as err:
        construct_partition(plane, seed=0, max_retries=2)
    assert err.value.obstruction == stuck
    assert err.value.attempts == 3
    assert len(calls) == 3
    assert caplog.messages == [f"attempt {i} for q=32: {stuck}" for i in range(3)]


def test_construct_retries_after_a_failed_verification(plane_for, monkeypatch, caplog):
    """An assembled partition that does not verify costs one retry."""
    plane = plane_for(16)
    real = construct.is_resolving
    collide = Verdict(False, [[VertexId(POINT, 0), VertexId(POINT, 1)]])
    calls = []

    def first_collides(plane, partition, known=None):
        calls.append(partition)
        return collide if len(calls) == 1 else real(plane, partition, known)

    monkeypatch.setattr(construct, "is_resolving", first_collides)
    caplog.set_level(logging.INFO, logger="planepart.construct")
    result = construct_partition(plane, seed=0, max_retries=2)
    assert result.retries == 1
    assert "attempt 0 for q=16: verification failed: 1 colliding groups" in caplog.messages
    monkeypatch.setattr(construct, "is_resolving", lambda plane, partition, known=None: collide)
    with pytest.raises(ConstructionError) as err:
        construct_partition(plane, seed=0, max_retries=1)
    assert err.value.obstruction == "verification failed: 1 colliding groups"


@settings(max_examples=10, deadline=None)
@given(q=st.sampled_from(prime_powers(16, 49)), seed=st.integers(0, 2**32 - 1))
def test_relabelled_planes_keep_the_first_stage_contracts(plane_for, q, seed):
    plane = relabelled_plane(plane_for, q, seed)
    frame = choose_frame(plane)
    k = zeta_count(q, None)
    family, conflict = draw_conflict(plane, frame, k, random.Random(seed))

    assert len(family) == 1 + k
    majors = sum(1 << p for p in frame.majors[0])
    assert family[0].point_mask == majors and family[0].line_mask == 0
    taken_points, taken_lines = majors, 0
    for m in family[1:]:
        assert zeta_size(m) == q and bin(m.point_mask).count("1") == q // 2
        assert not m.point_mask & taken_points and not m.line_mask & taken_lines
        taken_points |= m.point_mask
        taken_lines |= m.line_mask

    # representations of the common and support vertices, from the oracle
    sides = zip(commons(plane, frame), frame.supports)
    pairs = 0
    for side, (common, support) in enumerate(sides):
        ids = [*common, support]
        id_lists = (ids, []) if side == 0 else ([], ids)
        columns = [distance_columns(plane, s, *id_lists)[side] for s in family]
        codes = dict(zip(ids, zip(*columns)))
        expect = sorted(
            tuple(sorted(v for v in ids if codes[v] == code))
            for code, size in Counter(codes.values()).items() if size > 1
        )
        assert list(side_cliques(plane, frame, conflict, side)) == expect
        pairs += sum(c * (c - 1) // 2 for c in Counter(codes[v] for v in common).values())
    assert conflict.x_edge_count == pairs

    try:
        result = construct_partition(plane, seed=seed)
    except ConstructionError:
        return
    assert is_resolving(plane, result.partition).resolving


@settings(max_examples=10, deadline=None)
@given(q=st.sampled_from(prime_powers(16, 49)), seed=st.integers(0, 2**32 - 1))
def test_relabelled_planes_keep_the_searching_class_contracts(plane_for, q, seed):
    plane = relabelled_plane(plane_for, q, seed)
    frame = choose_frame(plane)
    family, conflict = draw_conflict(plane, frame, zeta_count(q, None), random.Random(seed))
    used = family[0]
    for z in family[1:]:
        used = used | z
    try:
        classes, grown = build_h2(plane, frame, conflict, used)
    except SelectionError:
        return
    count = default_searching_count(q)
    assert len(classes) == count
    for m in classes:
        assert not m.point_mask & used.point_mask and not m.line_mask & used.line_mask
        used = used | m
    assert grown == used

    # Side 0 chose lines on the plane and side 1 points on its dual, where
    # the oracle's meet of two lines is the join of two points.
    # The picks made on view s are the other side's vertices.
    views = (plane, plane.dual())
    members = [set(c) for c in conflict.members]
    for m, (targets, conflicts) in zip(classes, searching_sets(frame, conflict, count)):
        forbidden = [c.difference(s) for c, s in zip(members, conflicts)]
        for side, chosen in enumerate((m.line_ids(), m.point_ids())):
            view, support = views[side], frame.supports[1 - side]
            assert support not in chosen
            # each target is on one chosen line; no other support point is
            assert sorted(meet(view, v, support) for v in chosen) == sorted(targets[side])
            rows = [set(view.line_points[v]) for v in chosen]
            for u in conflicts[side]:
                assert sum(u in row for row in rows) == 1
            for u in forbidden[side]:
                assert not any(u in row for row in rows)
            assert not forbidden[1 - side].intersection(chosen)
