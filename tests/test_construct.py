import logging
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from planepart import construct, construct_partition, is_resolving
from planepart.construct import (
    ConstructionError,
    SelectionError,
    build_conflict_graph,
    choose_frame,
    default_searching_count,
    default_zeta_count,
    expected_unseparated_bound,
    min_free_lines,
    result_to_doc,
    sample_zeta_sets,
    searching_family,
    select_class_lines,
    separation_probability_bound,
)
from planepart.metric import LINE, POINT, Verdict, VertexId, VertexSet


@pytest.fixture(scope="module")
def q64(plane_for):
    plane = plane_for(64)
    return plane, construct_partition(plane, seed=7, max_retries=20)


def test_frame_counts_q2(plane_for):
    fr = choose_frame(plane_for(2))
    assert fr.support_point == 0
    assert len(fr.major_points) == 2
    assert len(fr.major_lines) == 2
    assert len(fr.common_points) == 4
    assert len(fr.common_lines) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_common_vertex_count_is_2q_squared(q, plane_for):
    fr = choose_frame(plane_for(q))
    assert len(fr.common_points) + len(fr.common_lines) == 2 * q * q


def test_frame_override(plane_for):
    plane = plane_for(3)
    ln = plane.point_lines[5][0]
    fr = choose_frame(plane, (5, ln))
    assert fr.support_point == 5 and fr.support_line == ln
    bad = next(li for li in range(plane.n) if not plane.incident(5, li))
    with pytest.raises(ValueError):
        choose_frame(plane, (5, bad))


def test_frame_meet_and_join_tables(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    for ln in fr.common_lines:
        meet = fr.line_meet[ln]
        assert meet in fr.major_points
        assert plane.incident(meet, ln)
    for p in fr.common_points:
        join = fr.point_join[p]
        assert join in fr.major_lines
        assert plane.incident(p, join)


@pytest.mark.parametrize("q", [4, 5, 16])
def test_zeta_sets_have_size_q(q, plane_for):
    plane = plane_for(q)
    fr = choose_frame(plane)
    zetas = sample_zeta_sets(plane, fr, min(3, q), random.Random(1))
    for z in zetas:
        assert z.size() == q
        assert len(z.point_half) == q // 2
        assert len(z.line_half) == q - q // 2


def test_zeta_geometry(plane_for):
    plane = plane_for(5)
    fr = choose_frame(plane)
    for z in sample_zeta_sets(plane, fr, 4, random.Random(3)):
        for p in z.point_half:
            assert plane.incident(p, z.base_line)
            assert p != fr.support_point
        for ln in z.line_half:
            assert plane.incident(z.base_point, ln)
            assert ln not in fr.major_lines and ln != fr.support_line


def test_zeta_counts_and_error():
    from planepart import build_plane

    with pytest.raises(ValueError, match="order too small"):
        plane = build_plane(8)
        sample_zeta_sets(plane, choose_frame(plane), 12, random.Random(0))
    assert default_zeta_count(16) == 15
    assert default_zeta_count(8) == 12
    assert default_zeta_count(64) == 21
    assert default_zeta_count(128) == 24
    assert default_searching_count(64) == 6


def test_zeta_disjointness_100_seeds(plane_for):
    plane = plane_for(16)
    fr = choose_frame(plane)
    h0_points = plane.line_masks[fr.support_line] & ~(1 << fr.support_point)
    for seed in range(100):
        zetas = sample_zeta_sets(plane, fr, 15, random.Random(seed))
        pm = lm = 0
        for z in zetas:
            m = z.members()
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
    sets = searching_family(fr.major_points, 4)
    codes = {p: tuple(int(p in s) for s in sets) for p in fr.major_points}
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
    with pytest.raises(ValueError, match="domain"):
        searching_family([1, 2], 2, excluded=[9])


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


def brute_force_valid_line_systems(plane, fr, targets):
    """All admissible chosen-line systems for empty conflict data, by scan."""
    per_target = {
        t: [
            ln
            for ln in plane.point_lines[t]
            if ln != fr.support_line and fr.line_meet[ln] == t
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
    targets = list(fr.major_points[:2])
    valid = brute_force_valid_line_systems(plane, fr, targets)
    assert len(valid) == 16  # 4 free lines per target, independent choices
    chosen = select_class_lines(plane, fr, targets, [], [], [], VertexSet())
    assert tuple(sorted(chosen)) in valid
    assert len(chosen) == len(targets)
    # deterministic, lowest admissible id per target
    again = select_class_lines(plane, fr, targets, [], [], [], VertexSet())
    assert again == chosen
    for t in targets:
        options = [ln for ln in plane.point_lines[t] if ln != fr.support_line]
        assert min(options) in chosen


def test_frame_dual_is_the_frame_of_the_dual_plane(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    assert fr.dual() == choose_frame(plane.dual(), (fr.support_line, fr.support_point))
    assert fr.dual().dual() == fr


def test_select_class_lines_on_dual_picks_points_q4(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    targets = list(fr.major_lines[:2])
    chosen = select_class_lines(plane.dual(), fr.dual(), targets, [], [], [], VertexSet())
    assert len(chosen) == len(targets)
    for pt in chosen:
        assert pt in fr.common_points
        assert fr.point_join[pt] in targets
    joins = [fr.point_join[pt] for pt in chosen]
    assert sorted(joins) == sorted(targets)


def test_select_class_lines_respects_used_and_forbidden(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    t = fr.major_points[0]
    options = [ln for ln in plane.point_lines[t] if ln != fr.support_line]
    used = VertexSet.from_indices(lines=options[:1])
    chosen = select_class_lines(plane, fr, [t], [], [], [], used)
    assert chosen == [options[1]]
    forbidden = options
    with pytest.raises(SelectionError, match="target point"):
        select_class_lines(plane, fr, [t], [], [], forbidden, VertexSet())


def test_point_side_selection_error_names_a_line_and_a_point(plane_for):
    # Through the dual the selector chooses points, so a stall must be
    # reported as a point missing on a line, never as a line through a point.
    plane = plane_for(4)
    fr = choose_frame(plane)
    dual, dual_fr = plane.dual(), fr.dual()
    t = fr.major_lines[0]
    options = [p for p in plane.line_points[t] if p != fr.support_point]
    stuck_target = rf"^no free point on target line L{t}: .* conflict line$"
    with pytest.raises(SelectionError, match=stuck_target):
        select_class_lines(dual, dual_fr, [t], [], [], options, VertexSet())
    u = fr.common_lines[0]
    used = VertexSet.from_indices(points=plane.line_points[u])
    stuck_conflict = rf"^no free point on conflict line L{u}: .* support point "
    with pytest.raises(SelectionError, match=stuck_conflict):
        select_class_lines(dual, dual_fr, fr.major_lines, [u], [], [], used.dual())


def test_select_class_lines_conflict_requirements(plane_for):
    plane = plane_for(8)
    fr = choose_frame(plane)
    targets = list(fr.major_points)[:4]
    u, other = fr.common_points[0], fr.common_points[1]
    chosen = select_class_lines(plane, fr, targets, [u], [other], [], VertexSet())
    through_u = [ln for ln in chosen if plane.incident(u, ln)]
    assert len(through_u) == 1
    for ln in chosen:
        assert not plane.incident(other, ln)
        assert fr.line_meet[ln] in targets
    meets = [fr.line_meet[ln] for ln in chosen]
    assert sorted(meets) == sorted(targets)


def test_conflict_graph_empty_when_fully_separated(plane_for):
    plane = plane_for(2)
    fr = choose_frame(plane)
    family = [VertexSet.from_indices(points=[p]) for p in fr.common_points]
    family += [VertexSet.from_indices(lines=[l]) for l in fr.common_lines]
    family.append(VertexSet.from_indices(points=[fr.support_point]))
    family.append(VertexSet.from_indices(lines=[fr.support_line]))
    graph = build_conflict_graph(plane, fr, family)
    assert graph.vertex_count == 0
    assert graph.x_edge_count == 0


def test_conflict_graph_cliques_are_pure_and_counted(plane_for):
    plane = plane_for(16)
    fr = choose_frame(plane)
    h0 = VertexSet.from_indices(points=fr.major_points)
    zetas = sample_zeta_sets(plane, fr, 6, random.Random(5))
    family = [h0] + [z.members() for z in zetas]
    graph = build_conflict_graph(plane, fr, family)
    commons_p = set(fr.common_points) | {fr.support_point}
    for clique in graph.point_cliques:
        assert set(clique) <= commons_p
        assert len(clique) >= 2
    # edge count matches an independent recount from the cliques
    from planepart.metric import packed_signatures

    psig, lsig = packed_signatures(
        plane, family, list(fr.common_points), list(fr.common_lines)
    )
    expect = 0
    for sig_list in (psig, lsig):
        seen = {}
        for s in sig_list:
            seen[s] = seen.get(s, 0) + 1
        expect += sum(c * (c - 1) // 2 for c in seen.values())
    assert graph.x_edge_count == expect


def test_conflict_graph_rejects_overlapping_family(plane_for):
    plane = plane_for(2)
    fr = choose_frame(plane)
    a = VertexSet.from_indices(points=[fr.common_points[0]])
    with pytest.raises(ValueError):
        build_conflict_graph(plane, fr, [a, a])


def test_construct_q64_shape(q64):
    plane, res = q64
    assert res.k == 21 and res.l == 6
    assert res.class_count == 29
    assert res.class_count <= 4 * math.ceil(math.log2(64)) + 5
    names = res.partition.class_names()
    assert names[0] == "H0" and names[1] == "Z1" and names[22] == "S1" and names[-1] == "Hrest"
    assert is_resolving(plane, res.partition).resolving
    roles = res.roles()
    assert roles["H0"] == "major-points" and roles["Hrest"] == "remainder"


def test_construct_h0_is_exactly_the_major_points(q64):
    plane, res = q64
    fr = res.frame
    h0 = res.partition.classes[0]
    assert h0.point_mask == plane.line_masks[fr.support_line] & ~(1 << fr.support_point)
    assert h0.line_mask == 0


def test_h2_separates_major_points_by_membership(q64):
    plane, res = q64
    fr = res.frame
    for j, spec in enumerate(res.h2):
        cls = res.partition.classes[1 + res.k + j]
        for p in fr.major_points:
            d = 1 if p in spec.targets_points else 2
            from planepart.metric import distance_to_set

            assert distance_to_set(plane, VertexId(POINT, p), cls) == d
        for ln in fr.major_lines:
            d = 1 if ln in spec.targets_lines else 2
            assert distance_to_set(plane, VertexId(LINE, ln), cls) == d


def test_h2_support_coordinates_are_two(q64):
    plane, res = q64
    fr = res.frame
    from planepart.metric import distance_to_set

    for j in range(res.l):
        cls = res.partition.classes[1 + res.k + j]
        assert distance_to_set(plane, VertexId(POINT, fr.support_point), cls) == 2
        assert distance_to_set(plane, VertexId(LINE, fr.support_line), cls) == 2


def test_h2_conflict_point_coordinates(q64):
    plane, res = q64
    fr = res.frame
    h0 = res.partition.classes[0]
    zclasses = res.partition.classes[1 : 1 + res.k]
    conflict = build_conflict_graph(plane, fr, [h0] + list(zclasses))
    from planepart.metric import distance_to_set

    for j, spec in enumerate(res.h2):
        cls = res.partition.classes[1 + res.k + j]
        q_set = set(spec.conflict_points)
        for p in conflict.points:
            if p == fr.support_point:
                continue
            d = distance_to_set(plane, VertexId(POINT, p), cls)
            if p in q_set:
                assert d <= 1
            else:
                assert d == 2
        r_set = set(spec.conflict_lines)
        for ln in conflict.lines:
            if ln == fr.support_line:
                continue
            d = distance_to_set(plane, VertexId(LINE, ln), cls)
            if ln in r_set:
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
    fr = res.frame
    family = [res.partition.classes[0]] + list(res.partition.classes[1 : 1 + res.k])
    graph = build_conflict_graph(plane, fr, family)
    assert graph.x_edge_count * 8 <= plane.q
    assert graph.vertex_count <= plane.q / 4 + 4


def test_remainder_class_holds_support_and_major_lines(q64):
    plane, res = q64
    fr = res.frame
    rest = res.partition.classes[-1]
    assert rest.point_mask >> fr.support_point & 1
    assert rest.line_mask >> fr.support_line & 1
    for ml in fr.major_lines:
        assert rest.line_mask >> ml & 1


def test_frame_meet_join_map_majors_to_support(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    assert all(fr.line_meet[ml] == fr.support_point for ml in fr.major_lines)
    assert all(fr.point_join[mp] == fr.support_line for mp in fr.major_points)
    assert fr.line_meet[fr.support_line] == fr.support_point
    assert fr.point_join[fr.support_point] == fr.support_line


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


def test_construct_failure_reports_obstruction(plane_for):
    plane = plane_for(4)
    with pytest.raises(ConstructionError) as err:
        construct_partition(plane, seed=0, max_retries=2, k=2)
    report = err.value.report()
    assert report["attempts"] == 3
    assert report["obstruction"]
    assert report["q"] == 4


def test_construct_retries_after_a_failed_verification(plane_for, monkeypatch, caplog):
    """An assembled partition that does not verify costs one retry."""
    plane = plane_for(16)
    real = construct.is_resolving
    collide = Verdict(False, [[VertexId(POINT, 0), VertexId(POINT, 1)]])
    calls = []

    def first_collides(plane, partition):
        calls.append(partition)
        return collide if len(calls) == 1 else real(plane, partition)

    monkeypatch.setattr(construct, "is_resolving", first_collides)
    caplog.set_level(logging.INFO, logger="planepart.construct")
    result = construct_partition(plane, seed=0, max_retries=2)
    assert result.retries == 1
    assert "attempt 0 for q=16: verification failed: 1 colliding groups" in caplog.messages
    monkeypatch.setattr(construct, "is_resolving", lambda plane, partition: collide)
    with pytest.raises(ConstructionError) as err:
        construct_partition(plane, seed=0, max_retries=1)
    assert err.value.obstruction == "verification failed: 1 colliding groups"
