import gc
import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

from planepart import build_plane, plane_to_doc
from planepart.galois import build_field, prime_power
from planepart.plane import load_plane, validate_axioms

from conftest import prime_powers, replace_one_field


def test_counts_q2_and_q4():
    p2 = build_plane(2)
    assert p2.n == 7
    assert all(len(pts) == 3 for pts in p2.line_points)
    p4 = build_plane(4)
    assert p4.n == 21
    assert all(len(pts) == 5 for pts in p4.line_points)


def test_incidence_by_dot_product_q3():
    p3 = build_plane(3)
    pt = p3.point_triples.index((1, 0, 0))
    ln = p3.line_triples.index((0, 0, 1))
    assert p3.incident(pt, ln)


def test_triples_are_sorted_and_canonical():
    p = build_plane(5)
    assert p.point_triples == sorted(p.point_triples)
    for t in p.point_triples:
        assert next(x for x in t if x) == 1


@pytest.mark.parametrize("q", prime_powers(2, 16))
def test_axioms_hold_for_all_built_planes(q, plane_for):
    report = validate_axioms(plane_for(q))
    assert report.ok
    assert report.violations == []


@pytest.mark.parametrize("q", prime_powers(2, 9))
def test_pair_coverage_brute_force(q, plane_for):
    # independent oracle: recount common lines per point pair from the
    # id lists, without touching the masks
    plane = plane_for(q)
    lines_of = [set() for _ in range(plane.n)]
    for li, pts in enumerate(plane.line_points):
        for p in pts:
            lines_of[p].add(li)
    for i in range(plane.n):
        for j in range(i + 1, plane.n):
            assert len(lines_of[i] & lines_of[j]) == 1


@pytest.mark.parametrize("q", prime_powers(2, 8))
def test_duality(q, plane_for):
    plane = plane_for(q)
    dual = plane.dual()
    assert validate_axioms(dual).ok
    # the dual shares the plane's lists, with the two sides swapped
    assert dual.line_points is plane.point_lines and dual.point_lines is plane.line_points
    assert dual.line_masks is plane.point_masks and dual.point_masks is plane.line_masks
    assert dual.point_triples is plane.line_triples
    assert dual.dualized and not plane.dualized
    again = dual.dual()
    assert not again.dualized
    for side in ("line_points", "point_lines", "line_masks", "point_masks"):
        assert getattr(again, side) == getattr(plane, side)


def test_single_flipped_bit_breaks_two_axioms():
    plane = build_plane(3)
    li = 4
    victim = plane.line_points[li][1]
    doc = plane_to_doc(plane)
    doc["lines"][li]["points"] = [x for x in doc["lines"][li]["points"] if x != f"P{victim}"]
    with pytest.raises(ValueError):
        load_plane(doc)
    # rebuild without validation to inspect the full report
    from planepart.plane import IncidencePlane

    line_points = [list(pts) for pts in plane.line_points]
    line_points[li].remove(victim)
    mutated = IncidencePlane(plane.q, line_points)
    report = validate_axioms(mutated)
    kinds = {v.kind for v in report.violations}
    assert not report.ok
    assert "line-size" in kinds
    assert "point-pair" in kinds


def test_empty_plane_order_undeterminable():
    from planepart.plane import IncidencePlane

    report = validate_axioms(IncidencePlane(0, []))
    assert not report.ok
    assert report.violations[0].kind == "order"
    assert "undeterminable" in report.violations[0].message


def test_roundtrip_through_json():
    plane = build_plane(2)
    doc = json.loads(json.dumps(plane_to_doc(plane)))
    again = load_plane(doc)
    assert again.q == plane.q
    assert again.line_points == plane.line_points


def test_load_rejects_two_point_line():
    doc = {
        "q": 2,
        "lines": [{"id": "L0", "points": ["P0", "P1"]}]
        + [{"id": f"L{i}", "points": ["P0", "P1", "P2"]} for i in range(1, 7)],
    }
    with pytest.raises(ValueError):
        load_plane(doc)


def test_load_rejects_lines_sharing_two_points():
    plane = build_plane(2)
    doc = plane_to_doc(plane)
    doc["lines"][1]["points"] = doc["lines"][0]["points"]
    with pytest.raises(ValueError, match="L0|L1|point"):
        load_plane(doc)


def test_load_rejects_declared_order_mismatch():
    doc = plane_to_doc(build_plane(2))
    doc["q"] = 3
    with pytest.raises(ValueError, match="declared order"):
        load_plane(doc)


def test_load_rejects_bad_ids():
    doc = plane_to_doc(build_plane(2))
    doc["lines"][0]["points"][0] = "Q0"
    with pytest.raises(ValueError, match="bad point id"):
        load_plane(doc)


def test_load_blames_a_short_line_not_the_order():
    # the order comes from the line count, so a short L0 is a line-size fault
    doc = plane_to_doc(build_plane(4))
    doc["lines"][0]["points"].pop()
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == "axiom violation (line-size): line L0 has 4 points, expected 5"
    del doc["q"]
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == "axiom violation (line-size): line L0 has 4 points, expected 5"


def test_load_rejects_line_count_of_no_order():
    doc = plane_to_doc(build_plane(2))
    del doc["lines"][6]
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == "6 lines is not q*q + q + 1 for any order q >= 1"


def test_load_rejects_points_that_are_not_an_array():
    doc = {"lines": [{"id": "L0", "points": None}]}
    with pytest.raises(ValueError, match="points of line L0 must be an array"):
        load_plane(doc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_plane_rejects_any_malformed_field_with_value_error(data):
    doc = plane_to_doc(build_plane(2))
    replace_one_field(doc, data)
    try:
        load_plane(doc)
    except ValueError:
        pass


def test_load_rejects_missing_point():
    doc = plane_to_doc(build_plane(2))
    for entry in doc["lines"]:
        entry["points"] = [x if x != "P6" else "P7" for x in entry["points"]]
    with pytest.raises(ValueError):
        load_plane(doc)


def test_non_prime_power_order_rejected():
    with pytest.raises(ValueError, match="prime power"):
        build_plane(6)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_pg2_matches_field_dot_product_oracle(q, plane_for):
    # every incidence bit agrees with a dot product taken without the
    # field's tables: products by polynomial arithmetic, sums digitwise;
    # q = 25 and 27 check every third line against all points
    plane = plane_for(q)
    f = build_field(*prime_power(q))
    p, e, elems = f.p, f.e, range(q)
    digits = [[v // p**i % p for i in range(e)] for v in elems]
    raw = [[digits[f._raw_mul(a, x)] for x in elems] for a in elems]
    for li in range(0, plane.n, 1 if q <= 16 else 3):
        a, b, c = plane.line_triples[li]
        for pi, (x, y, z) in enumerate(plane.point_triples):
            on = all((u + v + w) % p == 0 for u, v, w in zip(raw[a][x], raw[b][y], raw[c][z]))
            assert plane.incident(pi, li) == on, (li, pi)
    # the point side is the transpose of the line side, not assumed from it
    cols = [[] for _ in range(plane.n)]
    for li, pts in enumerate(plane.line_points):
        assert plane.line_masks[li] == sum(1 << pt for pt in pts)
        for pt in pts:
            cols[pt].append(li)
    assert [list(lines) for lines in plane.point_lines] == cols
    assert plane.point_masks == [sum(1 << li for li in lines) for lines in cols]


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_rows_are_untracked_tuples_over_one_id_list(source):
    # q=17 has ids above 256, which CPython does not cache
    plane = build_plane(17)
    if source == "loaded":
        plane = load_plane(plane_to_doc(plane))
    gc.collect()
    for side in (plane.line_points, plane.point_lines):
        assert all(type(row) is tuple and not gc.is_tracked(row) for row in side)
    ids = {id(v) for side in (plane.line_points, plane.point_lines) for row in side for v in row}
    assert len(ids) == plane.n
    if source == "built":
        # the polarity: point j's row is line j's row, in a separate list
        assert plane.point_lines is not plane.line_points
        assert plane.point_masks is not plane.line_masks
        assert all(map(operator.is_, plane.point_lines, plane.line_points))
        assert all(map(operator.is_, plane.point_masks, plane.line_masks))


# PG(2,3) has L0 = P1 P4 P7 P10, L1 = P0 P4 P5 P6, L2 = P3 P4 P9 P11 and
# L4 = P0 P1 P2 P3. Each edit is (line, point removed, point added).
_AXIOM_CASES = {
    # one incidence dropped: P1 leaves L4
    "dropped": (
        [(4, 1, None)],
        [
            ("line-size", "line L4 has 3 points, expected 4"),
            ("point-degree", "point P1 lies on 3 lines, expected 4"),
            ("point-pair", "points P0 and P1 lie on 0 common lines"),
            ("point-pair", "points P1 and P2 lie on 0 common lines"),
            ("point-pair", "points P1 and P3 lie on 0 common lines"),
            ("line-pair", "lines L0 and L4 meet in 0 points"),
            ("line-pair", "lines L4 and L5 meet in 0 points"),
            ("line-pair", "lines L4 and L6 meet in 0 points"),
        ],
    ),
    # one incidence moved: P1 leaves L4 and joins L2
    "moved": (
        [(4, 1, None), (2, None, 1)],
        [
            ("line-size", "line L2 has 5 points, expected 4"),
            ("line-size", "line L4 has 3 points, expected 4"),
            ("point-pair", "points P0 and P1 lie on 0 common lines"),
            ("point-pair", "points P1 and P2 lie on 0 common lines"),
            ("point-pair", "points P1 and P4 lie on 2 common lines"),
            ("point-pair", "points P1 and P9 lie on 2 common lines"),
            ("point-pair", "points P1 and P11 lie on 2 common lines"),
            ("line-pair", "lines L0 and L2 meet in 2 points"),
            ("line-pair", "lines L0 and L4 meet in 0 points"),
            ("line-pair", "lines L2 and L5 meet in 2 points"),
            ("line-pair", "lines L2 and L6 meet in 2 points"),
            ("line-pair", "lines L4 and L5 meet in 0 points"),
            ("line-pair", "lines L4 and L6 meet in 0 points"),
        ],
    ),
    # two points swapped: P1 moves from L0 to L1 and P5 from L1 to L0, so
    # sizes and degrees hold and both pair axioms break
    "swapped": (
        [(0, 1, 5), (1, 5, 1)],
        [
            ("point-pair", "points P0 and P1 lie on 2 common lines"),
            ("point-pair", "points P0 and P5 lie on 0 common lines"),
            ("point-pair", "points P1 and P6 lie on 2 common lines"),
            ("point-pair", "points P1 and P7 lie on 0 common lines"),
            ("point-pair", "points P1 and P10 lie on 0 common lines"),
            ("point-pair", "points P5 and P6 lie on 0 common lines"),
            ("point-pair", "points P5 and P7 lie on 2 common lines"),
            ("point-pair", "points P5 and P10 lie on 2 common lines"),
            ("line-pair", "lines L0 and L4 meet in 0 points"),
            ("line-pair", "lines L0 and L5 meet in 0 points"),
            ("line-pair", "lines L0 and L9 meet in 2 points"),
            ("line-pair", "lines L0 and L12 meet in 2 points"),
            ("line-pair", "lines L1 and L4 meet in 2 points"),
            ("line-pair", "lines L1 and L5 meet in 2 points"),
            ("line-pair", "lines L1 and L9 meet in 0 points"),
            ("line-pair", "lines L1 and L12 meet in 0 points"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(_AXIOM_CASES))
def test_axiom_messages_are_pinned(case):
    from planepart.plane import IncidencePlane

    edits, expected = _AXIOM_CASES[case]
    line_points = [list(pts) for pts in build_plane(3).line_points]
    for li, removed, added in edits:
        if removed is not None:
            line_points[li].remove(removed)
        if added is not None:
            line_points[li].append(added)
    mutated = IncidencePlane(3, line_points)
    report = validate_axioms(mutated)
    assert [(v.kind, v.message) for v in report.violations] == expected
    first = validate_axioms(mutated, fail_fast=True).violations
    assert [(v.kind, v.message) for v in first] == expected[:1]
    kind, message = expected[0]
    with pytest.raises(ValueError) as err:
        load_plane(plane_to_doc(mutated))
    assert str(err.value) == f"axiom violation ({kind}): {message}"
