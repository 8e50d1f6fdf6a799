import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from planepart import is_resolving
from planepart.construct import choose_frame
from planepart.metric import (
    LINE,
    POINT,
    Partition,
    VertexId,
    VertexSet,
    bfs_distance,
    distance_columns,
    distance_to_set,
    packed_signatures,
    pair_count,
    partition_from_doc,
    partition_to_doc,
    signature_groups,
    unseparated_pairs,
)

from conftest import replace_one_field


def random_partition(rng, n, m=None):
    size = 2 * n
    if m is None:
        m = rng.randint(2, size)
    order = list(range(size))
    rng.shuffle(order)
    assign = [0] * size
    for c, v in enumerate(order[:m]):
        assign[v] = c
    for v in order[m:]:
        assign[v] = rng.randrange(m)
    classes = [[] for _ in range(m)]
    for v, c in enumerate(assign):
        classes[c].append(v)
    return Partition(
        [
            VertexSet.from_indices([v for v in cls if v < n], [v - n for v in cls if v >= n])
            for cls in classes
        ]
    )


def test_distance_cases_on_frame_sets(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    h0 = VertexSet.from_indices(points=fr.major_points)
    cases = [
        (VertexId(POINT, fr.support_point), 2),
        (VertexId(POINT, fr.major_points[0]), 0),
        (VertexId(POINT, fr.common_points[0]), 2),
        (VertexId(LINE, fr.support_line), 1),
        (VertexId(LINE, fr.major_lines[0]), 3),
        (VertexId(LINE, fr.common_lines[0]), 1),
    ]
    for v, expect in cases:
        assert distance_to_set(plane, v, h0) == expect


def test_point_far_from_pure_line_class(plane_for):
    plane = plane_for(2)
    p = VertexId(POINT, 0)
    off = [li for li in range(plane.n) if not plane.incident(0, li)]
    s = VertexSet.from_indices(lines=off[:2])
    assert distance_to_set(plane, p, s) == 3


def test_line_near_mixed_class_through_incident_point(plane_for):
    plane = plane_for(2)
    ln = 0
    on = plane.line_points[ln][0]
    other_line = next(li for li in range(plane.n) if li != ln)
    s = VertexSet.from_indices(points=[on], lines=[other_line])
    assert distance_to_set(plane, VertexId(LINE, ln), s) == 1


def test_empty_set_rejected(plane_for):
    with pytest.raises(ValueError):
        distance_to_set(plane_for(2), VertexId(POINT, 0), VertexSet())


def _vertex_sets(n):
    """Nonempty sets with points only, lines only, or both."""
    side = st.integers(1, (1 << n) - 1)
    return st.one_of(
        side.map(lambda pm: VertexSet(pm, 0)),
        side.map(lambda lm: VertexSet(0, lm)),
        st.tuples(side, side).map(lambda pl: VertexSet(*pl)),
    )


def _id_subset(n):
    """Every id by default, else a subset of ids in any order."""
    return st.none() | st.permutations(range(n)).flatmap(
        lambda order: st.integers(0, n).map(lambda k: order[:k])
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_signatures_equal_the_distance_column_fold(data, plane_for):
    # families of up to 40 sets overlap freely and pack up to 80 bits
    plane = plane_for(data.draw(st.sampled_from([2, 3, 4, 5, 7, 8]), label="q"))
    n = plane.n
    size = data.draw(st.integers(0, 40), label="size")
    family = data.draw(st.lists(_vertex_sets(n), min_size=size, max_size=size), label="family")
    point_ids = data.draw(_id_subset(n), label="point_ids")
    line_ids = data.draw(_id_subset(n), label="line_ids")
    psig = [0] * (n if point_ids is None else len(point_ids))
    lsig = [0] * (n if line_ids is None else len(line_ids))
    for j, s in enumerate(family):
        pcol, lcol = distance_columns(plane, s, point_ids, line_ids)
        psig = [sig | d << 2 * j for sig, d in zip(psig, pcol)]
        lsig = [sig | d << 2 * j for sig, d in zip(lsig, lcol)]
    assert packed_signatures(plane, family, point_ids, line_ids) == (psig, lsig)
    if family:
        at = data.draw(st.integers(0, len(family)), label="empty set at")
        with_empty = family[:at] + [VertexSet()] + family[at:]
        with pytest.raises(ValueError, match="^distance to an empty set is undefined$"):
            packed_signatures(plane, with_empty, point_ids, line_ids)


@pytest.mark.parametrize("q", [2, 3])
def test_closed_form_equals_bfs_minimum(q, plane_for):
    plane = plane_for(q)
    rng = random.Random(q)
    for _ in range(10):
        partition = random_partition(rng, plane.n)
        for i in range(plane.n):
            for v in (VertexId(POINT, i), VertexId(LINE, i)):
                for cls in partition.classes:
                    best = min(bfs_distance(plane, v, w) for w in cls.vertices())
                    assert distance_to_set(plane, v, cls) == best


def test_representation_zero_exactly_in_own_class(plane_for):
    plane = plane_for(2)
    partition = random_partition(random.Random(7), plane.n, m=5)
    for i in range(plane.n):
        for v in (VertexId(POINT, i), VertexId(LINE, i)):
            zeros = [j for j, c in enumerate(partition.classes) if distance_to_set(plane, v, c) == 0]
            own = [
                j for j, c in enumerate(partition.classes)
                if (c.point_mask if v.kind == POINT else c.line_mask) >> i & 1
            ]
            assert len(own) == 1
            assert zeros == own


def test_singleton_partition_resolves(plane_for):
    plane = plane_for(2)
    classes = [VertexSet.from_indices(points=[i]) for i in range(plane.n)]
    classes += [VertexSet.from_indices(lines=[i]) for i in range(plane.n)]
    verdict = is_resolving(plane, Partition(classes))
    assert verdict.resolving
    assert verdict.collision_groups == []


def test_single_class_partition_does_not_resolve(plane_for):
    plane = plane_for(2)
    everything = VertexSet.from_indices(range(plane.n), range(plane.n))
    verdict = is_resolving(plane, Partition([everything]))
    assert not verdict.resolving
    # every vector is the single coordinate 0, so all points collide
    # pairwise and all lines collide pairwise
    pairs = {uw for g in verdict.collision_groups for uw in combinations(g, 2)}
    for i in range(plane.n):
        for j in range(i + 1, plane.n):
            assert (VertexId(POINT, i), VertexId(POINT, j)) in pairs
            assert (VertexId(LINE, i), VertexId(LINE, j)) in pairs


def test_partition_boundary_messages_are_pinned(plane_for):
    plane = plane_for(2)
    full = (1 << plane.n) - 1
    cases = [
        (Partition([VertexSet(full, 0), VertexSet(0, full)], ["a"]),
         "class name count does not match class count"),
        (Partition([VertexSet(full | 1 << plane.n, full)]), "class 0 has vertices out of range"),
    ]
    for partition, message in cases:
        with pytest.raises(ValueError) as err:
            is_resolving(plane, partition)
        assert str(err.value) == message


def test_unseparated_pairs_empty_family(plane_for):
    plane = plane_for(2)
    pairs = unseparated_pairs(plane, [])
    assert len(pairs) == 14 * 13 // 2


def test_unseparated_pairs_singletons(plane_for):
    plane = plane_for(2)
    family = [VertexSet.from_indices(points=[i]) for i in range(plane.n)]
    family += [VertexSet.from_indices(lines=[i]) for i in range(plane.n)]
    assert unseparated_pairs(plane, family) == []


def test_unseparated_pairs_h0_on_pg24(plane_for):
    plane = plane_for(4)
    fr = choose_frame(plane)
    h0 = VertexSet.from_indices(points=fr.major_points)
    pairs = unseparated_pairs(plane, [h0])
    pair_set = set(pairs)
    majors = [VertexId(POINT, p) for p in fr.major_points]
    for i in range(len(majors)):
        for j in range(i + 1, len(majors)):
            assert (majors[i], majors[j]) in pair_set
    assert all(u.kind == w.kind for u, w in pairs)


def test_unseparated_pairs_rejects_overlap(plane_for):
    plane = plane_for(2)
    a = VertexSet.from_indices(points=[0, 1])
    b = VertexSet.from_indices(points=[1, 2])
    with pytest.raises(ValueError, match="family sets 0 and 1 are not disjoint"):
        unseparated_pairs(plane, [a, b])
    # the conflict graph applies the same check
    from planepart.construct import build_conflict_graph, choose_frame

    with pytest.raises(ValueError, match="family sets 0 and 1 are not disjoint"):
        build_conflict_graph(plane, choose_frame(plane), [a, b])


def test_is_resolving_agrees_with_unseparated_pairs(plane_for):
    plane = plane_for(3)
    rng = random.Random(3)
    for _ in range(20):
        partition = random_partition(rng, plane.n)
        verdict = is_resolving(plane, partition)
        pairs = unseparated_pairs(plane, partition.classes)
        assert verdict.resolving == (pairs == [])
        assert {uw for g in verdict.collision_groups for uw in combinations(g, 2)} == set(pairs)


def test_signature_groups_first_seen_order_and_pair_count():
    groups = signature_groups([5, 1, 5, 2, 1, 5], "abcdef")
    assert groups == [["a", "c", "f"], ["b", "e"]]
    assert pair_count(map(len, groups)) == 3 + 1
    assert signature_groups([1, 2, 3], range(3)) == []


@pytest.mark.parametrize("q", [2, 3, 4])
def test_diameter_is_three(q, plane_for):
    plane = plane_for(q)
    worst = 0
    for i in range(plane.n):
        for j in range(plane.n):
            worst = max(worst, bfs_distance(plane, VertexId(POINT, i), VertexId(LINE, j)))
            if i < j:
                worst = max(worst, bfs_distance(plane, VertexId(POINT, i), VertexId(POINT, j)))
                worst = max(worst, bfs_distance(plane, VertexId(LINE, i), VertexId(LINE, j)))
    assert worst == 3


def test_bfs_examples(plane_for):
    plane = plane_for(3)
    ln = 5
    on = plane.line_points[ln][0]
    off = next(p for p in range(plane.n) if not plane.incident(p, ln))
    assert bfs_distance(plane, VertexId(POINT, on), VertexId(LINE, ln)) == 1
    assert bfs_distance(plane, VertexId(POINT, 0), VertexId(POINT, 1)) == 2
    assert bfs_distance(plane, VertexId(POINT, off), VertexId(LINE, ln)) == 3


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_splitting_a_set_never_loses_separation(data, plane_for):
    # refining one set of a disjoint family can only shrink the set of
    # unseparated pairs
    plane = plane_for(2)
    n = plane.n
    assign = data.draw(
        st.lists(st.integers(min_value=-1, max_value=3), min_size=2 * n, max_size=2 * n)
    )
    members = [[] for _ in range(4)]
    for v, c in enumerate(assign):
        if c >= 0:
            members[c].append(v)
    family = [
        VertexSet.from_indices([v for v in ms if v < n], [v - n for v in ms if v >= n])
        for ms in members
        if ms
    ]
    if not family:
        return
    idx = data.draw(st.integers(min_value=0, max_value=len(family) - 1))
    victim = family[idx]
    vertices = victim.vertices()
    if len(vertices) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(vertices) - 1))
    left = VertexSet.from_vertices(vertices[:cut])
    right = VertexSet.from_vertices(vertices[cut:])
    refined = family[:idx] + [left, right] + family[idx + 1 :]
    before = set(unseparated_pairs(plane, family))
    after = set(unseparated_pairs(plane, refined))
    assert after <= before


def test_partition_doc_roundtrip(plane_for):
    plane = plane_for(2)
    partition = random_partition(random.Random(11), plane.n, m=4)
    partition.names = ["a", "b", "c", "d"]
    doc = partition_to_doc(plane, partition)
    again = partition_from_doc(doc, plane)
    assert again.names == partition.names
    assert again.classes == partition.classes


def test_partition_doc_rejects_missing_and_duplicate_vertices(plane_for):
    plane = plane_for(2)
    partition = random_partition(random.Random(11), plane.n, m=4)
    doc = partition_to_doc(plane, partition)
    full = partition_from_doc(doc, plane)
    assert full.m == 4
    broken = partition_to_doc(plane, partition)
    broken["classes"][0]["members"] = broken["classes"][0]["members"][1:]
    with pytest.raises(ValueError):
        partition_from_doc(broken, plane)
    doubled = partition_to_doc(plane, partition)
    doubled["classes"][0]["members"].append(doubled["classes"][1]["members"][0])
    with pytest.raises(ValueError):
        partition_from_doc(doubled, plane)
    repeated = partition_to_doc(plane, partition)
    first = repeated["classes"][1]["members"][0]
    repeated["classes"][1]["members"].append(first)
    with pytest.raises(ValueError, match=f"class 'C1' lists vertex {first} more than once"):
        partition_from_doc(repeated, plane)


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"classes": 5}, "partition document must be an object with a 'classes' array"),
        ({"classes": [{"name": "x", "members": None}]}, "members of class 'x' must be an array"),
    ],
)
def test_partition_doc_rejects_non_arrays(plane_for, doc, message):
    with pytest.raises(ValueError) as err:
        partition_from_doc(doc, plane_for(2))
    assert str(err.value) == message


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_partition_from_doc_rejects_any_malformed_field_with_value_error(data, plane_for):
    plane = plane_for(2)
    doc = partition_to_doc(plane, random_partition(random.Random(3), plane.n, m=4))
    replace_one_field(doc, data)
    try:
        partition_from_doc(doc, plane)
    except ValueError:
        pass


def test_partition_doc_rejects_a_member_with_a_trailing_newline(plane_for):
    plane = plane_for(2)
    doc = partition_to_doc(plane, random_partition(random.Random(0), plane.n, m=3))
    for entry in doc["classes"]:
        entry["members"] = [f"{v}\n" if v == "L0" else v for v in entry["members"]]
    with pytest.raises(ValueError) as err:
        partition_from_doc(doc, plane)
    assert str(err.value) == "bad vertex id 'L0\\n'"


def test_non_canonical_members_load_like_canonical_ones(plane_for):
    # "P03" and "L03" miss the loader's name table and take VertexId.parse,
    # which must give the classes the canonical names give
    plane = plane_for(3)
    doc = partition_to_doc(plane, random_partition(random.Random(5), plane.n, m=5))
    canonical = partition_from_doc(doc, plane)
    for entry in doc["classes"]:
        entry["members"] = [f"{v[0]}{int(v[1:]):02d}" for v in entry["members"]]
    assert any("P03" in e["members"] for e in doc["classes"])
    assert any("L03" in e["members"] for e in doc["classes"])
    padded = partition_from_doc(doc, plane)
    assert padded.names == canonical.names
    assert padded.classes == canonical.classes


def _split_doc(points):
    return {"classes": [
        {"name": "points", "members": points},
        {"name": "lines", "members": [f"L{i}" for i in range(7)]},
    ]}


_POINTS = [f"P{i}" for i in range(7)]

# Member lists of the first class of a PG(2,2) split that the name table
# cannot resolve. Each message is the one VertexId.parse and the range and
# repeat checks give with no table, so the table must not change it.
_MEMBER_ERRORS = {
    "letter": (["X0", *_POINTS[1:]], "bad vertex id 'X0'"),
    "sign": (["P-1", *_POINTS[1:]], "bad vertex id 'P-1'"),
    "number": ([0, *_POINTS[1:]], "bad vertex id '0'"),
    "null": ([None, *_POINTS[1:]], "bad vertex id 'None'"),
    "list": ([["P0"], *_POINTS[1:]], '''bad vertex id "['P0']"'''),
    "object": ([{"P": 0}, *_POINTS[1:]], '''bad vertex id "{'P': 0}"'''),
    "beyond": (["P7", *_POINTS[1:]], "vertex P7 out of range for plane with n=7"),
    "padded beyond": (["L0007", *_POINTS[1:]], "vertex L7 out of range for plane with n=7"),
    # every member is parsed before any is range checked
    "parse first": (["P9", "X0", *_POINTS], "bad vertex id 'X0'"),
    "padded repeat": (["P01", *_POINTS[1:]], "class 'points' lists vertex P1 more than once"),
    # of two repeated vertices, the one seen first is named
    "first repeat": (["P0", "P2", "P1", "P01", "P02", *_POINTS[3:]],
                     "class 'points' lists vertex P2 more than once"),
}


@pytest.mark.parametrize("case", sorted(_MEMBER_ERRORS))
def test_members_the_table_misses_keep_their_messages(plane_for, case):
    points, message = _MEMBER_ERRORS[case]
    with pytest.raises(ValueError) as err:
        partition_from_doc(_split_doc(points), plane_for(2))
    assert str(err.value) == message


def test_partition_doc_rejects_wrong_order(plane_for):
    plane = plane_for(2)
    doc = partition_to_doc(plane, random_partition(random.Random(0), plane.n, m=3))
    doc["q"] = 3
    with pytest.raises(ValueError):
        partition_from_doc(doc, plane)
