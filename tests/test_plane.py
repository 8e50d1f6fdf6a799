import gc
import hashlib
import json
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from itertools import chain, combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from planepart import build_plane, is_resolving, plane_to_doc
from planepart.galois import build_field, prime_power
from planepart.metric import partition_from_doc
from planepart import plane as plane_mod
from planepart.plane import IncidencePlane, load_plane, read_plane, validate_axioms

from conftest import prime_powers, relabelled, replace_one_field
from oracles import incident, pg2_triples


def _load_counting_checks(doc, load=load_plane):
    """``load(doc)`` and how often it ran ``validate_axioms``: 0 when it
    returned the plane built for a canonical text, 1 when it took the full
    loader."""
    with mock.patch("planepart.plane.validate_axioms", wraps=validate_axioms) as check:
        plane = load(doc)
    return plane, check.call_count


def test_counts_q2_and_q4():
    p2 = build_plane(2)
    assert p2.n == 7
    assert all(len(pts) == 3 for pts in p2.line_points)
    p4 = build_plane(4)
    assert p4.n == 21
    assert all(len(pts) == 5 for pts in p4.line_points)


def test_incidence_by_dot_product_q3():
    p3 = build_plane(3)
    triples = pg2_triples(3)
    assert incident(p3, triples.index((1, 0, 0)), triples.index((0, 0, 1)))


@pytest.mark.parametrize("q", prime_powers(2, 81))
def test_axioms_hold_for_all_built_planes(q, plane_for):
    # read_plane returns the built plane for its canonical text without
    # checking the axioms, so the built planes must pass them
    validate_axioms(plane_for(q))


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
    validate_axioms(dual)
    # the dual shares the plane's lists, with the two sides swapped
    assert dual.line_points is plane.point_lines and dual.point_lines is plane.line_points
    assert dual.line_masks is plane.point_masks and dual.point_masks is plane.line_masks
    again = dual.dual()
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
    # rebuild without loading: the first violation is the short line
    line_points = [list(pts) for pts in plane.line_points]
    line_points[li].remove(victim)
    mutated = IncidencePlane(plane.q, line_points)
    with pytest.raises(ValueError, match=r"^axiom violation \(line-size\): line L4 "):
        validate_axioms(mutated)


def test_a_plane_too_large_to_hold_is_refused_before_anything_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            build_plane(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "plane of order 512 needs about 10.3 GB to hold, above the limit of 4.29 GB"
    )
    assert peak < 1 << 20
    n = 512 * 512 + 512 + 1
    with mock.patch.object(plane_mod, "build_field", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match="^plane of order 512 needs about 10.3 GB"):
            load_plane({"lines": [{}] * n})
        for q in (1024, 1021 * 1021):
            with pytest.raises(ValueError, match=f"^plane of order {q} needs about"):
                build_plane(q)


def test_every_order_up_to_401_is_small_enough_to_build():
    orders = prime_powers(2, 409)
    for q in orders[:-1]:
        plane_mod._check_plane_bytes(q)
    assert orders[-2:] == [401, 409]
    with pytest.raises(ValueError, match="^plane of order 409 needs about 4.31 GB"):
        plane_mod._check_plane_bytes(409)


def test_empty_plane_order_undeterminable():
    with pytest.raises(ValueError) as err:
        validate_axioms(IncidencePlane(0, []))
    assert str(err.value) == "axiom violation (order): order undeterminable: plane has no lines"
    with pytest.raises(ValueError) as err:
        validate_axioms(IncidencePlane(3, build_plane(2).line_points))
    assert str(err.value) == "axiom violation (order): 7 lines but order 3 requires 13"


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


def test_load_rejects_ids_with_a_trailing_newline():
    doc = plane_to_doc(build_plane(2))
    doc["lines"][0]["points"][0] = "P5\n"
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == "bad point id 'P5\\n' on line L0"
    doc = plane_to_doc(build_plane(2))
    doc["lines"][1]["id"] = "L1\n"
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == "bad line id 'L1\\n'"


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


def test_load_rejects_order_one():
    # a triangle has 3 = 1*1 + 1 + 1 lines of 2 points, but no plane has order 1
    doc = {"lines": [{"id": f"L{i}", "points": [f"P{a}", f"P{b}"]}
                     for i, (a, b) in enumerate([(0, 1), (1, 2), (0, 2)])]}
    for declared in (False, True):
        if declared:
            doc["q"] = 1
        with pytest.raises(ValueError) as err:
            load_plane(doc)
        assert str(err.value) == "plane order must be at least 2, got 1"


def _reversed_doc(plane):
    """The plane's document with Pi and Li renamed P(n-1-i) and L(n-1-i), so
    that it is not the built plane and loads through the general path."""
    back = range(plane.n - 1, -1, -1)
    return relabelled(plane_to_doc(plane), back, back)


def test_q64_document_loads(plane_for):
    # the pair checks are O(nq) on a valid plane; the n*n/2 pair scan took
    # about 9 s at this order, so a return to it shows in the test durations
    plane = plane_for(64)
    loaded, checks = _load_counting_checks(_reversed_doc(plane))
    assert checks == 1
    last = plane.n - 1
    assert loaded.line_points[::-1] == [
        tuple(sorted(last - p for p in pts)) for pts in plane.line_points
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_only_the_built_incidence_skips_the_general_loader(data):
    q = data.draw(st.sampled_from(prime_powers(2, 9)), label="q")
    plane = build_plane(q)
    n = plane.n
    # the canonical text reads as the built plane; its document takes the
    # general loader and loads the built incidence
    text = _canonical(plane_to_doc(plane))
    read, checks = _load_counting_checks(text, read_plane)
    assert checks == 0
    canonical, checks = _load_counting_checks(plane_to_doc(plane))
    assert checks == 1
    for side in ("line_points", "point_lines", "line_masks", "point_masks"):
        assert getattr(read, side) == getattr(plane, side)
        assert getattr(canonical, side) == getattr(plane, side)
    # so does one with its entries in any order
    order = data.draw(st.permutations(range(n)), label="entries")
    doc = plane_to_doc(plane)
    doc["lines"] = [doc["lines"][i] for i in order]
    shuffled, checks = _load_counting_checks(doc)
    assert checks == 1
    assert shuffled.line_points == plane.line_points
    # a relabelled one takes the general path, and so does its text unless
    # it is the canonical text
    points = data.draw(st.permutations(range(n)), label="points")
    lines = data.draw(st.permutations(range(n)), label="lines")
    rows = [None] * n
    for li, pts in enumerate(plane.line_points):
        rows[lines[li]] = tuple(points[p] for p in pts)
    loaded, checks = _load_counting_checks(relabelled(plane_to_doc(plane), points, lines))
    assert checks == 1
    assert loaded.line_points == [tuple(sorted(r)) for r in rows]
    moved_text = _canonical(relabelled(plane_to_doc(plane), points, lines))
    read, checks = _load_counting_checks(moved_text, read_plane)
    assert checks == (moved_text != text)
    assert read.line_points == loaded.line_points
    # and a relabelled partition gets the relabelled verdict
    t = data.draw(st.integers(1, 16), label="classes")
    labels = data.draw(st.lists(st.integers(0, t - 1), min_size=2 * n, max_size=2 * n))
    classes = {}
    for v, c in enumerate(labels):
        classes.setdefault(c, []).append(f"P{v}" if v < n else f"L{v - n}")
    doc = {"q": q, "classes": [{"name": f"C{c}", "members": m} for c, m in classes.items()]}
    moved = relabelled(doc, points, lines)
    rename = dict(zip(chain.from_iterable(c["members"] for c in doc["classes"]),
                      chain.from_iterable(c["members"] for c in moved["classes"])))
    before = is_resolving(plane, partition_from_doc(doc, plane))
    after = is_resolving(loaded, partition_from_doc(moved, loaded))
    assert after.resolving == before.resolving
    assert {frozenset(map(str, g)) for g in after.collision_groups} == {
        frozenset(rename[str(v)] for v in g) for g in before.collision_groups
    }
    # one incidence moved, point a of a line replaced by a point b off it,
    # leaves a on q lines and b on q+2; the message names the lower id
    li = data.draw(st.integers(0, n - 1), label="moved line")
    doc = plane_to_doc(plane)
    names = doc["lines"][li]["points"]
    at = data.draw(st.integers(0, q), label="moved position")
    off = sorted(set(range(n)) - set(plane.line_points[li]))
    b = data.draw(st.sampled_from(off), label="point off the line")
    a, names[at] = int(names[at][1:]), f"P{b}"
    first, degree = min((a, q), (b, q + 2))
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == (
        f"axiom violation (point-degree): point P{first} lies on {degree} lines, expected {q + 1}"
    )


def _load_spied(doc, load=load_plane):
    """``load(doc)`` (or the ValueError it raised) and a count of what it
    ran: ``builds`` calls of ``build_pg2``, ``parses`` of a line's names one
    by one, ``sorts`` of all rows by ``_rows_and_cols``, and ``masks``, the
    ``bitmask`` and ``IncidencePlane._set`` calls made outside ``build_pg2``,
    which only a plane built from parsed rows makes. ``built`` is the plane
    the build returned."""
    calls = {"builds": 0, "parses": 0, "sorts": 0, "masks": 0, "built": None}
    building = []
    real_build = plane_mod.build_pg2
    real_bitmask, real_set = plane_mod.bitmask, IncidencePlane._set

    def build(f):
        calls["builds"] += 1
        building.append(True)
        try:
            calls["built"] = real_build(f)
        finally:
            building.pop()
        return calls["built"]

    def outside_build(fn):
        def spy(*args, **kwargs):
            calls["masks"] += not building
            return fn(*args, **kwargs)
        return spy

    def counting(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    parse, sort = plane_mod._point_ids, plane_mod._rows_and_cols
    with mock.patch.object(plane_mod, "build_pg2", build), \
            mock.patch.object(plane_mod, "bitmask", outside_build(real_bitmask)), \
            mock.patch.object(IncidencePlane, "_set", outside_build(real_set)), \
            mock.patch.object(plane_mod, "_point_ids", counting("parses", parse)), \
            mock.patch.object(plane_mod, "_rows_and_cols", counting("sorts", sort)):
        try:
            result = load(doc)
        except ValueError as err:
            result = err
    return result, calls


def _padded(doc):
    for entry in doc["lines"]:
        entry["id"] = f"L{int(entry['id'][1:]):04d}"
        entry["points"] = [f"P{int(p[1:]):04d}" for p in entry["points"]]
    return doc


def _shuffled(doc):
    random.Random(0).shuffle(doc["lines"])
    assert doc["lines"][0]["id"] != "L0"
    return doc


@pytest.mark.parametrize("edit", [_padded, _shuffled])
@pytest.mark.parametrize("q", [4, 32])
def test_padded_and_shuffled_documents_load_as_the_built_plane_with_one_build(q, edit):
    # the loader builds no plane to compare with: every line is parsed and
    # the full loader runs, and the one build is the reference plane below
    doc = edit(plane_to_doc(build_plane(q)))
    plane, calls = _load_spied(doc)
    assert calls["builds"] == 0
    assert calls["parses"] == plane.n and calls["sorts"] == 1 and calls["masks"] > 0
    built = build_plane(q)
    for side in ("line_points", "point_lines", "line_masks", "point_masks"):
        assert getattr(plane, side) == getattr(built, side)


def _moved_incidence(q):
    """PG(2,q)'s document with the first point of L1 replaced by the first
    point off L1, so every line keeps q+1 points and two degrees break."""
    doc = plane_to_doc(build_plane(q))
    pts = doc["lines"][1]["points"]
    pts[0] = next(f"P{p}" for p in range(q * q + q + 1) if f"P{p}" not in pts)
    return doc


def _one_short_line(q):
    doc = plane_to_doc(build_plane(q))
    doc["lines"][3]["points"].pop()
    return doc


@pytest.mark.parametrize(
    "make, q, message",
    [
        (_moved_incidence, 4, "(point-degree): point P0 lies on 4 lines, expected 5"),
        (_moved_incidence, 32, "(point-degree): point P0 lies on 32 lines, expected 33"),
        (_one_short_line, 4, "(line-size): line L3 has 4 points, expected 5"),
        (_one_short_line, 32, "(line-size): line L3 has 32 points, expected 33"),
    ],
    ids=["moved-4", "moved-32", "short-4", "short-32"],
)
def test_size_faults_are_reported_before_any_mask(make, q, message):
    err, calls = _load_spied(make(q))
    assert isinstance(err, ValueError)
    assert str(err) == f"axiom violation {message}"
    # no plane is built and every line is parsed, but no row is sorted and
    # no mask is built
    assert calls["builds"] == 0 and calls["parses"] == q * q + q + 1
    assert calls["sorts"] == 0 and calls["masks"] == 0


def _cyclic_43_lines():
    """43 lines, which fit q=6, a line count with no PG(2,q): the cyclic
    lines {Pi, ..., Pi+6} mod 43 keep every size and degree at 7."""
    n = 43
    return {
        "lines": [
            {"id": f"L{i}", "points": [f"P{(i + j) % n}" for j in range(7)]} for i in range(n)
        ]
    }


def test_a_line_count_of_an_order_with_no_field_takes_the_full_loader_unbuilt():
    # 6 is not a prime power, so the sizes hold and the full loader sorts,
    # builds the masks and reaches the point-pair check.
    err, calls = _load_spied(_cyclic_43_lines())
    assert isinstance(err, ValueError)
    assert str(err) == "axiom violation (point-pair): points P0 and P1 lie on 6 common lines"
    assert calls["builds"] == 0 and calls["parses"] == 43
    assert calls["sorts"] == 1 and calls["masks"] > 0


def _bad_point_name(q):
    """PG(2,q)'s document, its shape kept, with a point name no id parses from."""
    doc = plane_to_doc(build_plane(q))
    doc["lines"][2]["points"][1] = "Q1"
    return doc


# Documents of PG(2,q)'s shape: every count of lines and points is PG(2,q)'s.
_PG_SHAPED = {
    "canonical": lambda q: plane_to_doc(build_plane(q)),
    "shuffled": lambda q: _shuffled(plane_to_doc(build_plane(q))),
    "padded": lambda q: _padded(plane_to_doc(build_plane(q))),
    "moved": _moved_incidence,
    "short": _one_short_line,
    "malformed": _bad_point_name,
}


@pytest.mark.parametrize("case", list(_PG_SHAPED))
@pytest.mark.parametrize("q", [4, 32])
def test_the_loader_builds_no_plane(case, q):
    # every document, PG(2,q)'s own included, is parsed, not compared with a built plane
    result, calls = _load_spied(_PG_SHAPED[case](q))
    assert calls["builds"] == 0
    if case == "malformed":
        assert str(result) == "bad point id 'Q1' on line L2"
    else:
        assert calls["parses"] == q * q + q + 1


def test_load_rejects_points_that_are_not_an_array():
    doc = {"lines": [{"id": "L0", "points": None}]}
    with pytest.raises(ValueError, match="points of line L0 must be an array"):
        load_plane(doc)


def _fano_with_line_id(pos, line_id):
    doc = plane_to_doc(build_plane(2))
    doc["lines"][pos]["id"] = line_id
    return doc


# Each edit renames L0 of PG(2,2); the messages are those of the per-name
# pattern, and a point name, which the table holds, is still no line id.
_LINE_ID_ERRORS = {
    "point": ("P3", "bad line id 'P3'"),
    "padded point": ("P03", "bad line id 'P03'"),
    "number": (3, "bad line id 3"),
    "null": (None, "bad line id None"),
    "padded repeat": ("L03", "duplicate line id L3"),
    "padded beyond": ("L0007", "line id L7 out of range for 7 lines"),
}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "plane document must be an object with a 'lines' array"),
        ({"q": 2}, "plane document must be an object with a 'lines' array"),
        (_fano_with_line_id(0, "L7"), "line id L7 out of range for 7 lines"),
        (_fano_with_line_id(1, "L0"), "duplicate line id L0"),
        *[(_fano_with_line_id(0, line_id), message)
          for line_id, message in _LINE_ID_ERRORS.values()],
    ],
    ids=["array", "no-lines", "line-beyond", "line-twice", *_LINE_ID_ERRORS],
)
def test_load_boundary_messages_are_pinned(doc, message):
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == message


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
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == "point ids must be exactly P0..P6; missing [6]; unexpected [7]"


def test_non_canonical_names_load_like_canonical_ones():
    # "P007" and "L01" miss the loader's name table and take the per-name
    # pattern, which must give the plane the canonical names give
    doc = plane_to_doc(build_plane(4))
    canonical = load_plane(doc)
    for entry in doc["lines"]:
        entry["id"] = f"L{int(entry['id'][1:]):02d}"
        entry["points"] = [f"P{int(p[1:]):03d}" for p in entry["points"]]
    assert doc["lines"][1] == {"id": "L01", "points": ["P000", "P005", "P006", "P007", "P008"]}
    padded = load_plane(doc)
    assert padded.line_points == canonical.line_points
    assert padded.point_lines == canonical.point_lines
    assert padded.line_masks == canonical.line_masks
    assert padded.point_masks == canonical.point_masks


# Each edit puts one point name on L0 of PG(2,2) (P1 P3 P5 before) that the
# name table cannot resolve. Each message is the one the per-name pattern
# gives with no table, so the table must not change it.
_POINT_NAME_ERRORS = {
    "letter": ("Q1", "bad point id 'Q1' on line L0"),
    "sign": ("P-1", "bad point id 'P-1' on line L0"),
    "number": (1, "bad point id 1 on line L0"),
    "null": (None, "bad point id None on line L0"),
    "list": (["P1"], "bad point id ['P1'] on line L0"),
    "object": ({"P": 1}, "bad point id {'P': 1} on line L0"),
    # ids of n or more parse, and the coverage check rejects them
    "beyond": ("P7", "point ids must be exactly P0..P6; unexpected [7]"),
    "padded beyond": ("P0070", "point ids must be exactly P0..P6; unexpected [70]"),
    # a padded spelling of a point already on the line is a repeat
    "padded repeat": ("P03", "line L0 repeats a point"),
    # line names are in the table, as vertex ids n and above
    "line": ("L5", "bad point id 'L5' on line L0"),
    "line 0": ("L0", "bad point id 'L0' on line L0"),
}


@pytest.mark.parametrize("case", sorted(_POINT_NAME_ERRORS))
def test_point_names_the_table_misses_keep_their_messages(case):
    name, message = _POINT_NAME_ERRORS[case]
    doc = plane_to_doc(build_plane(2))
    assert doc["lines"][0]["points"] == ["P1", "P3", "P5"]
    doc["lines"][0]["points"][0] = name
    with pytest.raises(ValueError) as err:
        load_plane(doc)
    assert str(err.value) == message


# Loads PG(2,q)'s own file, then one with Pi and Li renamed P(n-1-i) and
# L(n-1-i), whose canonical names are all read in the name table, and
# parses a partition of it; prints what each gives.
_LOAD_ORDER = """
from planepart import build_plane
from planepart.metric import partition_from_doc
from planepart.plane import load_plane, plane_to_doc

def load_order(q):
    doc = plane_to_doc(build_plane(q))
    n = len(doc["lines"])
    flip = lambda name: f"{name[0]}{n - 1 - int(name[1:])}"
    flipped = {"lines": [
        {"id": flip(e["id"]), "points": [flip(p) for p in e["points"]]} for e in doc["lines"]
    ]}
    partition = {"classes": [
        {"name": "even", "members": [f"P{i}" for i in range(0, n, 2)]
                                    + [f"L{i}" for i in range(1, n, 2)]},
        {"name": "odd", "members": [f"P{i}" for i in range(1, n, 2)]
                                   + [f"L{i}" for i in range(0, n, 2)]},
    ]}
    out = []
    for plane_doc in (doc, flipped):
        plane = load_plane(plane_doc)
        parsed = partition_from_doc(partition, plane)
        out.append((plane.q, plane.line_points, plane.point_lines, plane.line_masks,
                    plane.point_masks, parsed.names, parsed.classes))
    return repr(out)
"""


def test_the_name_table_follows_the_order_in_one_process():
    namespace = {}
    exec(_LOAD_ORDER, namespace)
    in_process = [namespace["load_order"](q) for q in (2, 3, 2)]
    env = {**os.environ, "PYTHONPATH": str(Path(plane_mod.__file__).parents[1])}
    fresh = {
        q: subprocess.run(
            [sys.executable, "-c", _LOAD_ORDER + f"print(load_order({q}))"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for q in (2, 3)
    }
    assert [text + "\n" for text in in_process] == [fresh[2], fresh[3], fresh[2]]
    namespace["load_order"](3)  # the table cached is now of another order
    for name, message in _POINT_NAME_ERRORS.values():
        doc = plane_to_doc(build_plane(2))
        doc["lines"][0]["points"][0] = name
        with pytest.raises(ValueError) as err:
            load_plane(doc)
        assert str(err.value) == message
    for line_id, message in _LINE_ID_ERRORS.values():
        with pytest.raises(ValueError) as err:
            load_plane(_fano_with_line_id(0, line_id))
        assert str(err.value) == message
    info = plane_mod.vertex_names.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)


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
    triples = pg2_triples(q)
    for li in range(0, plane.n, 1 if q <= 16 else 3):
        a, b, c = triples[li]
        for pi, (x, y, z) in enumerate(triples):
            on = all((u + v + w) % p == 0 for u, v, w in zip(raw[a][x], raw[b][y], raw[c][z]))
            assert incident(plane, pi, li) == on, (li, pi)
    # the point side is the transpose of the line side, not assumed from it
    cols = [[] for _ in range(plane.n)]
    for li, pts in enumerate(plane.line_points):
        assert plane.line_masks[li] == sum(1 << pt for pt in pts)
        for pt in pts:
            cols[pt].append(li)
    assert [list(lines) for lines in plane.point_lines] == cols
    assert plane.point_masks == [sum(1 << li for li in lines) for lines in cols]


# sha256 of the ids of all rows in line order, as little-endian uint16
_ROWS_SHA256 = {
    49: "677a8c6868f83911e901a0b25f7fab810f6972325b87b70e881cd5427456b961",
    64: "dabba779d6da9239f402fc2da7ae21db07d13968e12b2b79f36480dfbdb559ac",
    81: "09f64f1bcf1052734522cbc1cd66736a7d2af2576b9b25eaee6c1b0e0c218a20",
    125: "da67a66e0811834d022a274844958f51c6c1c1c1afaf37b45c63726f8bd5fefd",
    128: "d5de0e5bd73fe3ae0d51299ab3ed873a4c18df615151225eb860f46312ca73ec",
}


@pytest.mark.parametrize("q", sorted(_ROWS_SHA256))
def test_translated_rows_are_pinned_and_masks_match_a_byte_fill_oracle(q):
    # p = 7, 2, 3, 5, 2 with e = 2, 6, 4, 3, 7: the Gray walk steps every
    # digit, and wraps by (p-1)*s, which differs from s when p > 2
    plane = build_plane(q)
    rows = plane.line_points
    ids = array("H", chain.from_iterable(rows))
    if sys.byteorder == "big":
        ids.byteswap()
    assert hashlib.sha256(ids).hexdigest() == _ROWS_SHA256[q]
    byte = [i >> 3 for i in range(plane.n)]
    bit = [1 << (i & 7) for i in range(plane.n)]

    def oracle(row):
        buf = bytearray(byte[-1] + 1)
        for i in row:
            buf[byte[i]] |= bit[i]
        return int.from_bytes(buf, "little")

    expect = list(map(oracle, rows))
    assert plane.line_masks == expect
    assert plane.point_lines == rows
    assert plane.point_masks == expect


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_rows_are_untracked_tuples_over_one_id_list(source):
    # q=17 has ids above 256, which CPython does not cache
    plane = build_plane(17)
    if source == "loaded":
        plane, checks = _load_counting_checks(_reversed_doc(plane))
        assert checks == 1
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
    "dropped": ([(4, 1, None)], ("line-size", "line L4 has 3 points, expected 4")),
    # one incidence moved: P1 leaves L4 and joins L2
    "moved": ([(4, 1, None), (2, None, 1)], ("line-size", "line L2 has 5 points, expected 4")),
    # one point replaced: P5 takes P1's place on L4, so sizes hold
    "replaced": ([(4, 1, 5)], ("point-degree", "point P1 lies on 3 lines, expected 4")),
    # two points swapped: P1 moves from L0 to L1 and P5 from L1 to L0, so
    # sizes and degrees hold and both pair axioms break
    "swapped": (
        [(0, 1, 5), (1, 5, 1)],
        ("point-pair", "points P0 and P1 lie on 2 common lines"),
    ),
}


@pytest.mark.parametrize("case", sorted(_AXIOM_CASES))
def test_axiom_messages_are_pinned(case):
    edits, expected = _AXIOM_CASES[case]
    line_points = [list(pts) for pts in build_plane(3).line_points]
    for li, removed, added in edits:
        if removed is not None:
            line_points[li].remove(removed)
        if added is not None:
            line_points[li].append(added)
    mutated = IncidencePlane(3, line_points)
    kind, message = expected
    with pytest.raises(ValueError) as err:
        validate_axioms(mutated)
    assert str(err.value) == f"axiom violation ({kind}): {message}"
    with pytest.raises(ValueError) as err:
        load_plane(plane_to_doc(mutated))
    assert str(err.value) == f"axiom violation ({kind}): {message}"


def _oracle_violations(q, rows):
    """Every violation recounted from id sets, in the documented order:
    line sizes, point degrees, point pairs, line pairs."""
    n = len(rows)
    points_of = [set(pts) for pts in rows]
    lines_of = [set() for _ in range(n)]
    for li, pts in enumerate(rows):
        for p in pts:
            lines_of[p].add(li)
    out = [("line-size", f"line L{i} has {len(s)} points, expected {q + 1}")
           for i, s in enumerate(points_of) if len(s) != q + 1]
    out += [("point-degree", f"point P{i} lies on {len(s)} lines, expected {q + 1}")
            for i, s in enumerate(lines_of) if len(s) != q + 1]
    for kind, sets, text in (("point-pair", lines_of, "points P{} and P{} lie on {} common lines"),
                             ("line-pair", points_of, "lines L{} and L{} meet in {} points")):
        for i, j in combinations(range(n), 2):
            common = len(sets[i] & sets[j])
            if common != 1:
                out.append((kind, text.format(i, j, common)))
    return out


def _mutate(rng, rows):
    """One to three edits: a swap of two points between two lines keeps
    every size and degree; a move of a point from one line to another
    breaks two line sizes."""
    rows = [list(pts) for pts in rows]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(len(rows)), 2)
        only_a = [p for p in rows[a] if p not in rows[b]]
        only_b = [p for p in rows[b] if p not in rows[a]]
        if not only_a:
            continue
        x = rng.choice(only_a)
        rows[a].remove(x)
        if rng.random() < 0.5 and only_b:
            y = rng.choice(only_b)
            rows[b].remove(y)
            rows[a].append(y)
        rows[b].append(x)
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pair_checks_match_a_set_count_oracle(q, plane_for):
    # the first violation is the oracle's: a size when a move breaks one,
    # else, after swaps, the first pair a full scan finds
    rng = random.Random(q)
    base = plane_for(q).line_points
    swaps_only = 0
    for _ in range(60):
        rows = _mutate(rng, base)
        expected = _oracle_violations(q, rows)
        swaps_only += not any(kind == "line-size" for kind, _ in expected)
        mutated = IncidencePlane(q, rows)
        if not expected:
            validate_axioms(mutated)
            continue
        kind, message = expected[0]
        # a line pair fails only where a size or point pair fails first
        assert kind != "line-pair"
        with pytest.raises(ValueError) as err:
            validate_axioms(mutated)
        assert str(err.value) == f"axiom violation ({kind}): {message}"
    assert swaps_only >= 10


def _canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("q", prime_powers(2, 32))
def test_the_canonical_text_is_the_json_of_the_document_and_its_length_is_known(q, plane_for):
    plane = plane_for(q)
    text = "".join(plane_mod.plane_text(plane))
    assert text == _canonical(plane_to_doc(plane))
    assert plane_mod._text_length(q) == len(text)


@pytest.mark.parametrize("q", prime_powers(2, 16))
def test_a_canonical_text_loads_as_the_built_plane_without_a_json_decode(q):
    text = _canonical(plane_to_doc(build_plane(q)))
    with mock.patch("json.loads", side_effect=AssertionError("decoded")):
        plane, calls = _load_spied(text, read_plane)
    assert plane is calls["built"] and calls["builds"] == 1
    assert calls["parses"] == calls["sorts"] == calls["masks"] == 0
    built = build_plane(q)
    for side in ("line_points", "point_lines", "line_masks", "point_masks"):
        assert getattr(plane, side) == getattr(built, side)


def _swapped_entries(q):
    """PG(2,q)'s document with its second and last entries swapped, which
    keeps the canonical length of its text."""
    doc = plane_to_doc(build_plane(q))
    doc["lines"][1], doc["lines"][-1] = doc["lines"][-1], doc["lines"][1]
    return doc


@pytest.mark.parametrize("q", [4, 32])
def test_a_text_of_canonical_length_that_differs_builds_the_plane_once(q):
    # two entries swapped keep the length, so read_plane builds the plane and
    # compares; the text differs, so it is decoded and loaded by the full loader
    plane, calls = _load_spied(_canonical(_swapped_entries(q)), read_plane)
    assert calls["builds"] == 1 and calls["parses"] == plane.n and calls["sorts"] == 1
    assert plane is not calls["built"] and plane.line_points == calls["built"].line_points
    # one incidence moved: one build, every line parsed, today's message
    err, calls = _load_spied(_canonical(_moved_incidence(q)), read_plane)
    assert str(err) == str(_load_spied(_moved_incidence(q))[0])
    assert calls["builds"] == 1 and calls["parses"] == plane.n and calls["masks"] == 0


@pytest.mark.parametrize("q", [4, 32])
def test_a_text_that_differs_reaches_the_loader_as_its_document_alone(q):
    # the plane built for the comparison is dropped before the decode, so the
    # only reference left to it then is the one this test keeps
    doc = _swapped_entries(q)
    built, refs, loads = [], [], []
    real_build, real_decode = plane_mod.build_pg2, json.loads

    def build(f):
        built.append(real_build(f))
        return built[-1]

    def decode(text):
        refs.append(sys.getrefcount(built[0]))
        return real_decode(text)

    def load(*args, **kwargs):
        loads.append((args, kwargs))
        return load_plane(*args, **kwargs)

    with mock.patch.object(plane_mod, "build_pg2", build), \
            mock.patch("json.loads", decode), mock.patch.object(plane_mod, "load_plane", load):
        plane = read_plane(_canonical(doc))
    assert len(built) == 1 and refs == [sys.getrefcount(built[0])]
    assert loads == [((doc,), {})]
    assert plane.line_points == built[0].line_points


@pytest.mark.parametrize("case", ["q6", "over the limit"])
def test_a_text_of_canonical_length_with_no_plane_to_build_reads_like_its_document(case):
    # q=6 has no field, and with no bytes to spare PG(2,4) is too large to
    # hold: build_plane refuses, so the text is decoded and loaded
    limit = 0 if case == "over the limit" else plane_mod.PLANE_BYTES_LIMIT
    doc = {**_cyclic_43_lines(), "q": 6} if case == "q6" else plane_to_doc(build_plane(4))
    text = _canonical(doc)
    assert len(text) == plane_mod._text_length(doc["q"])
    with mock.patch.object(plane_mod, "PLANE_BYTES_LIMIT", limit):
        err, calls = _load_spied(text, read_plane)
        assert (type(err), str(err)) == _outcome(lambda t: load_plane(json.loads(t)), text)
    assert calls["builds"] == 0


def _outcome(load, text):
    """The order and rows of the plane a load gives, or its error's type and message."""
    try:
        plane = load(text)
    except ValueError as err:  # json.JSONDecodeError included
        return type(err), str(err)
    return plane.q, plane.line_points


_TEXT_CHARS = st.sampled_from('0123456789PLq", \n[]{}:-.x') | st.characters(max_codepoint=0x2FF)


@st.composite
def _edited_canonical_text(draw):
    q = draw(st.sampled_from([2, 3, 4]), label="q")
    doc = plane_to_doc(build_plane(q))
    text = _canonical(doc)
    edit = draw(st.sampled_from(["change", "delete", "insert", "swap", "newline", "order"]))
    at = draw(st.integers(0, len(text) - 1), label="at")
    if edit == "change":
        return text[:at] + draw(_TEXT_CHARS.filter(lambda c: c != text[at])) + text[at + 1:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(_TEXT_CHARS) + text[at:]
    if edit == "swap":
        i, j = draw(st.lists(st.integers(0, len(doc["lines"]) - 1), min_size=2, max_size=2,
                             unique=True), label="entries")
        lines = doc["lines"]
        lines[i], lines[j] = lines[j], lines[i]
        return _canonical(doc)
    if edit == "newline":
        return text[:-1]
    doc["q"] = draw(st.integers(-1, 20).filter(lambda order: order != q), label="declared")
    return _canonical(doc)


@settings(max_examples=300, deadline=None)
@given(text=_edited_canonical_text())
def test_an_edited_canonical_text_reads_like_its_decoded_document(text):
    assert _outcome(read_plane, text) == _outcome(lambda t: load_plane(json.loads(t)), text)
