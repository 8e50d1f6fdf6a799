"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from planepart import (
    build_plane,
    construct_partition,
    estimate_unseparated,
    is_resolving,
    lower_bound,
)
from planepart.analysis import exhaustive_pd
from planepart.cli import main as cli_main
from planepart.construct import ConstructionError, default_zeta_count
from planepart.metric import LINE, POINT, Partition, VertexId, VertexSet
from planepart.plane import validate_axioms

from conftest import prime_powers
from oracles import all_pairs_distances, distance_to_set, separation_probability_bound

FIXTURES = Path(__file__).parent / "fixtures"


def _announce(num, detail):
    print(f"\nACCEPTANCE criterion {num}: PASS ({detail})", flush=True)


def _random_partition(rng, n):
    size = 2 * n
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


def test_criterion_1_distance_oracle_equivalence(plane_for):
    started = time.monotonic()
    checked = 0
    for q in (2, 3, 4, 5):
        plane = plane_for(q)
        n = plane.n
        dist = all_pairs_distances(plane)
        rng = random.Random(1000 + q)
        for _ in range(100):
            partition = _random_partition(rng, n)
            members = [
                [p for p in cls.point_ids()] + [l + n for l in cls.line_ids()]
                for cls in partition.classes
            ]
            for i in range(2 * n):
                v = VertexId(POINT, i) if i < n else VertexId(LINE, i - n)
                row = dist[i]
                for cls, mem in zip(partition.classes, members):
                    oracle = min(row[u] for u in mem)
                    assert distance_to_set(plane, v, cls) == oracle
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _announce(1, f"{checked} closed-form distances equal the BFS minimum, {elapsed:.1f}s")


def test_criterion_2_axioms_and_mutation_detection():
    started = time.monotonic()
    mutations = 0
    for q in prime_powers(2, 16):
        plane = build_plane(q)
        validate_axioms(plane)
        n = plane.n
        for li in range(n):
            lbit = 1 << li
            for p in range(n):
                pbit = 1 << p
                plane.line_masks[li] ^= pbit
                plane.point_masks[p] ^= lbit
                with pytest.raises(ValueError, match="^axiom violation "):
                    validate_axioms(plane)
                plane.line_masks[li] ^= pbit
                plane.point_masks[p] ^= lbit
                mutations += 1
        validate_axioms(plane)  # restored exactly
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _announce(2, f"axioms hold for q<=16 and all {mutations} single-bit flips detected, {elapsed:.1f}s")


def test_criterion_3_upper_bound_construction(plane_for):
    details = []
    for q, expected_classes in ((64, 29), (128, 33)):
        started = time.monotonic()
        plane = plane_for(q)
        try:
            result = construct_partition(plane, seed=0, max_retries=49)
        except ConstructionError as err:
            assert err.obstruction, "failure must name the violated requirement"
            pytest.fail(f"q={q} failed within 50 seeds: {err.obstruction}")
        elapsed = time.monotonic() - started
        assert result.class_count == result.k + result.l + 2 == expected_classes
        assert result.class_count <= 4 * math.ceil(math.log2(q)) + 5
        assert is_resolving(plane, result.partition).resolving
        assert elapsed < 300.0
        details.append(f"q={q}: {result.class_count} classes, retries={result.retries}, {elapsed:.1f}s")
    for q in (16, 32):
        plane = plane_for(q)
        try:
            result = construct_partition(plane, seed=0, max_retries=49)
            assert is_resolving(plane, result.partition).resolving
            details.append(f"q={q}: succeeded with {result.class_count} classes (recorded)")
        except ConstructionError as err:
            assert err.obstruction, "failure must name the violated requirement"
            details.append(f"q={q}: failed, obstruction: {err.obstruction} (recorded)")
    _announce(3, "; ".join(details))


def test_criterion_4_zeta_lemma_bound():
    started = time.monotonic()
    report = estimate_unseparated(32, k=18, trials=200, seed=0)
    elapsed = time.monotonic() - started
    assert report.bound == pytest.approx(3.99609375)
    limit = 1.5 * report.bound
    assert report.mean <= limit
    assert elapsed < 120.0
    _announce(4, f"mean {report.mean:.3f} <= {limit:.3f} over {report.trials} trials, {elapsed:.1f}s")


def test_criterion_5_probability_inequality():
    checked = 0
    for q in prime_powers(16, 1024):
        k = default_zeta_count(q)
        if k > q:
            continue
        lhs, rhs = separation_probability_bound(q, k)
        assert lhs < rhs, f"q={q}, k={k}"
        # guard band: the separation must exceed double-precision noise by
        # a relative margin of 1e-12 (the absolute gap shrinks like 2^-k)
        assert rhs - lhs > 1e-12 * rhs, f"q={q}, k={k}: margin too thin"
        checked += 1
    _announce(5, f"lhs < 2^-k with relative guard band 1e-12 for {checked} prime powers")


def test_criterion_6_lower_bound():
    assert lower_bound(2).total == 3
    assert lower_bound(16).total == 7
    previous = 0
    count = 0
    for q in prime_powers(2, 1024):
        res = lower_bound(q)
        t, n = res.total, q * q + q + 1
        assert (t - 1) << (t - 2) < n <= t << (t - 1), f"q={q}: not the least count"
        assert t >= previous, f"q={q}: total decreased"
        previous = t
        count += 1
    _announce(6, f"totals 3 and 7 at q=2,16; least t * 2^(t-1) >= n, non-decreasing over {count} prime powers")


def test_criterion_7_exact_pd_q2(plane_for):
    started = time.monotonic()
    plane = plane_for(2)
    fixture_path = FIXTURES / "exact_pd_q2.json"
    results = {}
    for workers in (1, 2):
        res = exhaustive_pd(plane, workers=workers)
        assert res.exact
        assert res.lower >= lower_bound(2).total == 3
        assert is_resolving(plane, res.witness).resolving
        results[workers] = (res.lower, res.nodes)
    assert results[1] == results[2], "value must not depend on the worker count"
    value, nodes = results[1]
    if fixture_path.exists():
        frozen = json.loads(fixture_path.read_text())
        assert value == frozen["pd"], "recomputed value differs from the frozen fixture"
        assert nodes == frozen["nodes"]
    else:
        fixture_path.write_text(json.dumps({"q": 2, "pd": value, "nodes": nodes}, indent=2) + "\n")
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _announce(7, f"pd(q=2) = {value} stable across runs and worker counts, {elapsed:.1f}s")


def test_criterion_8_construct_determinism(tmp_path):
    outputs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        code = cli_main(["construct", "--q", "64", "--seed", "7", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert len(doc["classes"]) == 29
    _announce(8, "construct --q 64 --seed 7 is byte-identical across runs")
