"""Tests of the benchmark itself: output checks, tail rule, spans, exact counts.

Run from the root of the repository with ``python3 -m pytest perfbench``;
the traced-run test takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from planepart import build_plane, plane_to_doc  # noqa: E402

EXACT = (
    "metric.signatures_calls",
    "metric.signature_entries",
    "galois.field_ops",
    "construct.attempts_per_result",
    "construct.obstruction.budget",
    "construct.obstruction.selection",
    "construct.obstruction.verify",
    "construct.x_edges",
    "analysis.collision_evals",
    "trace.jobs",
    "trace.spans",
)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    value, pct = run.tail(samples)
    assert value == 19.0 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.tail(samples[:21]) == (10.0, pytest.approx(100 * 11 / 21))


def test_self_time_subtracts_children():
    # root 0..10 with children 1..4 and 5..6; the first child has a child 2..3
    recorded = [
        ["bench.job", 0.0, 10.0, None, 0, None],
        ["cli.main", 1.0, 4.0, 0, 0, None],
        ["metric.is_resolving", 2.0, 3.0, 1, 0, True],
        ["plane.load_plane", 5.0, 6.0, 0, 0, None],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_independent_check_on_the_fano_plane():
    doc = plane_to_doc(build_plane(2))
    singles = {"classes": [{"members": [f"{k}{i}"]} for k in "PL" for i in range(7)]}
    split = {"classes": [{"members": [f"{k}{i}" for i in range(7)]} for k in "PL"]}
    missing = {"classes": singles["classes"][1:]}
    assert workloads.independent_resolves(doc, singles)
    assert not workloads.independent_resolves(doc, split)
    assert not workloads.independent_resolves(doc, missing)


class TamperedVerify(workloads.VerifyFileQ32):
    """Reports the resolving verdict of job 0 as not resolving."""

    def output(self, i, raw):
        code, text, err = super().output(i, raw)
        if i == 0:
            text = text.replace("true", "false")
        return code, text, err


def test_wrong_output_counts_in_failed_frac(tmp_path):
    metrics, attempted, failures = run.measure(TamperedVerify(0, tmp_path), seconds=0.0)
    assert attempted == 3
    assert len(failures) == 1 and failures[0].startswith("input 0")
    assert metrics["failed_frac"][0] == pytest.approx(1 / 3)
    clean, _, failures = run.measure(workloads.VerifyFileQ32(0, tmp_path), seconds=0.0)
    assert failures == [] and clean["failed_frac"][0] == 0


class RaisingVerify(workloads.VerifyFileQ32):
    """Job 1 raises instead of returning."""

    def job(self, i):
        if i == 1:
            raise RuntimeError("job broke")
        return super().job(i)


def test_raising_job_counts_in_failed_frac(tmp_path):
    metrics, attempted, failures = run.measure(RaisingVerify(0, tmp_path), seconds=0.0)
    assert attempted == 3
    assert failures == ["job 1 raised RuntimeError: job broke"]
    assert metrics["failed_frac"][0] == pytest.approx(1 / 3)


def test_search_check_rejects_a_merged_witness(tmp_path):
    w = workloads.SearchRandomQ4(5, tmp_path)
    w.setup()
    w.prepare_checks()
    _, (code, text, err) = run.one_job(w, 0)
    assert w.check(0, (code, text, err)) is None
    doc = json.loads(text)
    classes = doc["witness"]["classes"]
    classes[0]["members"] += classes.pop()["members"]
    doc["upper"] -= 1
    assert "not resolving" in w.check(0, (code, json.dumps(doc), err))


def test_construct_check_compares_recorded_digests(tmp_path):
    w = workloads.ConstructQ128(0, tmp_path)
    assert "differs from the recorded digest" in w.check(0, "{}")


def _traced(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_counts_repeat_exactly(name):
    first, second = _traced(name), _traced(name)
    assert first["correct"] and second["correct"]
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key
    m = first["metrics"]
    layers = sum(m[f"{layer}.job_self_s"]["value"] for layer in spans.LAYERS)
    assert layers == pytest.approx(m["trace.job_mean_s"]["value"], rel=1e-9)
    assert m["trace.job_mean_s"]["value"] == pytest.approx(
        m["trace.untraced_job_mean_s"]["value"] + m["trace.overhead_s"]["value"], rel=1e-9
    )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search_random_q4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
