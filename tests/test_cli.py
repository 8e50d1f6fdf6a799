import contextlib
import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

from planepart import analysis, build_plane, cli, is_resolving
from planepart.cli import main
from planepart.metric import partition_from_doc

from conftest import collector, relabelled

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plane_subcommand(capsys):
    code, out, _ = run(capsys, "plane", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 2
    assert len(doc["lines"]) == 7
    assert all(len(entry["points"]) == 3 for entry in doc["lines"])


def test_plane_outputs_are_pinned(capsys):
    pinned = json.loads((FIXTURES / "plane_sha256.json").read_text())
    for q, digest in pinned["stdout_sha256"].items():
        code, out, _ = run(capsys, "plane", "--q", q)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, f"q={q}"


def test_plane_out_file_matches_stdout(tmp_path, capsys):
    out_file = tmp_path / "plane.json"
    code, out, _ = run(capsys, "plane", "--q", "9")
    assert code == 0
    assert run(capsys, "plane", "--q", "9", "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == out


def test_plane_text_format(capsys):
    code, out, _ = run(capsys, "plane", "--q", "3", "--format", "text")
    assert code == 0
    assert "order 3" in out and "13" in out


def test_bounds_q16(capsys):
    assert run(capsys, "bounds", "--q", "16") == (0, (
        '{\n  "inequality": {\n    "lhs": 448,\n    "rhs": 273\n  },\n'
        '  "q": 16,\n  "total": 7\n}\n'
    ), "")
    assert run(capsys, "bounds", "--q", "16", "--format", "text") == (
        0, "lower bound for q=16: 7 classes (7 * 2^6 = 448 >= n = 273)\n", ""
    )


def test_bounds_at_q_2_70(capsys):
    q = 2**70
    code, out, err = run(capsys, "bounds", "--q", str(q))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "inequality": {"lhs": 134 << 133, "rhs": q * q + q + 1}, "q": q, "total": 134,
    }


def test_construct_verify_roundtrip(tmp_path, capsys):
    plane_file = tmp_path / "plane.json"
    part_file = tmp_path / "partition.json"
    code, _, _ = run(capsys, "plane", "--q", "16", "--out", str(plane_file))
    assert code == 0
    code, _, _ = run(
        capsys, "construct", "--plane", str(plane_file), "--seed", "1", "--out", str(part_file)
    )
    assert code == 0
    doc = json.loads(part_file.read_text())
    assert doc["metadata"]["seed"] == 1
    assert [c["name"] for c in doc["classes"]][:2] == ["H0", "Z1"]
    code, out, _ = run(
        capsys, "verify", "--plane", str(plane_file), "--partition", str(part_file)
    )
    assert code == 0
    assert json.loads(out)["resolving"] is True


def test_verify_reads_zero_padded_names_like_canonical_ones(tmp_path, capsys):
    # padded names miss both loaders' name tables and take the per-name parse
    plane_file = tmp_path / "plane.json"
    part_file = tmp_path / "partition.json"
    assert run(capsys, "plane", "--q", "16", "--out", str(plane_file))[0] == 0
    assert run(capsys, "construct", "--q", "16", "--seed", "0", "--out", str(part_file))[0] == 0
    canonical = run(capsys, "verify", "--plane", str(plane_file), "--partition", str(part_file))
    assert canonical[0] == 0

    def pad(name):
        return f"{name[0]}{int(name[1:]):04d}"

    plane_doc = json.loads(plane_file.read_text())
    for entry in plane_doc["lines"]:
        entry["id"], entry["points"] = pad(entry["id"]), list(map(pad, entry["points"]))
    part_doc = json.loads(part_file.read_text())
    for entry in part_doc["classes"]:
        entry["members"] = list(map(pad, entry["members"]))
    plane_file.write_text(json.dumps(plane_doc))
    part_file.write_text(json.dumps(part_doc))
    padded = run(capsys, "verify", "--plane", str(plane_file), "--partition", str(part_file))
    assert padded == canonical


def test_plane_files_and_relabelled_ones_give_the_outputs_of_q(tmp_path, capsys):
    # the tool's own file loads as the built plane; one relabelled by a
    # permutation, with its partition, takes the general loader
    plane_file = tmp_path / "plane.json"
    part_file = tmp_path / "partition.json"
    assert run(capsys, "plane", "--q", "16", "--out", str(plane_file))[0] == 0
    built = run(capsys, "construct", "--q", "16", "--seed", "1")
    assert built[0] == 0
    assert run(capsys, "construct", "--plane", str(plane_file), "--seed", "1") == built
    part_file.write_text(built[1])
    verdict = run(capsys, "verify", "--q", "16", "--partition", str(part_file))
    assert verdict[0] == 0 and json.loads(verdict[1])["resolving"] is True
    from_file = ("verify", "--plane", str(plane_file), "--partition", str(part_file))
    assert run(capsys, *from_file) == verdict
    points, lines = list(range(273)), list(range(273))
    random.Random(0).shuffle(points)
    random.Random(1).shuffle(lines)
    for path in (plane_file, part_file):
        path.write_text(json.dumps(relabelled(json.loads(path.read_text()), points, lines)))
    assert run(capsys, *from_file) == verdict
    # construct reads its meets off the masks the general loader built
    code, out, _ = run(capsys, "construct", "--plane", str(plane_file), "--seed", "1")
    assert code == 0
    part_file.write_text(out)
    code, out, _ = run(capsys, *from_file)
    assert code == 0 and json.loads(out)["resolving"] is True


def _verify_with_bad_file(tmp_path, capsys, bad, content):
    """Run verify on a valid q=2 plane and partition, with the `bad` file's bytes replaced."""
    files = {flag: tmp_path / f"{flag[2:]}.json" for flag in ("--plane", "--partition")}
    assert run(capsys, "plane", "--q", "2", "--out", str(files["--plane"]))[0] == 0
    files["--partition"].write_text(json.dumps({"classes": [
        {"name": "points", "members": [f"P{i}" for i in range(7)]},
        {"name": "lines", "members": [f"L{i}" for i in range(7)]},
    ]}))
    files[bad].write_bytes(content)
    argv = chain.from_iterable((flag, str(path)) for flag, path in files.items())
    return files[bad], run(capsys, "verify", *argv)


@pytest.mark.parametrize("deep", ["--plane", "--partition"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, deep):
    # the decoder's RecursionError is an input error, not a traceback with
    # exit 1, which would read as "not resolving"
    path, result = _verify_with_bad_file(tmp_path, capsys, deep, b"[" * 200000 + b"]" * 200000)
    assert result == (2, "", f"error: {path}: JSON nests too deeply to read\n")


@pytest.mark.parametrize("bad", ["--plane", "--partition"])
@pytest.mark.parametrize("content", [b"{not json", b'{"q": "\xff"}'], ids=["syntax", "utf8"])
def test_undecodable_json_names_its_file(tmp_path, capsys, bad, content):
    # with two input files, the message must say which one is at fault
    path, (code, out, err) = _verify_with_bad_file(tmp_path, capsys, bad, content)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: "), err


def test_verify_single_class_partition_exits_1(tmp_path, capsys):
    part = {
        "q": 2,
        "classes": [
            {"name": "all", "members": [f"P{i}" for i in range(7)] + [f"L{i}" for i in range(7)]}
        ],
    }
    part_file = tmp_path / "single.json"
    part_file.write_text(json.dumps(part))
    code, out, _ = run(capsys, "verify", "--q", "2", "--partition", str(part_file))
    assert code == 1
    doc = json.loads(out)
    assert doc["resolving"] is False
    assert doc["collision_groups"]


def test_verify_text_lists_collisions(tmp_path, capsys):
    part = {
        "q": 2,
        "classes": [
            {"name": "all", "members": [f"P{i}" for i in range(7)] + [f"L{i}" for i in range(7)]}
        ],
    }
    part_file = tmp_path / "single.json"
    part_file.write_text(json.dumps(part))
    code, out, _ = run(
        capsys, "verify", "--q", "2", "--partition", str(part_file), "--format", "text"
    )
    assert code == 1
    assert "not resolving" in out


def test_construct_failure_exits_3_and_names_obstruction(capsys):
    code, _, err = run(
        capsys, "construct", "--q", "4", "--k", "2", "--retries", "1", "--seed", "0"
    )
    assert code == 3
    report = json.loads(err[err.index("{") :])  # a feasibility warning precedes it
    assert report["attempts"] == 2
    assert report["obstruction"]


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "construct")[0] == 2  # no plane source
    assert run(capsys, "construct", "--q", "16", "--plane", "x.json")[0] == 2  # both
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "construct", "--q", "8")[0] == 2  # defaults infeasible
    assert run(capsys, "construct", "--q", "16", "--seed", "-1")[0] == 2
    code, out, err = run(capsys, "construct", "--q", "16", "--l", "4")  # l is derived from q
    assert (code, out) == (2, "")
    assert err.endswith("\nplanepart: error: unrecognized arguments: --l 4\n")
    assert run(capsys, "verify", "--q", "2", "--partition", str(tmp_path / "gone.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "verify", "--q", "2", "--partition", str(bad))[0] == 2
    repeated = tmp_path / "repeated.json"
    classes = [
        {"name": "points", "members": [f"P{i}" for i in range(7)] + ["P3"]},
        {"name": "lines", "members": [f"L{i}" for i in range(7)]},
    ]
    repeated.write_text(json.dumps({"classes": classes}))
    code, _, err = run(capsys, "verify", "--q", "2", "--partition", str(repeated))
    assert (code, err) == (2, "error: class 'points' lists vertex P3 more than once\n")
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"lines": [{"id": "L0", "points": 5}]}))
    code, _, err = run(capsys, "verify", "--plane", str(short), "--partition", str(repeated))
    assert (code, err) == (2, "error: points of line L0 must be an array\n")
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({"classes": [{"members": 7}]}))
    code, _, err = run(capsys, "verify", "--q", "2", "--partition", str(scalar))
    assert (code, err) == (2, "error: members of class 'C0' must be an array\n")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"classes": []}))
    code, _, err = run(capsys, "verify", "--q", "2", "--partition", str(empty))
    assert (code, err) == (2, "error: partition has no classes\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--q", "4", "--k", "0"], "zeta set count must be positive, got 0"),
    ],
    ids=["q4-k0"],
)
def test_zero_zeta_sets_exit_2_before_any_warning(capsys, argv, message):
    """Bad class counts are rejected before the free-line warning is logged."""
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_rejects_a_plane_id_with_a_trailing_newline(tmp_path, capsys):
    doc = json.loads(run(capsys, "plane", "--q", "2")[1])
    points = doc["lines"][0]["points"]
    points[0] += "\n"
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps(doc))
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"classes": [
        {"name": "points", "members": [f"P{i}" for i in range(7)]},
        {"name": "lines", "members": [f"L{i}" for i in range(7)]},
    ]}))
    code, out, err = run(capsys, "verify", "--plane", str(plane), "--partition", str(partition))
    assert (code, out, err) == (2, "", f"error: bad point id {points[0]!r} on line L0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--q", "16", "--retries", "-1"],
        ["search", "--q", "2", "--budget", "0"],
        ["search", "--q", "2", "--budget", "-5"],
        ["search", "--q", "2", "--method", "randomized", "--trials", "0"],
        ["bounds", "--q", "6"],
        ["search", "--q", "2", "--tmin", "0"],
        ["search", "--q", "2", "--tmin", "-1"],
        ["search", "--q", "2", "--method", "randomized", "--tmin", "10", "--tmax", "5"],
        ["search", "--q", "2", "--method", "randomized", "--tmax", "1"],
        ["search", "--q", "2", "--method", "randomized", "--tmin", "0"],
        ["search", "--q", "2", "--method", "randomized", "--tmin", "-5", "--tmax", "6",
         "--trials", "2"],
        ["search", "--q", "2", "--workers", "0"],
        ["search", "--q", "2", "--method", "randomized", "--tmin", "12", "--tmax", "14",
         "--workers", "0"],
        ["estimate", "--q", "16", "--workers", "0"],
        ["estimate", "--q", "16", "--workers", "-2"],
        ["plane", "--q", "2097152"],
    ],
)
def test_out_of_range_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_out_of_range_messages(capsys):
    cases = {
        ("search", "--q", "2", "--tmin", "0"): "smallest class count must be at least 1, got 0",
        ("search", "--q", "2", "--method", "randomized", "--tmin", "10", "--tmax", "5"):
            "empty class count range 10..5",
        ("search", "--q", "2", "--method", "randomized", "--tmax", "1"):
            "empty class count range 2..1",
        ("search", "--q", "2", "--method", "randomized", "--tmin", "0"):
            "smallest class count must be at least 1, got 0",
        ("search", "--q", "2", "--method", "randomized", "--tmin", "-5", "--tmax", "6",
         "--trials", "2"): "smallest class count must be at least 1, got -5",
        ("estimate", "--q", "16", "--workers", "-2"): "worker count must be at least 1, got -2",
        ("search", "--q", "2", "--method", "randomized", "--tmin", "12", "--tmax", "14",
         "--workers", "0"): "worker count must be at least 1, got 0",
        ("plane", "--q", "2097152"):
            "plane of order 2097152 needs about 2.58e+15 GB to hold, above the limit of 4.29 GB",
        ("plane", "--q", "512"):
            "plane of order 512 needs about 10.3 GB to hold, above the limit of 4.29 GB",
        ("plane", "--q", "1"): "plane order must be at least 2, got 1",
        ("plane", "--q", "2000000000000000006"): "2000000000000000006 is not a prime power",
        ("bounds", "--q", "6000000000000000018"): "6000000000000000018 is not a prime power",
    }
    for workers in ("1", "2"):
        cases[("estimate", "--q", "8", "--workers", workers)] = (
            "q=8 is too small for the default of 12 zeta sets; pass k <= q explicitly"
        )
        cases[("estimate", "--q", "8", "--k", "0", "--workers", workers)] = (
            "zeta set count must be positive, got 0"
        )
        # the order is checked before the zeta count it decides
        cases[("estimate", "--q", "6", "--workers", workers)] = "6 is not a prime power"
    for argv, message in cases.items():
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_search_randomized_outputs_are_pinned(capsys):
    """Each fixture names a command whose S is replaced by each pinned seed."""
    for name in ("search_random_q4_sha256.json", "search_random_q8_sha256.json"):
        pinned = json.loads((FIXTURES / name).read_text())
        argv = pinned["command"].split()[1:]
        for seed, digest in pinned["stdout_sha256"].items():
            code, out, _ = run(capsys, *(seed if a == "S" else a for a in argv))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, f"{name} seed {seed}"


def test_estimate_subcommand(capsys):
    code, out, _ = run(
        capsys, "estimate", "--q", "16", "--trials", "4", "--seed", "0", "--workers", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 4 and len(doc["counts"]) == 4
    assert doc["k"] == 15


def test_search_randomized(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--q",
        "2",
        "--method",
        "randomized",
        "--tmin",
        "12",
        "--tmax",
        "14",
        "--trials",
        "2",
        "--workers",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"] is not None and doc["upper"] <= 14
    assert "witness" in doc


def test_search_exhaustive_bracket(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--q",
        "2",
        "--budget",
        "50",
        "--workers",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is False
    assert doc["nodes"] == 50
    assert doc["bracket"]["upper"] == 14  # singletons over the 14 vertices


def test_search_rejects_planes_too_deep_for_the_recursive_scan(capsys):
    # the scan recurses once per vertex: PG(2,32) has 2114 vertices, over
    # the default limit, and PG(2,19), with 762, is the largest that runs
    limit = sys.getrecursionlimit()
    assert run(capsys, "search", "--q", "32", "--budget", "10") == (
        2,
        "",
        "error: exhaustive search recurses once per vertex: 2114 vertices and "
        f"100 caller frames exceed the recursion limit {limit}\n",
    )
    code, out, _ = run(capsys, "search", "--q", "19", "--budget", "10", "--workers", "1")
    doc = json.loads(out)
    # 7 * 2**6 >= 19*19 + 19 + 1 > 6 * 2**5: the counting bound is 7
    assert (code, doc["nodes"], doc["bracket"]) == (0, 10, {"lower": 7, "upper": 762})


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys, "construct", "--q", "16", "--seed", "5", "--out", str(target)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_kernel_outputs_are_pinned(capsys, monkeypatch, tmp_path):
    """Outputs that go through packed_signatures, pinned by sha256.

    SPLIT stands for the q=8 partition {all points} / {all lines}; the
    failing construct also pins its stderr, which carries one log line per
    attempt with the unseparated pair count.
    """
    monkeypatch.setenv("PLANEPART_LOG", "info")
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"classes": [
        {"name": "points", "members": [f"P{i}" for i in range(73)]},
        {"name": "lines", "members": [f"L{i}" for i in range(73)]},
    ]}))
    pinned = json.loads((FIXTURES / "kernel_outputs_sha256.json").read_text())
    for command, expect in pinned.items():
        argv = [str(split) if a == "SPLIT" else a for a in command.split()]
        code, out, err = run(capsys, *argv)
        assert code == expect["exit"], command
        assert hashlib.sha256(out.encode()).hexdigest() == expect["stdout_sha256"], command
        if "stderr_sha256" in expect:
            assert hashlib.sha256(err.encode()).hexdigest() == expect["stderr_sha256"], command


@pytest.mark.parametrize(
    "plane_q, partition_q, message",
    [
        ("2", 2, "declared order '2' does not match inferred order 2"),
        (2, "2", "partition order '2' does not match plane order 2"),
    ],
    ids=["plane", "partition"],
)
def test_verify_names_a_string_order(capsys, tmp_path, plane_q, partition_q, message):
    plane = json.loads(run(capsys, "plane", "--q", "2")[1])
    plane["q"] = plane_q
    plane_file = tmp_path / "plane.json"
    plane_file.write_text(json.dumps(plane))
    partition = {"q": partition_q, "classes": [
        {"name": "points", "members": [f"P{i}" for i in range(7)]},
        {"name": "lines", "members": [f"L{i}" for i in range(7)]},
    ]}
    part_file = tmp_path / "partition.json"
    part_file.write_text(json.dumps(partition))
    code, out, err = run(
        capsys, "verify", "--plane", str(plane_file), "--partition", str(part_file)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_search_exact_renders_pd_without_bracket(capsys, monkeypatch):
    # the full q=2 exhaustion runs once, in the acceptance tests; here its
    # recorded value and node count are rendered with a witness from a scan
    # of the t=4 level alone
    pinned = json.loads((FIXTURES / "exact_pd_q2.json").read_text())
    plane = build_plane(2)
    level = analysis.exhaustive_pd(plane, t_min=4, t_max=4, workers=1)
    result = analysis.SearchResult(
        q=2, exact=True, lower=pinned["pd"], upper=pinned["pd"], witness=level.witness,
        nodes=pinned["nodes"], wall_time=3.5,
    )
    monkeypatch.setattr(analysis, "exhaustive_pd", lambda *args, **kwargs: result)
    code, out, _ = run(capsys, "search", "--q", "2")
    doc = json.loads(out)
    assert (code, doc["exact"], doc["pd"], doc["nodes"]) == (0, True, 4, 799339)
    assert "bracket" not in doc
    assert is_resolving(plane, partition_from_doc(doc["witness"], plane)).resolving
    assert run(capsys, "search", "--q", "2", "--format", "text") == (
        0, "pd = 4 for q=2 (799339 partitions verified, 3.50s)\n", ""
    )


def test_search_randomized_without_a_witness(capsys):
    argv = ["search", "--q", "2", "--method", "randomized", "--tmin", "2", "--tmax", "2",
            "--trials", "1"]
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)) == (0, {"method": "randomized", "q": 2, "upper": None})
    assert run(capsys, *argv, "--format", "text") == (
        0, "no witness found for q=2 in 2..2\n", ""
    )


def test_search_exhaustive_without_a_witness(capsys):
    # no level up to --tmax holds a witness, so the bracket has no upper end
    argv = ["search", "--q", "2", "--tmax", "2", "--workers", "1"]
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert (code, doc["bracket"], doc["nodes"]) == (0, {"lower": 3, "upper": None}, 8192)
    code, out, err = run(capsys, *argv, "--format", "text")
    head = "pd >= 3 for q=2 (no witness up to t=2; 8192 partitions verified, "
    assert (code, err, out.startswith(head), out.endswith("s)\n")) == (0, "", True, True)


def test_verify_text_cuts_the_group_list_at_20(capsys, tmp_path):
    # PG(2,7) split by point and line id mod 5 leaves 27 colliding groups
    n = 57
    classes = [
        {"name": f"C{c}", "members": [f"P{i}" for i in range(c, n, 5)]
         + [f"L{i}" for i in range(c, n, 5)]}
        for c in range(5)
    ]
    part_file = tmp_path / "mod5.json"
    part_file.write_text(json.dumps({"q": 7, "classes": classes}))
    code, out, _ = run(
        capsys, "verify", "--q", "7", "--partition", str(part_file), "--format", "text"
    )
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "not resolving: 27 colliding groups"
    assert len(lines) == 22
    assert lines[-1] == "  ... 7 more groups"


def test_bounds_takes_an_order_too_large_to_build(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "512")
    assert code == 0
    assert json.loads(out) == analysis.lower_bound(512).to_doc()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_restores_its_state(tmp_path, capsys, monkeypatch, enabled):
    absent = str(tmp_path / "absent.json")
    cases = [
        (["bounds", "--q", "16"], 0),
        (["verify", "--plane", absent, "--partition", absent], 2),
        (["plane"], 2),  # argparse: --q is required
    ]
    seen = []

    def fail(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    with collector(enabled):
        for argv, code in cases:
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
        monkeypatch.setitem(cli._HANDLERS, "bounds", fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["bounds", "--q", "16"])
        assert gc.isenabled() is enabled
    assert seen == [False]
    capsys.readouterr()


def test_plane_command_runs_no_collection(tmp_path):
    # empty generations, so no collection falls between a snapshot and the call
    gc.collect()
    before = [gen["collections"] for gen in gc.get_stats()]
    code = main(["plane", "--q", "64", "--out", str(tmp_path / "plane.json")])
    after = [gen["collections"] for gen in gc.get_stats()]
    assert code == 0
    assert after == before


def test_one_parser_serves_every_call():
    assert cli.build_parser() is cli.build_parser()


_REPEATED_COMMANDS = {
    "verify": ["verify", "--plane", "{plane}", "--partition", "{partition}"],
    "search": ["search", "--q", "4", "--method", "randomized", "--tmin", "4", "--tmax", "6",
               "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(_REPEATED_COMMANDS))
def test_a_repeated_command_leaves_no_cyclic_garbage(tmp_path, capsys, command):
    plane_file, part_file = tmp_path / "plane.json", tmp_path / "partition.json"
    assert run(capsys, "plane", "--q", "16", "--out", str(plane_file))[0] == 0
    assert run(capsys, "construct", "--q", "16", "--out", str(part_file))[0] == 0
    argv = [a.format(plane=plane_file, partition=part_file) for a in _REPEATED_COMMANDS[command]]
    argv += ["--out", str(tmp_path / "report")]

    def garbage(fmt):
        main(argv + ["--format", fmt])  # warm-up: builds the parser and the name table
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv + ["--format", fmt]) == 0
            gc.collect()
        finally:
            gc.set_debug(0)
        saved = list(gc.garbage)
        gc.garbage.clear()
        return saved

    assert garbage("text") == []
    # json.dumps with indent encodes through recursive closures, a cycle of
    # its own on each JSON report; none of it is the parser's
    assert not [o for o in garbage("json") if type(o).__module__ == "argparse"]


def test_usage_error_help_and_a_command_in_one_process(capsys):
    calls = [("plane",), ("--help",), ("verify", "--help"), ("bounds", "--q", "16")]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [2, 0, 0, 0]
    required = "planepart plane: error: the following arguments are required: --q\n"
    assert first[0][2].endswith(required)
    assert first[1][1].startswith("usage: planepart [-h]")
    assert first[2][1].startswith("usage: planepart verify [-h]")
    assert json.loads(first[3][1]) == analysis.lower_bound(16).to_doc()
    assert [run(capsys, *argv) for argv in calls] == first


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(child) for child in fh.read().split()]


@pytest.mark.skipif(sys.platform != "linux" or (os.cpu_count() or 1) < 2,
                    reason="reads /proc for the two pool workers")
def test_sigterm_to_the_main_process_ends_its_pool_workers():
    # search --q 3 runs for hours; only the main process is signalled
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "planepart.cli", "search", "--q", "3",
                             "--workers", "2"], env=env, start_new_session=True,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        # polled without a pause, so that the signal can land while the pool
        # is still starting its workers
        deadline = time.monotonic() + 30
        while len(workers := _children(proc.pid)) < 2:
            assert time.monotonic() < deadline, "no two pool workers within 30 s"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        for pid in workers:  # killed and reaped by the main process, not orphaned
            assert not os.path.exists(f"/proc/{pid}"), pid
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_a_command_turns_sigterm_into_exit_and_restores_the_previous_handler(
        capsys, monkeypatch):
    seen, bounds = [], cli._HANDLERS["bounds"]
    monkeypatch.setitem(cli._HANDLERS, "bounds", lambda args: seen.append(
        signal.getsignal(signal.SIGTERM)) or bounds(args))

    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert run(capsys, "bounds", "--q", "4")[0] == 0
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    with pytest.raises(SystemExit) as exited:
        seen[0](signal.SIGTERM, None)
    assert exited.value.code == 143


def test_a_command_that_runs_no_pool_does_not_import_multiprocessing(tmp_path):
    # the pool machinery is about 1.8 MB resident; verify, construct and
    # bounds never start a pool, so they do not pay for it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    script = (
        "import sys\nfrom planepart import cli\n"
        f"assert cli.main(['construct', '--q', '16', '--out', {str(tmp_path / 'p.json')!r}]) == 0\n"
        f"assert cli.main(['verify', '--q', '16', '--partition', {str(tmp_path / 'p.json')!r},"
        f" '--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
