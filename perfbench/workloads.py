"""The benchmark's three workloads: set-up, one job, and the check of its output.

Every call into planepart goes through a module attribute at call time
(``construct.construct_partition``, ``cli.main``, ...), so the traced run's
wrappers see it. Each workload has:

- ``setup()``: builds what the jobs need; timed for ``setup_s``. It first
  drops the previous set-up, so repeated set-ups do not stack in memory.
- ``prepare_checks()``: derives the expected outputs; not timed.
- ``job(i)``: one timed job; ``output(i, raw)`` then collects what the job
  left behind, outside the timed region.
- ``check(i, out)``: None when the output is right, else the reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

from planepart import analysis, cli, construct, metric
from planepart import plane as plane_mod

HERE = Path(__file__).resolve().parent


def independent_resolves(plane_doc: dict, partition_doc: dict) -> bool:
    """Whether a partition document resolves a plane document.

    Distances come from a breadth-first search out of each class over the
    incidence lists of the plane document, not from planepart's metric
    code. The classes must cover every vertex exactly once, and all 2n
    distance vectors must differ.
    """
    lines = plane_doc["lines"]
    n = len(lines)
    size = 2 * n

    def vertex(name: str) -> int:
        index = int(name[1:])
        if not 0 <= index < n or name[0] not in "PL":
            raise ValueError(f"bad vertex {name!r}")
        return index if name[0] == "P" else n + index

    adjacency: list[list[int]] = [[] for _ in range(size)]
    for entry in lines:
        li = vertex(entry["id"])
        for name in entry["points"]:
            p = vertex(name)
            adjacency[p].append(li)
            adjacency[li].append(p)
    classes = [[vertex(m) for m in c["members"]] for c in partition_doc["classes"]]
    owner = [-1] * size
    for c, members in enumerate(classes):
        for v in members:
            if owner[v] != -1:
                return False
            owner[v] = c
    if -1 in owner:
        return False
    vectors: list[list[int]] = [[] for _ in range(size)]
    for members in classes:
        dist = [-1] * size
        for v in members:
            dist[v] = 0
        frontier, d = members, 0
        while frontier:
            d += 1
            reached = []
            for v in frontier:
                for w in adjacency[v]:
                    if dist[w] < 0:
                        dist[w] = d
                        reached.append(w)
            frontier = reached
        for v in range(size):
            vectors[v].append(dist[v])
    return len(set(map(tuple, vectors))) == size


def _run_cli(argv):
    """Call the CLI in-process with its standard error sent to a sink."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink


def _take(path: str):
    """Read and delete a file the CLI wrote; None when it wrote nothing."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return text


class ConstructQ128:
    """construct_partition on PG(2,128) over consecutive seeds."""

    name = "construct_q128"
    q = 128
    # k + l + 2 = (ceil(3 log2 128) + 3) + ceil(log2 128) + 2
    classes = 33
    est_job_s = 2.2
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.plane = None
        recorded = json.loads((HERE / "construct_q128_digests.json").read_text())
        self.digests = recorded["sha256"]

    def setup(self):
        self.plane = None
        self.plane = plane_mod.build_plane(self.q)

    def prepare_checks(self):
        pass

    def job(self, i):
        result = construct.construct_partition(self.plane, seed=self.seed + i)
        return json.dumps(construct.result_to_doc(result, self.plane), sort_keys=True)

    def output(self, i, raw):
        return raw

    def check(self, i, text):
        seed = self.seed + i
        recorded = self.digests.get(str(seed))
        if recorded is not None:
            if hashlib.sha256(text.encode()).hexdigest() != recorded:
                return f"seed {seed}: output differs from the recorded digest"
            return None
        doc = json.loads(text)
        if doc["metadata"]["q"] != self.q or doc["metadata"]["seed"] != seed:
            return f"seed {seed}: metadata {doc['metadata']} names another run"
        if len(doc["classes"]) != self.classes:
            return f"seed {seed}: {len(doc['classes'])} classes, expected {self.classes}"
        partition = metric.partition_from_doc(doc, self.plane)
        if not metric.is_resolving(self.plane, partition).resolving:
            return f"seed {seed}: partition is not resolving"
        return None


class VerifyFileQ32:
    """``planepart verify --plane FILE`` at q=32 over three fixed inputs.

    Job i uses input i % 3: a resolving partition of a valid plane (exit
    0), the split {all points} / {all lines} of the same plane (exit 1),
    and the resolving partition against the plane with one incidence
    moved (exit 2).
    """

    name = "verify_file_q32"
    q = 32
    est_job_s = 0.25
    cycle = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.plane = None
        self.files = {
            k: str(workdir / f"{k}.json") for k in ("plane", "moved", "partition", "split")
        }
        self.out = str(workdir / "verdict.json")

    def setup(self):
        self.plane = None
        self.plane = plane_mod.build_plane(self.q)
        self.plane_doc = plane_mod.plane_to_doc(self.plane)
        result = construct.construct_partition(self.plane, seed=self.seed)
        self.partition_doc = construct.result_to_doc(result, self.plane)
        n = self.plane.n
        self.split_doc = {
            "q": self.q,
            "classes": [
                {"name": "points", "members": [f"P{i}" for i in range(n)]},
                {"name": "lines", "members": [f"L{i}" for i in range(n)]},
            ],
        }
        self.moved_doc = self._move_incidence(self.plane_doc, random.Random(self.seed))
        docs = {
            "plane": self.plane_doc,
            "moved": self.moved_doc,
            "partition": self.partition_doc,
            "split": self.split_doc,
        }
        for key, doc in docs.items():
            with open(self.files[key], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        f = self.files
        self.inputs = [
            (f["plane"], f["partition"]),
            (f["plane"], f["split"]),
            (f["moved"], f["partition"]),
        ]

    @staticmethod
    def _move_incidence(doc, rng):
        """Move one point of one line to a point off that line.

        The line keeps q+1 distinct points and every point still occurs,
        but the old point now lies on q lines and the new one on q+2, so
        the document breaks the point-degree axiom.
        """
        lines = [{"id": e["id"], "points": list(e["points"])} for e in doc["lines"]]
        entry = rng.choice(lines)
        on_line = set(entry["points"])
        off_line = [f"P{p}" for p in range(len(lines)) if f"P{p}" not in on_line]
        entry["points"][rng.randrange(len(entry["points"]))] = rng.choice(off_line)
        return {"q": doc["q"], "lines": lines}

    def prepare_checks(self):
        # The split is provably not resolving: every point is at distance
        # (0, 1) from (points, lines) and every line at (1, 0).
        n = self.plane.n
        self.expected = [
            {
                "q": self.q,
                "classes": len(self.partition_doc["classes"]),
                "resolving": True,
                "collision_groups": [],
            },
            {
                "q": self.q,
                "classes": 2,
                "resolving": False,
                "collision_groups": [
                    [f"P{i}" for i in range(n)],
                    [f"L{i}" for i in range(n)],
                ],
            },
            None,
        ]
        self.partition_resolves = independent_resolves(self.plane_doc, self.partition_doc)
        if os.path.exists(self.out):
            os.remove(self.out)

    def job(self, i):
        plane_file, partition_file = self.inputs[i % 3]
        return _run_cli(
            ["verify", "--plane", plane_file, "--partition", partition_file, "--out", self.out]
        )

    def output(self, i, raw):
        code, sink = raw
        return code, _take(self.out), sink.getvalue()

    def check(self, i, out):
        code, text, err = out
        kind = i % 3
        if code != kind:
            return f"input {kind}: exit {code}, expected {kind}"
        if kind == 2:
            if text is not None:
                return "moved-incidence plane: a verdict was written"
            if not err.startswith("error: axiom violation"):
                return f"moved-incidence plane: stderr {err[:80]!r} names no axiom violation"
            return None
        if kind == 0 and not self.partition_resolves:
            return "constructed partition fails the independent resolving check"
        if text is None or json.loads(text) != self.expected[kind]:
            return f"input {kind}: verdict document differs from the expected one"
        return None


class SearchRandomQ4:
    """``planepart search --method randomized`` on PG(2,4) over consecutive seeds."""

    name = "search_random_q4"
    q = 4
    est_job_s = 0.55
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.plane = None
        self.out = str(workdir / "search.json")

    def setup(self):
        self.plane = None
        self.plane = plane_mod.build_plane(self.q)
        self.lower = analysis.lower_bound(self.q).total

    def prepare_checks(self):
        self.plane_doc = plane_mod.plane_to_doc(self.plane)
        if os.path.exists(self.out):
            os.remove(self.out)

    def job(self, i):
        return _run_cli(
            [
                "search", "--q", "4", "--method", "randomized", "--tmin", "4",
                "--tmax", "26", "--trials", "8", "--seed", str(self.seed + i),
                "--workers", "1", "--out", self.out,
            ]
        )

    def output(self, i, raw):
        code, sink = raw
        return code, _take(self.out), sink.getvalue()

    def check(self, i, out):
        code, text, _ = out
        if code != 0 or text is None:
            return f"seed {self.seed + i}: exit {code}"
        doc = json.loads(text)
        upper = doc.get("upper")
        if doc.get("q") != self.q or doc.get("method") != "randomized" or "witness" not in doc:
            return f"seed {self.seed + i}: report lacks q, method or witness"
        if len(doc["witness"]["classes"]) != upper:
            size = len(doc["witness"]["classes"])
            return f"seed {self.seed + i}: witness has {size} classes, upper is {upper}"
        if upper < self.lower:
            return f"seed {self.seed + i}: upper {upper} is below the lower bound {self.lower}"
        if not independent_resolves(self.plane_doc, doc["witness"]):
            return f"seed {self.seed + i}: witness is not resolving"
        return None


WORKLOADS = {w.name: w for w in (ConstructQ128, VerifyFileQ32, SearchRandomQ4)}
