"""CI's command-line checks: a table of pinned commands and one runner.

Run ``python -m pytest -q ci`` from the root of the repository, with or without the
package installed; tier-1 does not collect it. Times are wall s on 2 cores, Python 3.11.
"""

import contextlib
import ctypes
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from array import array
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from planepart import cli  # noqa: E402
from planepart.galois import build_field, prime_power  # noqa: E402

ENV = {name: value for name, value in os.environ.items() if name != "PLANEPART_LOG"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))


class Pin(NamedTuple):
    args: str  # planepart's arguments; {d} is the directory of the files fixture
    timeout: float = 60  # seconds until the command's process group is killed
    code: int = 0  # expected exit code
    sha: str | None = None  # sha256 of stdout
    stderr: str | None = None  # all of stderr
    has: tuple[str, ...] = ()  # substrings of stdout
    workers: bool = False  # runs at --workers 1 and 2 print the same bytes
    verified: bool = False  # verify, every vertex signed, accepts stdout on the same plane


HUGE = "error: order {} is too large: orders must be below 3317044064679887385961981\n"
PARTITIONS = [(125, "built125"), (128, "partition128"), (32, "partition32"), (31, "partition31")]
RESOLVING = '"resolving": true'

PINS = [
    # construct signs only the vertices its conflict stage left grouped, so
    # verify signs every class for every vertex. About 1.9 s and 1.7 s, mostly PG(2,256)'s build.
    Pin("construct --q 256 --seed 7", verified=True,
        sha="43135eeec20c5549590e85e9c6e5ad47b73bb8cbcf28fbd5595c47dd6d9bc48d"),
    # Each trial is construct's first stage: zeta draws, conflict graph. About 0.3 s a run.
    Pin("estimate --q 64 --trials 24 --seed 0", workers=True,
        sha="a1e3e5e5e358567feee9b2f82f554972cf2a5d78ea8a0c0fefd317744e4f5fe4"),
    # About 0.6 s with O(q) move scoring; rescoring all vertices per move took 72 s.
    Pin("search --q 16 --method randomized --tmin 10 --tmax 12 --trials 1 --seed 0 --workers 1",
        sha="c96d737d3cd6a4b525a738cb4215b7ab9787547539b7aa447a6625c1248e41ad"),
    # About 0.3 s. Most scans are skipped here; the pin holds the output to a full scan's.
    Pin("search --q 32 --method randomized --tmin 20 --tmax 22 --trials 1 --seed 0 --workers 1",
        sha="b292896484d96dc41ca5d05347191189d4a9396eaffc671f954cadca85b88103"),
    # 1 worker scans a level in one recursion, 2 split it into pool prefixes: 1.6 s and 1.1 s.
    Pin("search --q 2", 120, workers=True, has=('"pd": 4',),
        sha="f5ebbc05f01651704b98d0b982fa2b9b2fdea4a934c66386c85f2629e72b6888"),
    # The budget runs out at level 3. A pool caps each prefix at the budget less the counts
    # returned before it, so the nodes and output are one recursion's. 1 s and 0.7 s.
    Pin("search --q 2 --budget 500000", 120, workers=True, has=('"nodes": 500000',),
        sha="c7d76455db7e52517e05bfb47dee8f8bb2c68c900eba7c6e5bb39334cb7b8cc2"),
    # Level 4 holds a witness; the lower end is the counting bound, 3, as level 3 is unscanned.
    Pin("search --q 2 --tmin 4", workers=True, has=('"lower": 3', '"upper": 4')),
    # About 0.2 s with codes from class counts; a BFS table of all pairs took 69 s.
    Pin("search --q 16 --budget 1000 --workers 1", 30,
        sha="37e1c3f061e0ad16978028f52bbeea2a4eed6e5685cd0036bb7453bcf6dae894"),
    # 2 * (10**18 + 3), 10**18 + 3 prime, has no exact root above the first,
    # and the primality test's first base divides it. Trial division takes minutes.
    Pin("plane --q 2000000000000000006", 10, code=2,
        stderr="error: 2000000000000000006 is not a prime power\n"),
    # Refused from q alone; building PG(2,512) ran out of memory instead.
    Pin("plane --q 512", 10, code=2, stderr="error: plane of order 512 needs about 10.3 GB "
        "to hold, above the limit of 4.29 GB\n"),
    # 10**18 + 3 is prime: Miller-Rabin on 13 bases decides it at once, trial
    # division takes minutes. 114 * 2**113 >= q*q + q + 1 > 113 * 2**112.
    Pin("bounds --q 1000000000000000003", 10, has=('"total": 114',),
        sha="b7ed2f3f5992087800af6bf9d9c15b0dea8731030128472e6ec5933065c1bbdc"),
    # Miller-Rabin on 13 bases is exact only below the limit, so orders from it up are
    # refused before any root is taken; 10**4000 + 1 has 4001 digits, within the CLI's 4300.
    *(Pin(f"bounds --q {q}", 5, code=2, stderr=HUGE.format(q))
      for q in (3317044064679887385961981, 10**4000 + 1)),
    # About 0.7 s: the JSON decode, then one read comparing each line's names with the built row's.
    Pin("verify --plane {d}/plane128.json --partition {d}/partition128.json"),
    # L1's first point replaced by the first point off L1 leaves that point on 128 lines. The
    # loader counts the rows' ids before it sorts a row or builds a mask. About 0.8 s.
    Pin("verify --plane {d}/moved128.json --partition {d}/partition128.json", code=2,
        stderr="error: axiom violation (point-degree): point P0 lies on 128 lines, expected 129\n"),
    # P16385 (L0 only) and P256 (L1 only) swapped keep sizes and degrees: the pair check. 2.1 s.
    Pin("verify --plane {d}/corrupt128.json --partition {d}/partition128.json", code=2,
        stderr="error: axiom violation (point-pair): points P0 and P256 lie on 0 common lines\n"),
    # Pi and Li renamed P(n-1-i) and L(n-1-i) are not the built rows, so the full loader's
    # parse, transpose, masks and validate_axioms run: PG(2,125) and PG(2,128) pass. 3.5 s, 3.9 s.
    *(Pin(f"verify --plane {{d}}/relabelled_plane{q}.json --partition {{d}}/relabelled_{p}.json",
          has=(RESOLVING,)) for q, p in PARTITIONS[:2]),
    # construct finds its meets in the masks that loader built. 2.8 s, and its verify 3.5 s.
    Pin("construct --plane {d}/relabelled_plane125.json --seed 0", verified=True,
        sha="169d58b28166c736a45b47967e2ac492d6a7ec6454bc74f700430f4d745cc7b2"),
]


def run(args, timeout=60, cwd=None):
    """(exit code, stdout, stderr) of planepart with a shell-quoted argument string."""
    argv = [sys.executable, "-m", "planepart.cli", *shlex.split(args, comments=True)]
    proc = subprocess.Popen(argv, env=ENV, start_new_session=True, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:  # kill and reap the process group, pool workers included
        if sys.platform == "linux":  # so that the orphaned workers become our children
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(36, 1)  # PR_SET_CHILD_SUBREAPER
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        with contextlib.suppress(ChildProcessError):
            while True:
                os.waitpid(-proc.pid, 0)
        pytest.fail(f"{args[:60]}: no exit within {timeout} s; process group {proc.pid} killed")
    return proc.returncode, out, err


def check(pin, d=None, tmp=None):
    """Run a pin and assert each of its expectations."""
    args = pin.args.format(d=d)
    code, out, err = run(f"{args} --workers 1" if pin.workers else args, pin.timeout)
    assert code == pin.code, err.decode()
    assert pin.stderr in (None, err.decode()), err.decode()
    assert pin.sha in (None, hashlib.sha256(out).hexdigest())
    assert all(text in out.decode() for text in pin.has), pin.has
    if pin.workers:
        assert run(f"{args} --workers 2", pin.timeout)[:2] == (pin.code, out)
    if pin.verified:
        (tmp / "partition.json").write_bytes(out)
        source = " ".join(args.split()[1:3])  # --q Q or --plane FILE
        code, report, _ = run(f"verify {source} --partition {tmp}/partition.json")
        assert (code, RESOLVING in report.decode()) == (0, True)


@pytest.mark.parametrize("pin", PINS, ids=[pin.args[:60] for pin in PINS])
def test_pin(pin, request, tmp_path):
    check(pin, request.getfixturevalue("files") if "{d}" in pin.args else None, tmp_path)


def renamed(doc, rename):
    """A plane or partition document with every vertex name renamed."""
    for entry in doc.get("lines", ()):
        entry["id"], entry["points"] = rename(entry["id"]), list(map(rename, entry["points"]))
    for entry in doc.get("classes", ()):
        entry["members"] = list(map(rename, entry["members"]))
    return doc


def moved(plane):
    """The first point of L1 replaced by the first point off L1."""
    points = plane["lines"][1]["points"]
    points[0] = next(f"P{p}" for p in range(len(plane["lines"])) if f"P{p}" not in points)
    return plane


def swapped(plane):
    """P16385 on L0 and P256 on L1 exchanged."""
    l0, l1 = plane["lines"][0]["points"], plane["lines"][1]["points"]
    l0[l0.index("P16385")], l1[l1.index("P256")] = "P256", "P16385"
    return plane


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Plane and partition files at q = 125, 128, 32 and 31, and files edited from them."""
    d = tmp_path_factory.mktemp("pins")
    for q, partition in PARTITIONS:
        assert run(f"plane --q {q} --out {d}/plane{q}.json")[0] == 0
        assert run(f"construct --q {q} --seed 0 --out {d}/{partition}.json")[0] == 0

    def edit(source, target, change, *extra):
        doc = json.loads((d / f"{source}.json").read_text())
        (d / f"{target}.json").write_text(json.dumps(change(doc, *extra)))

    for q, partition in PARTITIONS[:2]:
        n = q * q + q + 1
        for source in f"plane{q}", partition:
            edit(source, f"relabelled_{source}", renamed, lambda x: f"{x[0]}{n - 1 - int(x[1:])}")
    for source in "plane32", "partition32":
        edit(source, f"padded_{source}", renamed, lambda x: f"{x[0]}{int(x[1:]):04d}")
    edit("plane128", "moved128", moved)
    edit("plane128", "corrupt128", swapped)
    return d


def test_readme_command_line_examples_exit_0(tmp_path):
    # Each planepart line of the README's "Command line" block, in order, in
    # an empty directory; later lines read the files earlier ones write. About 1.8 s.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", readme, re.M | re.S)[1]
    commands = [line for line in block.splitlines() if line.startswith("planepart ")]
    assert commands
    for command in commands:
        code, _, err = run(command.removeprefix("planepart "), cwd=tmp_path)
        assert code == 0, (command, err.decode())


def test_field_tables_up_to_order_1024_are_pinned():
    # One sha256 over the product and sum tables of GF(q) for every prime
    # power q <= 1024, each q as 4 bytes then both tables row by row as
    # little-endian 16-bit entries; about 18 s, almost all of it in tables().
    # Orders 343, 512, 625, 729 and 1024 have no plane pin.
    start, digest = time.monotonic(), hashlib.sha256()
    for q in range(2, 1025):
        try:
            pe = prime_power(q)
        except ValueError:
            continue
        digest.update(q.to_bytes(4, "little"))
        for table in build_field(*pe).tables():
            packed = array("H", chain.from_iterable(table))
            if sys.byteorder == "big":
                packed.byteswap()
            digest.update(packed)
    assert digest.hexdigest() == "06821c8c43b48064102c37a457a8752ecd1ea011a692730ac7e6aae525a390d5"
    assert time.monotonic() - start < 120


def test_zero_padded_q32_names_verify_like_canonical_ones(files):
    # Zero-padded names ("P0007", "L0007") miss the name comparison and the
    # parse's name tables, so the padded file runs the full loader: the
    # per-name parse, transpose, masks and validate_axioms. About 0.15 s.
    canonical, padded = (run(f"verify --plane {files}/{prefix}plane32.json --partition "
                             f"{files}/{prefix}partition32.json") for prefix in ("", "padded_"))
    assert canonical == padded and canonical[0] == 0 and RESOLVING in canonical[1].decode()


def test_repeated_in_process_commands_match_one_shot_commands(files, tmp_path):
    # One process verifies the q=32 file, the zero-padded one, a q=31 file
    # and the q=32 file again, so the parser built once and the name table
    # kept for the last order serve calls of two orders and both loaders.
    runs = [f"verify --plane {files}/{plane}.json --partition {files}/{partition}.json --out"
            for plane, partition in [("plane32", "partition32"), ("padded_plane32",
            "padded_partition32"), ("plane31", "partition31"), ("plane32", "partition32")]]
    for i, args in enumerate(runs):
        assert cli.main([*args.split(), f"{tmp_path}/{i}.in"]) == 0, args
    for i, args in enumerate(runs):
        assert run(f"{args} {tmp_path}/{i}.out")[0] == 0
        assert (tmp_path / f"{i}.in").read_bytes() == (tmp_path / f"{i}.out").read_bytes(), args


def test_built_and_loaded_q125_planes_give_the_same_partition(files, tmp_path):
    # The file lists the built plane's rows, so it loads as the built plane.
    loaded = tmp_path / "loaded125.json"
    assert run(f"construct --plane {files}/plane125.json --seed 0 --out {loaded}")[0] == 0
    assert loaded.read_bytes() == (files / "built125.json").read_bytes()


@pytest.mark.parametrize("wrong", [{"sha": "0" * 64}, {"code": 1}, {"stderr": "error\n"}])
def test_runner_fails_a_wrong_pin(wrong):
    pin = Pin("bounds --q 16", 10, stderr="",
              sha="849037883d826d243746f8e6e25a39af08df8845a44521002e1ec866be2666d1")
    check(pin)
    with pytest.raises(AssertionError):
        check(pin._replace(**wrong))


@pytest.mark.skipif(sys.platform != "linux", reason="the runner reaps pool workers on Linux")
def test_runner_kills_a_timed_out_command_with_its_pool():
    with pytest.raises(pytest.fail.Exception, match="no exit within 1 s") as failed:
        run("search --q 3 --workers 2", 1)  # runs for hours
    with pytest.raises(ProcessLookupError):
        os.killpg(int(re.search(r"process group (\d+)", str(failed.value))[1]), 0)
