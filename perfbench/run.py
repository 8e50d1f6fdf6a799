"""Closed-loop benchmark of planepart: one client, one workload per process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload construct_q128 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

A run sets the workload up several times (``setup_s`` is the median), then
sends jobs one after another, each only after the previous one returned,
until ``--seconds`` have passed. Outputs are checked after the timed loop.
Timings are reported in reference seconds: a fixed probe, timed before
and after each job and set-up, scales them to a fixed machine speed (see
``probe`` and DESIGN.md). With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same jobs run once untraced
and once with spans around planepart's public functions, and the JSON holds
the per-layer metrics. ``--workload all`` runs every workload, each in a
fresh interpreter. See DESIGN.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
NAMES = ("construct_q128", "verify_file_q32", "search_random_q4")

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 5000
TAIL_BEYOND = 10
# Calibration: the probe's time on a machine running at reference speed,
# and the least set-up or job time between two probes.
PROBE_REFERENCE_S = 0.005
PROBE_EVERY_S = 0.05


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    The percentile never goes below the median: with fewer than 21 samples
    no percentile above the median has ten samples beyond it, and the
    median is reported. At 21 samples both rules pick the median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


_PROBE_MASKS = [random.Random(n).getrandbits(2048) for n in range(64)]


def probe() -> float:
    """Time a fixed piece of pure-Python work like planepart's own.

    It ANDs and counts bits of 2048-bit integers, then does small-integer
    arithmetic and dict stores. The host of this benchmark changes speed by
    up to a fifth over seconds to tens of seconds; probes interleaved with
    the work sample the speed the work ran at.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for mi in _PROBE_MASKS:
        for mj in _PROBE_MASKS:
            acc += (mi & mj).bit_count()
    for i in range(12000):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - t0


class Probes:
    """Timed steps, each scaled by the probes just before and just after it.

    A probe is taken at the start, then after every step, or after every
    group of steps that together reach PROBE_EVERY_S; each probe is the
    median of three probe() calls.
    """

    def __init__(self):
        self.measured: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._before = self._probe()

    @staticmethod
    def _probe() -> float:
        return statistics.median(probe() for _ in range(3))

    def after(self, seconds: float):
        self.measured.append(seconds)
        self._pending.append(seconds)
        if sum(self._pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        """Probe now and scale the steps since the last probe."""
        if self._pending:
            after = self._probe()
            k = PROBE_REFERENCE_S / ((self._before + after) / 2)
            self.scaled += [t * k for t in self._pending]
            self._pending = []
            self._before = after


def one_job(workload, i, tracer=None):
    """Run job i once; (latency, output). With a tracer, the job is traced.

    A job that raises is not retried: its exception is its output, and the
    checks count it as failed.
    """
    if tracer is not None:
        tracer.job = i
        tracer.install()
    try:
        t0 = time.perf_counter()
        if tracer is None:
            raw = workload.job(i)
            latency = time.perf_counter() - t0
        else:
            with tracer.span("bench.job") as rec:
                raw = workload.job(i)
            latency = rec[2] - rec[1]
    except Exception as exc:
        return time.perf_counter() - t0, exc
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.job = None
    return latency, workload.output(i, raw)


def run_jobs(workload, seconds, probes):
    """Closed loop: run jobs one after another until the time is up.

    The loop runs at least one job and stops only after a whole cycle of
    the workload's inputs. Each latency goes to ``probes``, whose probes
    run between jobs, outside the timing. Returns the outputs.
    """
    outputs = []
    start = time.perf_counter()
    i = 0
    while i == 0 or i % workload.cycle or time.perf_counter() - start < seconds:
        latency, out = one_job(workload, i)
        probes.after(latency)
        outputs.append(out)
        i += 1
    return outputs


def check_all(workload, outputs) -> list[str]:
    """Reasons for every output that fails its check."""
    failures = []
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failures.append(f"job {i} raised {type(out).__name__}: {out}")
            continue
        try:
            reason = workload.check(i, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"job {i}: unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            failures.append(reason)
    return failures


def mask_bytes(plane) -> int:
    """Computed size of the plane's incidence masks and their two lists."""
    masks = plane.line_masks + plane.point_masks
    return sum(map(sys.getsizeof, masks)) + sys.getsizeof(plane.line_masks) + sys.getsizeof(
        plane.point_masks
    )


def measure(workload, seconds):
    """The untraced run: end-to-end metrics as name -> (value, unit, detail).

    Times are in reference seconds: each set-up and each job is scaled by
    the probe that follows it, to the speed at which probe() takes
    PROBE_REFERENCE_S. The details give the measured values.
    """
    setups = Probes()
    while len(setups.measured) < SETUP_REPEATS or (
        sum(setups.measured) < SETUP_MIN_S and len(setups.measured) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        workload.setup()
        setups.after(time.perf_counter() - t0)
    setups.flush()
    workload.prepare_checks()
    jobs = Probes()
    outputs = run_jobs(workload, seconds, jobs)
    jobs.flush()
    failures = check_all(workload, outputs)
    n = len(outputs)
    latencies = jobs.scaled
    tail_value, pct = tail(latencies)
    metrics = {
        "setup_s": (
            statistics.median(setups.scaled),
            "s",
            f"median of {len(setups.measured)} set-ups; measured "
            f"{statistics.median(setups.measured):.6g} s",
        ),
        "jobs_per_s": (
            n / sum(latencies),
            "1/s",
            f"{n} jobs at q={workload.q}, one client; measured {n / sum(jobs.measured):.6g} /s",
        ),
        "job_p50_s": (
            statistics.median(latencies),
            "s",
            f"median of {n} samples; measured {statistics.median(jobs.measured):.6g} s",
        ),
        "job_tail_s": (
            tail_value,
            "s",
            f"p{pct:.1f} of {n} samples, {sum(x > tail_value for x in latencies)} beyond it; "
            f"measured {tail(jobs.measured)[0]:.6g} s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
            "peak resident set of this process",
        ),
        "failed_frac": (len(failures) / n, "fraction", f"{len(failures)} of {n} jobs failed"),
    }
    return metrics, n, failures


def measure_traced(workload, seconds):
    """The traced run: per-layer metrics as name -> (value, unit, detail).

    A fixed number of jobs, set by ``--seconds``, runs twice each, untraced
    and traced, so counts repeat exactly for a given seed and ``--seconds``.
    """
    from planepart import galois

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.counting_field_ops(galois.Field), tracer.span("bench.setup"):
            workload.setup()
    finally:
        tracer.uninstall()
    workload.prepare_checks()
    count = max(1, round(seconds / workload.est_job_s / workload.cycle)) * workload.cycle
    untraced, plain, traced = [], [], []
    for i in range(count):
        # alternate which of the pair runs first, so drift favours neither
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            latency, out = one_job(workload, i, tracer if with_tracer else None)
            if with_tracer:
                traced.append(out)
            else:
                untraced.append(latency)
                plain.append(out)
    failures = check_all(workload, plain)
    failures += [
        f"job {i}: traced output differs" for i, (a, b) in enumerate(zip(plain, traced)) if a != b
    ]
    layer = summarize(tracer, untraced, workload.q, mask_bytes(workload.plane))
    gap = layer["trace.self_sum_s"][0] - layer["trace.job_mean_s"][0]
    if abs(gap) > 1e-9 * max(1.0, layer["trace.job_mean_s"][0]):
        failures.append(f"layer self times miss the traced job time by {gap} s")
    tracer.write(WORKDIR / f"spans-{workload.name}-seed{workload.seed}.jsonl.gz")
    return layer, 2 * count, failures


def report(metrics, attempted, failures, reported):
    """Print one line per metric, the failures, and the JSON result line."""
    for name, (value, unit, detail) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit:<10} {detail}")
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Run every workload in its own interpreter and print their results."""
    results = {}
    for name in NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "planepart" / "__init__.py").is_file():
        print(f"error: no planepart sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print(
            f"workload {args.workload} seed {args.seed} "
            f"seconds {args.seconds:g} trace {args.trace}"
        )
        if args.trace:
            metrics, attempted, failures = measure_traced(workload, args.seconds)
            reported = list(metrics)
        else:
            metrics, attempted, failures = measure(workload, args.seconds)
            reported = [k for k in metrics if k != "failed_frac"]
        report(metrics, attempted, failures, reported)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
