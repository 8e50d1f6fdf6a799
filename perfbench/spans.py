"""In-memory spans around planepart's public functions, for the traced run.

Tracing is done from the benchmark's side only. ``Tracer.install`` replaces
each function listed in ``WRAPPED`` by a timing wrapper in every planepart
module namespace that holds it, and ``Tracer.uninstall`` puts the originals
back, so no file of the package changes. A span is the list
``[name, start, end, parent, job, note]``: ``parent`` is the index of the
enclosing span (None at the top), ``job`` is the job index (None during
set-up) and ``note`` is a number or flag taken from the call's result, or
the name of the exception it raised.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict


def _entries(args, kwargs, result):
    # vertices x family size; the family is the second positional argument
    family = args[1] if len(args) > 1 else kwargs["family"]
    return (len(result[0]) + len(result[1])) * len(family)


def _bytes_in(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    total = 0
    for flag in ("--plane", "--partition"):
        if flag in argv:
            total += os.path.getsize(argv[argv.index(flag) + 1])
    return total


# (layer module, public function, note taken from the call)
WRAPPED = (
    ("galois", "build_field", None),
    ("plane", "build_plane", None),
    ("plane", "load_plane", None),
    ("plane", "validate_axioms", None),
    ("metric", "packed_signatures", _entries),
    ("metric", "is_resolving", lambda a, k, r: r.resolving),
    ("metric", "partition_from_doc", None),
    ("metric", "partition_to_doc", None),
    ("construct", "construct_partition", None),
    ("construct", "result_to_doc", None),
    ("construct", "choose_frame", None),
    ("construct", "sample_zeta_sets", None),
    ("construct", "build_conflict_graph", lambda a, k, r: r.x_edge_count),
    ("construct", "build_h2", None),
    ("analysis", "randomized_upper_bound", lambda a, k, r: r is not None),
    ("analysis", "lower_bound", None),
    ("cli", "main", _bytes_in),
)

FIELD_OPS = ("add", "neg", "mul", "inv")

LAYERS = ("galois", "plane", "metric", "construct", "analysis", "cli", "bench")


class Tracer:
    """Records spans in memory; ``job`` is the index stamped on new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self.field_ops = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function of WRAPPED wherever a planepart module holds it."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "planepart" or name.startswith("planepart.")
        ]
        for layer, attr, note in WRAPPED:
            original = getattr(sys.modules[f"planepart.{layer}"], attr)
            traced = self._wrap(f"{layer}.{attr}", original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def counting_field_ops(self, field_cls):
        """Count calls to Field.add/neg/mul/inv while the block runs."""
        originals = {op: field_cls.__dict__[op] for op in FIELD_OPS}

        def counted(fn):
            def op(*args):
                self.field_ops += 1
                return fn(*args)

            return op

        for op, fn in originals.items():
            setattr(field_cls, op, counted(fn))
        try:
            yield
        finally:
            for op, fn in originals.items():
                setattr(field_cls, op, fn)

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, note) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job, "note": note}
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of its interval.
    """
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _attempt_outcomes(spans, children, root) -> list[str]:
    """Classify the attempts of one construct_partition call by how far each got.

    An attempt starts at sample_zeta_sets. One that never reaches build_h2
    stopped at the q/8 budget; build_h2 raising SelectionError is a
    selection failure; is_resolving saying no is a verify failure.
    """
    outcomes: list[str] = []
    for c in children[root]:
        name, note = spans[c][0], spans[c][5]
        if name == "construct.sample_zeta_sets":
            outcomes.append("budget")
        elif name == "construct.build_h2":
            outcomes[-1] = "selection" if note == "SelectionError" else "built"
        elif name == "metric.is_resolving":
            outcomes[-1] = "ok" if note else "verify"
    return outcomes


def summarize(
    tracer: Tracer, untraced: list[float], q: int, mask_bytes: int
) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit, scope).

    Set-up metrics cover the one traced set-up. Job times are self time per
    job; counts are totals over the traced jobs, which are the same jobs as
    the untraced ones timed in ``untraced``. ``mask_bytes`` is computed from
    the set-up plane's mask objects.
    """
    spans = tracer.spans
    own = self_times(spans)
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] is not None:
            children[rec[3]].append(i)
    setup_self: Counter = Counter()
    job_self: Counter = Counter()
    layer_self: Counter = Counter()
    calls: Counter = Counter()
    notes = defaultdict(list)
    for i, (name, _, _, _, job, note) in enumerate(spans):
        if job is None:
            setup_self[name] += own[i]
            continue
        job_self[name] += own[i]
        layer_self[name.split(".")[0]] += own[i]
        calls[name] += 1
        notes[name].append(note)
    traced = [end - start for name, start, end, _, job, _ in spans if name == "bench.job"]
    jobs = len(traced)

    outcomes = Counter()
    results = 0
    for i, rec in enumerate(spans):
        if rec[0] == "construct.construct_partition" and rec[4] is not None:
            outcomes.update(_attempt_outcomes(spans, children, i))
            results += rec[5] is None
    attempts = sum(outcomes.values())
    collision_evals = sum(
        1
        for rec in spans
        if rec[0] == "metric.packed_signatures"
        and rec[3] is not None
        and spans[rec[3]][0] == "analysis.randomized_upper_bound"
    )
    x_edges = notes["construct.build_conflict_graph"]
    witnesses = notes["analysis.randomized_upper_bound"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def setup(name):
        return setup_self[name], "s", "self time in the traced set-up"

    def per_job(*names):
        return sum(job_self[n] for n in names) / jobs, "s", "self time per job"

    def total(value, unit="count"):
        return value, unit, f"total over {jobs} traced jobs"

    m = {
        "galois.field_ops": (
            tracer.field_ops,
            "count",
            "Field.add/neg/mul/inv calls in the traced set-up",
        ),
        "galois.build_field_s": setup("galois.build_field"),
        "plane.build_s": setup("plane.build_plane"),
        "plane.mask_bytes": (mask_bytes, "B_computed", "sys.getsizeof of the set-up plane's masks"),
        "plane.load_s": per_job("plane.load_plane"),
        "plane.validate_s": per_job("plane.validate_axioms"),
        "metric.signatures_s": per_job("metric.packed_signatures"),
        "metric.signatures_calls": total(calls["metric.packed_signatures"]),
        "metric.signature_entries": total(sum(notes["metric.packed_signatures"])),
        "metric.is_resolving_s": per_job("metric.is_resolving"),
        "metric.partition_from_doc_s": per_job("metric.partition_from_doc"),
        "metric.partition_to_doc_s": per_job("metric.partition_to_doc"),
        "construct.frame_s": per_job("construct.choose_frame"),
        "construct.zeta_s": per_job("construct.sample_zeta_sets"),
        "construct.conflict_s": per_job("construct.build_conflict_graph"),
        "construct.h2_s": per_job("construct.build_h2"),
        "construct.self_s": per_job("construct.construct_partition", "construct.result_to_doc"),
        "construct.attempts_per_result": (
            attempts / results if results else 0.0,
            "ratio",
            f"{attempts} attempts for {results} partitions",
        ),
        "construct.obstruction.budget": total(outcomes["budget"]),
        "construct.obstruction.selection": total(outcomes["selection"]),
        "construct.obstruction.verify": total(outcomes["verify"]),
        "construct.x_edges": (
            mean(x_edges),
            "count",
            f"mean per attempt, against the q/8 budget of {q / 8:g}",
        ),
        "analysis.randomized_s": per_job("analysis.randomized_upper_bound"),
        "analysis.collision_evals": total(collision_evals),
        "analysis.witness_rate": (
            mean(witnesses),
            "ratio",
            f"witnesses found in {len(witnesses)} randomized_upper_bound calls",
        ),
        "cli.self_s": per_job("cli.main"),
        "cli.bytes_in": (
            sum(notes["cli.main"]) / jobs,
            "B",
            "plane and partition file bytes per job",
        ),
    }
    for layer in LAYERS:
        m[f"{layer}.job_self_s"] = (
            layer_self[layer] / jobs,
            "s",
            f"self time per job of all {layer} spans",
        )
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    traced_mean = mean(traced)
    untraced_mean = mean(untraced)
    m.update(
        {
            "trace.jobs": (jobs, "count", "jobs run both untraced and traced"),
            "trace.spans": total(len(spans)),
            "trace.job_p50_s": (traced_p50, "s", "median traced job"),
            "trace.untraced_job_p50_s": (untraced_p50, "s", "median untraced job"),
            "trace.overhead_p50_s": (
                traced_p50 - untraced_p50,
                "s",
                "traced minus untraced median",
            ),
            "trace.job_mean_s": (traced_mean, "s", "mean traced job"),
            "trace.untraced_job_mean_s": (untraced_mean, "s", "mean untraced job"),
            "trace.overhead_s": (traced_mean - untraced_mean, "s", "traced minus untraced mean"),
            "trace.self_sum_s": (
                sum(layer_self.values()) / jobs,
                "s",
                "sum of the layers' job_self_s; equals untraced mean plus overhead",
            ),
        }
    )
    return m
