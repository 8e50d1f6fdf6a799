"""Command line surface for reproducible batch runs.

Exit codes: 0 success (and a resolving verify verdict), 1 verify found
collisions, 2 usage or input error, 3 construction failed after retries,
143 terminated by SIGTERM (a command turns it into ``SystemExit(143)``,
so cleanup such as killing pool workers runs). JSON is the machine
format; text renders the same data for humans. The environment variable
PLANEPART_LOG (debug or info) turns on diagnostics on standard error.

A ``--plane`` file is read as text and handed to ``plane.read_plane``: a
canonical text, the bytes ``planepart plane`` writes, is compared with the
built PG(2,q) and never becomes a document; any other text is decoded and
loaded as a document by ``plane.load_plane``, which parses it and checks the
axioms. Either way a file that is not UTF-8 or not JSON, or that nests too
deeply, is an input error naming the file.

Each command runs with Python's cyclic garbage collector paused: ``main``
records ``gc.isenabled()``, disables the collector before parsing and
restores the recorded state however it returns or raises. The library
functions (``build_plane``, ``load_plane``, ``construct_partition``,
``randomized_upper_bound``, ``exhaustive_pd``, ...) keep Python's default.
A command allocates almost only acyclic data (row tuples, decoded JSON,
signature ints, verdict lists), which reference counting frees, yet the
collector traverses it: a tuple stays tracked until a collection visits
it, so PG(2,q)'s rows are scanned again and again while they are built.
Pausing only the build moves that work into the next collection, so the
pause spans the whole command. That is safe because a command makes few
cycles, bounded in number, and they are collected once the collector is
back on: a JSON report's (about 33 objects, the recursive closures that
``json.dumps`` with an indent encodes through), argparse's help
formatters on a usage error or ``--help``, and none that grows with the
work, since ``analysis._scan_completions`` drops its recursive closure
when it returns. A text report leaves none. Forked pool workers inherit
the pause and run the same code.

``build_parser`` builds the parser once per process, and every ``main``
call parses with it: building leaves cyclic garbage (its actions and help
formatters), where a parse makes a new ``Namespace`` and argparse keeps no
state between parses. Logging is still configured on every call, because
its handler binds ``sys.stderr`` as it is then, which callers and tests
redirect.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import logging
import os
import signal
import sys
import threading
from typing import Iterable

from . import analysis, construct, metric, plane as plane_mod

EXIT_OK = 0
EXIT_NOT_RESOLVING = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3

_MAX_SEED = (1 << 64) - 1

log = logging.getLogger("planepart.cli")


def _configure_logging() -> None:
    level_name = os.environ.get("PLANEPART_LOG", "").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("planepart")
    root.handlers[:] = [handler]
    root.setLevel(level)


def _seed(value: str) -> int:
    n = int(value)
    if not 0 <= n <= _MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return n


def _add_plane_source(parser):
    parser.add_argument("--q", type=int, help="order of the plane to build")
    parser.add_argument("--plane", metavar="FILE", help="plane JSON document to load")


def _resolve_plane(args):
    if (args.q is None) == (args.plane is None):
        raise ValueError("exactly one of --q and --plane is required")
    if args.q is not None:
        return plane_mod.build_plane(args.q)
    with _naming_decode_errors(args.plane):  # the text is not kept here, so a decode can free it
        return plane_mod.read_plane(_read_text(args.plane))


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; ValueError naming the file when it cannot be decoded."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None


@contextlib.contextmanager
def _naming_decode_errors(path: str):
    """Turn a JSON decode error of the file's text into a ValueError naming the file."""
    try:
        yield
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply to read") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def _read_json(path: str):
    """The JSON document in a file; ValueError naming the file when it cannot be decoded."""
    text = _read_text(path)
    with _naming_decode_errors(path):
        return json.loads(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planepart",
        description="Resolving partitions of projective plane incidence graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plane", help="build PG(2,q) and emit its plane JSON")
    p.add_argument("--q", type=int, required=True)
    _add_output(p)

    c = sub.add_parser("construct", help="build a verified resolving partition")
    _add_plane_source(c)
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--retries", type=int, default=20, help="extra attempts after the first")
    c.add_argument("--k", type=int, help="zeta class count override")
    _add_output(c)

    v = sub.add_parser("verify", help="check a partition file against a plane")
    _add_plane_source(v)
    v.add_argument("--partition", metavar="FILE", required=True)
    _add_output(v)

    b = sub.add_parser("bounds", help="lower bound report for an order")
    b.add_argument("--q", type=int, required=True)
    _add_output(b)

    s = sub.add_parser("search", help="exact or randomized partition dimension")
    _add_plane_source(s)
    s.add_argument("--method", choices=("exhaustive", "randomized"), default="exhaustive")
    s.add_argument("--tmin", type=int, default=1)
    s.add_argument("--tmax", type=int)
    s.add_argument(
        "--budget", type=int, default=10**8, help="exhaustive only: partitions verified at most"
    )
    s.add_argument(
        "--trials", type=int, default=20, help="randomized only: restarts per class count"
    )
    s.add_argument("--seed", type=_seed, default=0, help="randomized only: seed of the restarts")
    s.add_argument(
        "--workers", type=int, help="exhaustive only: pool size; default and cap: the CPU count"
    )
    _add_output(s)

    e = sub.add_parser("estimate", help="Monte Carlo unseparated-pair estimate")
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--k", type=int)
    e.add_argument("--trials", type=int, default=200)
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--workers", type=int)
    _add_output(e)

    return parser


def _add_output(parser):
    parser.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _emit(args, doc: dict | None, text: str | None) -> None:
    """Write the report in the chosen format; the other one is not read."""
    payload = (
        json.dumps(doc, indent=2, sort_keys=True) + "\n" if args.format == "json" else text
    )
    _write(args, [payload])


def _write(args, chunks: Iterable[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_plane(args) -> int:
    built = plane_mod.build_plane(args.q)
    n, q = built.n, built.q
    text = f"plane of order {q}: {n} points, {n} lines, {q + 1} points per line\n"
    _write(args, plane_mod.plane_text(built) if args.format == "json" else [text])
    return EXIT_OK


def _cmd_construct(args) -> int:
    target = _resolve_plane(args)
    try:
        result = construct.construct_partition(
            target, seed=args.seed, max_retries=args.retries, k=args.k
        )
    except construct.ConstructionError as exc:
        report = exc.report()
        sys.stderr.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return EXIT_CONSTRUCTION
    doc = construct.result_to_doc(result, target)
    text = (
        f"resolving partition for q={result.q}: {result.partition.m} classes "
        f"(k={result.k}, l={result.l}, seed={result.seed}, retries={result.retries})\n"
    )
    _emit(args, doc, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    target = _resolve_plane(args)
    partition = metric.partition_from_doc(_read_json(args.partition), target)
    verdict = metric.is_resolving(target, partition)
    groups = verdict.collision_groups
    if args.format == "json":  # each format builds only its own report
        _emit(args, {
            "q": target.q,
            "classes": partition.m,
            "resolving": verdict.resolving,
            "collision_groups": [[str(v) for v in g] for g in groups],
        }, None)
    elif verdict.resolving:
        text = f"resolving: {partition.m} classes separate all {2 * target.n} vertices\n"
        _emit(args, None, text)
    else:
        lines = [f"not resolving: {len(groups)} colliding groups"]
        lines.extend("  " + " ".join(str(v) for v in g) for g in groups[:20])
        if len(groups) > 20:
            lines.append(f"  ... {len(groups) - 20} more groups")
        _emit(args, None, "\n".join(lines) + "\n")
    return EXIT_OK if verdict.resolving else EXIT_NOT_RESOLVING


def _cmd_bounds(args) -> int:
    result = analysis.lower_bound(args.q)
    doc = result.to_doc()
    t, ineq = result.total, result.inequality
    text = (
        f"lower bound for q={args.q}: {t} classes "
        f"({t} * 2^{t - 1} = {ineq['lhs']} >= n = {ineq['rhs']})\n"
    )
    _emit(args, doc, text)
    return EXIT_OK


def _cmd_search(args) -> int:
    target = _resolve_plane(args)
    if args.method == "exhaustive":
        result = analysis.exhaustive_pd(
            target,
            t_min=args.tmin,
            t_max=args.tmax,
            budget=args.budget,
            workers=args.workers,
        )
        log.info("search finished in %.2fs after %d partitions", result.wall_time, result.nodes)
        doc = result.to_doc(target)
        if result.exact:
            pd, scanned = f"pd = {result.lower}", ""
        elif result.upper is None:  # every level up to --tmax scanned, none with a witness
            pd, scanned = f"pd >= {result.lower}", f"no witness up to t={args.tmax}; "
        else:
            pd, scanned = f"pd in [{result.lower}, {result.upper}]", ""
        text = (
            f"{pd} for q={target.q} "
            f"({scanned}{result.nodes} partitions verified, {result.wall_time:.2f}s)\n"
        )
        _emit(args, doc, text)
        return EXIT_OK
    analysis._worker_count(args.workers)
    tmin, tmax = analysis._class_count_range(args.tmin, args.tmax, 2 * target.n, start=2)
    best_t = None
    best = None
    for t in range(tmax, tmin - 1, -1):
        witness = analysis.randomized_upper_bound(target, t, attempts=args.trials, seed=args.seed)
        if witness is None:
            break
        best_t, best = t, witness
    doc = {"q": target.q, "method": "randomized", "upper": best_t}
    if best is not None:
        doc["witness"] = metric.partition_to_doc(target, best)
        text = f"randomized upper bound for q={target.q}: {best_t} classes\n"
    else:
        text = f"no witness found for q={target.q} in {tmin}..{tmax}\n"
    _emit(args, doc, text)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    report = analysis.estimate_unseparated(
        args.q, k=args.k, trials=args.trials, seed=args.seed, workers=args.workers
    )
    doc = report.to_doc()
    se = f"{report.std_error:.4f}" if report.std_error is not None else "n/a"
    text = (
        f"unseparated pairs for q={report.q}, k={report.k}: mean {report.mean:.4f} "
        f"over {report.trials} trials (std error {se}, bound {report.bound:.4f})\n"
    )
    _emit(args, doc, text)
    return EXIT_OK


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_raising_exit():
    """In the main thread, SIGTERM raises SystemExit(143) until the block
    ends, when the previous handler is restored. A default SIGTERM ends the
    process without unwinding, so the ``finally`` that kills
    ``analysis._pooled``'s workers would never run and they would be left
    computing. Other threads cannot set a handler, and keep the previous one."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:  # None: a handler not set from Python, which cannot be put back
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


_HANDLERS = {
    "plane": _cmd_plane,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # for the whole command; see the module docstring
    try:
        _configure_logging()
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
        try:
            with _sigterm_raising_exit():
                return _HANDLERS[args.command](args)
        except (ValueError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
