"""Command line surface for reproducible batch runs.

Exit codes: 0 success (and a resolving verify verdict), 1 verify found
collisions, 2 usage or input error, 3 construction failed after retries.
JSON is the machine format; text renders the same data for humans. The
environment variable PLANEPART_LOG (debug or info) turns on diagnostics
on standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Iterable, Iterator

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
        raise UsageError("exactly one of --q and --plane is required")
    if args.q is not None:
        return plane_mod.build_plane(args.q)
    with open(args.plane, encoding="utf-8") as fh:
        return plane_mod.load_plane(json.load(fh))


class UsageError(Exception):
    pass


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
    s.add_argument("--budget", type=int, default=10**8, help="partitions verified at most")
    s.add_argument("--trials", type=int, default=20, help="randomized restarts per class count")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--workers", type=int)
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


def _emit(args, doc: dict, text: str) -> None:
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


def _plane_json(built) -> Iterator[str]:
    """The text of ``json.dumps(plane_to_doc(built), indent=2, sort_keys=True)``
    and a newline, one line entry at a time, so the document is never whole
    in memory."""
    yield '{\n  "lines": ['
    sep = "\n"
    for i, pts in enumerate(built.line_points):
        points = '",\n        "P'.join(map(str, pts))
        yield (f'{sep}    {{\n      "id": "L{i}",\n      "points": [\n'
               f'        "P{points}"\n      ]\n    }}')
        sep = ",\n"
    yield f'\n  ],\n  "q": {built.q}\n}}\n'


def _cmd_plane(args) -> int:
    built = plane_mod.build_plane(args.q)
    n, q = built.n, built.q
    text = f"plane of order {q}: {n} points, {n} lines, {q + 1} points per line\n"
    _write(args, _plane_json(built) if args.format == "json" else [text])
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
    with open(args.partition, encoding="utf-8") as fh:
        partition = metric.partition_from_doc(json.load(fh), target)
    verdict = metric.is_resolving(target, partition)
    doc = {
        "q": target.q,
        "classes": partition.m,
        "resolving": verdict.resolving,
        "collision_groups": [[str(v) for v in g] for g in verdict.collision_groups],
    }
    if verdict.resolving:
        text = f"resolving: {partition.m} classes separate all {2 * target.n} vertices\n"
    else:
        lines = [
            f"not resolving: {len(verdict.collision_groups)} colliding groups",
        ]
        lines.extend("  " + " ".join(str(v) for v in g) for g in verdict.collision_groups[:20])
        if len(verdict.collision_groups) > 20:
            lines.append(f"  ... {len(verdict.collision_groups) - 20} more groups")
        text = "\n".join(lines) + "\n"
    _emit(args, doc, text)
    return EXIT_OK if verdict.resolving else EXIT_NOT_RESOLVING


def _cmd_bounds(args) -> int:
    result = analysis.lower_bound(args.q)
    doc = result.to_doc()
    text = (
        f"lower bound for q={args.q}: {result.total} classes "
        f"(r={result.r}, s={result.s}, t={result.t}); "
        f"pure mixed t={result.pure_mixed_t}\n"
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
        pd = f"pd = {result.lower}" if result.exact else f"pd in [{result.lower}, {result.upper}]"
        text = (
            f"{pd} for q={target.q} "
            f"({result.nodes} partitions verified, {result.wall_time:.2f}s)\n"
        )
        _emit(args, doc, text)
        return EXIT_OK
    analysis._worker_count(args.workers)
    size = 2 * target.n
    tmax = min(args.tmax if args.tmax is not None else size, size)
    tmin = max(args.tmin, 2)
    if tmin > tmax:
        raise UsageError(f"empty class count range {tmin}..{tmax}")
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


_HANDLERS = {
    "plane": _cmd_plane,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
