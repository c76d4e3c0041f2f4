"""Command-line interface: construct graphs, evaluate densities, run suites.

Exit codes: 0 success, 1 suite failure, certified violation or a search
whose regularity projection did not converge, 2 usage error, 3 I/O or
format error.  Rationals cross the boundary as "p/q" strings; decimal
inputs are accepted only with --float, and read exactly.  Every artifact
embeds a header recording the tool version, seed, and effective config, and
identical command lines reproduce identical artifacts apart from the
recorded wall-clock runtime of suite reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    flower,
    generalized_theta,
    path_graph,
    replace_edges,
    subdivide,
)
from .homdensity import hom_density
from .search import ProjectionError, search_counterexample
from .stepgraphon import StepGraphon, _frac_str
from .verify import SUITES, SuiteReport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class FormatError(Exception):
    pass


def _parse_rational(text: str, allow_float: bool) -> Fraction:
    """``text`` read exactly; a decimal point or exponent needs --float."""
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from exc
    if not allow_float and any(c in text for c in ".eE"):
        raise FormatError(
            f"decimal {text!r} rejected; pass --float to accept decimals"
        )
    return value


def _parse_lengths(args):
    """The ``--lengths`` list; a family run without it is a FormatError."""
    if args.lengths is None:
        raise FormatError(f"{args.family} requires --lengths")
    try:
        return [int(x) for x in args.lengths.split(",") if x != ""]
    except ValueError as exc:
        raise FormatError(f"bad length list {args.lengths!r}") from exc


def _parse_length(args) -> int:
    lengths = _parse_lengths(args)
    if len(lengths) != 1:
        raise FormatError(f"expected one length, got {args.lengths!r}")
    return lengths[0]


def _header(args, seed=None) -> dict:
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    for k, v in config.items():
        if isinstance(v, Fraction):
            config[k] = _frac_str(v)
    return {"tool": "sidlab", "version": __version__, "seed": seed,
            "config": config}


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _parse_pins(text: str):
    """(vertex, step) pairs, so the engine rejects a vertex pinned twice."""
    pins = []
    for item in text.split(","):
        try:
            v, s = map(int, item.split(":"))
        except ValueError as exc:
            raise FormatError(f"bad pin {item!r}, not vertex:step") from exc
        pins.append((v, s))
    return pins


def _load(path, cls):
    """The ``cls`` a JSON file holds, header dropped.  Any error in decoding
    the file or building the object from it is a FormatError."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        data.pop("header", None)
        return cls.from_json_dict(data)
    except Exception as exc:
        raise FormatError(f"{path}: not a {cls.__name__}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _need(args, *names):
    """The graphs that the ``--graph`` / ``--other`` options ``names`` point
    to, loaded; a family run without one of them is a FormatError."""
    if not all(getattr(args, name) for name in names):
        raise FormatError(f"{args.family} requires "
                          + " and ".join(f"--{name}" for name in names))
    return [_load(getattr(args, name), Graph) for name in names]


def _theta(args):
    return generalized_theta(_parse_lengths(args), args.parity)


# --family name -> what it builds from the parsed arguments
FAMILIES = {
    "theta": _theta,
    "flower": lambda args: flower(_parse_lengths(args)),
    "complete": lambda args: complete_graph(_parse_length(args)),
    "multipartite": lambda args:
        complete_multipartite(_parse_lengths(args)),
    "path": lambda args: path_graph(_parse_length(args)),
    "cycle": lambda args: cycle_graph(_parse_length(args)),
    "subdivision": lambda args:
        subdivide(*_need(args, "graph"), _parse_length(args)),
    "replace": lambda args: replace_edges(*_need(args, "graph"), _theta(args)),
    "union": lambda args: disjoint_union(*_need(args, "graph", "other")),
}


def _cmd_construct(args) -> int:
    payload = FAMILIES[args.family](args).to_json_dict()
    payload["header"] = _header(args)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_density(args) -> int:
    graph = _load(args.graph, Graph)
    w = _load(args.graphon, StepGraphon)
    pins = _parse_pins(args.pins) if args.pins else None
    value = hom_density(graph, w, mode=args.mode, strategy=args.strategy,
                        pins=pins)
    payload = value.to_json_dict()
    payload["header"] = _header(args)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise FormatError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    suite = SUITES[args.suite]
    report = suite(trials=args.trials, seed=args.seed)
    payload = report.to_json_dict()
    payload["header"] = _header(args, seed=args.seed)
    _emit(payload, args.out)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_search(args) -> int:
    graph = _load(args.graph, Graph)
    d = _parse_rational(args.d, args.float)
    result = search_counterexample(
        graph, n=args.n, d=d, starts=args.starts, iters=args.iters,
        seed=args.seed, step=args.step,
    )
    payload = result.to_json_dict()
    payload["header"] = _header(args, seed=args.seed)
    _emit(payload, args.out)
    if args.trace_csv:
        _write(result.trace_csv(), args.trace_csv)
    return EXIT_FAILURE if result.certified_violation else EXIT_OK


def _cmd_report(args) -> int:
    reports = sorted((_load(path, SuiteReport) for path in args.inputs),
                     key=lambda r: r.suite)
    columns = ("suite", "trials", "failures", "max_gap", "runtime_ms")
    rows = [dict(zip(columns, (r.suite, r.trials, len(r.failures), r.max_gap,
                               r.runtime_ms)))
            for r in reports]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, columns)
        writer.writeheader()
        writer.writerows(rows)
        _write(buf.getvalue(), args.out)
    else:
        _emit({"header": _header(args), "rows": rows}, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` returns a
    fresh namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="sidlab",
        description="Graph constructions, graphon densities, verification "
                    "suites, and counterexample search.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a graph family member")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--lengths",
                   help="comma-separated lengths (or a single integer)")
    p.add_argument("--parity", default="any", choices=["even", "odd", "any"])
    p.add_argument("--graph", help="input graph JSON (subdivision/replace/union)")
    p.add_argument("--other", help="second graph JSON (union)")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("density", help="evaluate a homomorphism density")
    p.add_argument("--graph", required=True)
    p.add_argument("--graphon", required=True)
    p.add_argument("--mode", default="exact", choices=["exact", "float"])
    p.add_argument("--strategy", default="eliminate",
                   choices=["eliminate", "bruteforce"])
    p.add_argument("--pins", help="comma-separated vertex:step pairs")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="projected-gradient counterexample search")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True, help="step count")
    p.add_argument("--d", required=True, help='target degree, e.g. "1/2"')
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--float", action="store_true",
                   help="accept decimal values for --d")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--trace-csv", dest="trace_csv",
                   help="write the descent trace as CSV")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report", help="aggregate suite reports")
    p.add_argument("--inputs", nargs="*", default=[],
                   help="suite report JSON paths")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"sidlab: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"sidlab: input error: {exc!r}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"sidlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProjectionError as exc:
        print(f"sidlab: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
