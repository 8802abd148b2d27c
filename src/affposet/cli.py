"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 domain error (bad type, labels,
shift, a cell mismatch, or a size past a bound), 3 verification found
mismatches, 141 (128 + SIGPIPE) the reader closed stdout early.  Payloads are
printed to stdout as sorted, indented JSON so identical invocations produce
identical bytes; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .cartan import (
    RankTooLargeError,
    _parse_int,
    _vertex_count,
    build_affine,
    catalog_types,
    format_shift,
    parse_type_id,
    special_vertices,
)

__all__ = ["run", "main"]


_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _labels_arg(text: str, diagram):
    try:
        vals = [_parse_int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"labels must be comma separated integers, got {text!r}")
    if len(vals) != diagram.n + 1:
        raise ValueError(
            f"{diagram} has {diagram.n + 1} vertices, got {len(vals)} labels"
        )
    return tuple(vals)


_BUDGET_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


def _budget_arg(text):
    """Seconds written as ASCII digits with an optional decimal part, or None;
    float() also takes '1_0', '+5', 'nan' and other scripts' digits."""
    if text is None:
        return None
    if _BUDGET_RE.fullmatch(text) is None:
        raise ValueError(f"budget must be a nonnegative decimal number of seconds, got {text!r}")
    return float(text)


def _weight_arg(type_text: str, labels_text: str, shift_text):
    from .weights import parse_shift, weight_from_labels

    diagram = build_affine(type_text)
    shift = parse_shift(shift_text) if shift_text else 0
    return weight_from_labels(diagram, _labels_arg(labels_text, diagram), shift)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_types(args) -> int:
    for name in catalog_types():
        print(name)
    return 0


# info prints (n + 1)^2 dense Cartan entries: 81 MB in 8.0 s on A3000-1
_MAX_INFO_VERTICES = 3001


def _cmd_info(args) -> int:
    type_id = parse_type_id(args.type)
    vertices = _vertex_count(type_id)
    if vertices > _MAX_INFO_VERTICES:
        raise RankTooLargeError(
            f"{type_id} has {vertices} vertices, more than the "
            f"{_MAX_INFO_VERTICES} whose Cartan rows info prints"
        )
    diagram = build_affine(type_id)
    _emit(
        {
            "type": str(diagram.type_id),
            "vertices": diagram.n + 1,
            "cartan": [list(row) for row in diagram.cartan],
            "marks": list(diagram.marks),
            "comarks": list(diagram.comarks),
            "root_length_sq": [format_shift(v) for v in diagram.root_length_sq],
            "special_vertices": list(special_vertices(diagram)),
        }
    )
    return 0


def _cmd_edges(args) -> int:
    from .covering import cocovers, covers, edge_to_json

    weight = _weight_arg(args.type, args.labels, args.shift)
    edges = cocovers(weight) if args.command == "cocovers" else covers(weight)
    _emit([edge_to_json(edge) for edge in edges])
    return 0


def _cmd_interval(args) -> int:
    from .poset import export_graph, interval

    top = _weight_arg(args.type, args.top, args.top_shift)
    bottom = _weight_arg(args.type, args.bottom, args.bottom_shift)
    graph = interval(top, bottom)
    if args.format == "dot":
        print(export_graph(graph, "dot"), end="")
    else:
        _emit(export_graph(graph, "json"))
    return 0


def _cmd_cell(args) -> int:
    from .poset import _cell, _finite_steps, export_graph

    lam = _weight_arg(args.type, args.labels, args.shift)
    steps = _finite_steps(lam)
    wanted = [_labels_arg(args.mu, lam.diagram), _labels_arg(args.mu2, lam.diagram)]
    for target in wanted:
        if target not in steps:
            raise ValueError(
                f"{list(target)} is not a finite-root cocover of the top; "
                f"available: {[list(a) for a in steps]}"
            )
    cell = _cell(lam, *(steps[t] for t in wanted))
    if args.format == "dot":
        print(f"// shape={cell.shape.value} case={cell.case}")
        print(export_graph(cell.graph, "dot"), end="")
    else:
        _emit(
            {
                "shape": cell.shape.value,
                "case": cell.case,
                "graph": export_graph(cell.graph, "json"),
            }
        )
    return 0


def _cmd_verify(args) -> int:
    from .oracle import SearchWindow, verify_covering  # loaded only for verify

    if not args.type and not args.all_types:
        raise _UsageError("give a type or --all-types")
    if args.type and args.all_types:
        raise _UsageError("give a type or --all-types, not both")
    names = list(catalog_types()) if args.all_types else [args.type]
    levels = tuple(map(_parse_int, args.levels.split(",")))
    samples, seed = _parse_int(args.samples), _parse_int(args.seed)
    window = SearchWindow(tuple(map(_parse_int, args.window.split(",")))) if args.window else None
    budget = _budget_arg(args.budget)
    reports = []
    for name in names:
        # the id alone: the sweep counts its census before it builds the diagram
        report = verify_covering(
            parse_type_id(name),
            levels=levels,
            samples_per_level=samples,
            seed=seed,
            window=window,
            budget=budget,
        )
        if report.budget_exceeded:
            print(
                f"warning: time budget exhausted for {report.type} "
                f"after {report.tested} weights",
                file=sys.stderr,
            )
        reports.append(report)
    _emit([r.to_json() for r in reports] if args.all_types else reports[0].to_json())
    return 3 if any(r.mismatches for r in reports) else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="affposet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", help="list the built-in affine types")
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("info", help="tables and special vertices of one type")
    p.add_argument("type")
    p.set_defaults(func=_cmd_info)

    for name in ("cocovers", "covers"):
        p = sub.add_parser(name, help=f"{name} of a dominant weight")
        p.add_argument("type")
        p.add_argument("--labels", required=True)
        p.add_argument("--shift", default=None)
        p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("interval", help="Hasse diagram between two weights")
    p.add_argument("type")
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("--top-shift", default=None)
    p.add_argument("--bottom-shift", default=None)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("cell", help="basic cell under a weight and two cocovers")
    p.add_argument("type")
    p.add_argument("--labels", required=True)
    p.add_argument("--shift", default=None)
    p.add_argument("--mu", required=True)
    p.add_argument("--mu2", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("verify", help="brute force check of the cover theory")
    p.add_argument("type", nargs="?")
    p.add_argument("--all-types", action="store_true")
    p.add_argument("--levels", default="1,2,3")
    p.add_argument("--samples", default="200")
    p.add_argument("--seed", default="0")
    p.add_argument("--budget", default=None)
    p.add_argument("--window", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = _build_parser().parse_args(argv)
            return args.func(args)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except SystemExit:  # only --help exits, and with code 0
            return 0
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the
        # flush at exit cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    sys.exit(code)
