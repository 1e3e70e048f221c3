"""Command-line interface.

Subcommands: validate, discrepancy, split, regrade, hilbert, verify.
Results go to stdout, diagnostics and timing to stderr.  Exit codes:
0 success, 1 validation or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .fields import GF, default_prime, parse_field_spec
from .fileformat import PresentationError, parse_presentation, serialize_presentation
from .hilbert import DEFAULT_MAX_DEGREE, hilbert_table
from .paths import IdealPresentation, PathCountLimit
from .quiver import WeightedQuiver, weight_discrepancy
from .regrade import (
    DiscrepancyLimit,
    RegradeResult,
    SplitError,
    regrade,
    rewrite_ideal,
    split_arrow,
)
from .representation import DegreeWindow
from .verify import SUITE_NAMES, SuiteConfig, render_reports, run_suites


class _CliFailure(Exception):
    """Data-level failure: bad file, bad presentation, impossible request."""


class _UsageError(Exception):
    """A bad setting outside the argument list, such as the environment."""


def _load(path: str) -> tuple[WeightedQuiver, IdealPresentation]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(f"cannot read {path}: {exc}") from exc
    try:
        return parse_presentation(text)
    except PresentationError as exc:
        raise _CliFailure(f"{path}:\n{exc}") from exc


def _window_arg(text: str) -> DegreeWindow:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return DegreeWindow(int(lo), int(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _at_least(low: int):
    """Argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _field_arg(text: str):
    try:
        return parse_field_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _default_field():
    """F_p for the default prime; a bad override in the environment is a
    usage error."""
    try:
        return GF(default_prime())
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def render_regrade(result: RegradeResult) -> str:
    """Final presentation preceded by the splits as comments."""
    n = len(result.splits)
    lines = [f"# regrade: {n} split" + ("" if n == 1 else "s")]
    for b, first, second in result.splits:
        lines.append(
            f"# split {b.name}: {first.name} ({b.source} -> {first.target}, "
            f"degree 1), {second.name} ({second.source} -> {b.target}, "
            f"degree {second.degree})"
        )
    lines.append(serialize_presentation(result.final_quiver, result.final_ideal))
    return "\n".join(lines)


def _cmd_validate(args) -> int:
    _load(args.file)
    print("ok")
    return 0


def _cmd_discrepancy(args) -> int:
    q, _ = _load(args.file)
    print(weight_discrepancy(q))
    return 0


def _cmd_split(args) -> int:
    q, ideal = _load(args.file)
    try:
        t = split_arrow(q, args.arrow)
    except SplitError as exc:
        raise _CliFailure(str(exc)) from exc
    sys.stdout.write(serialize_presentation(t.after, rewrite_ideal(t, ideal)))
    return 0


def _cmd_regrade(args) -> int:
    q, ideal = _load(args.file)
    try:
        result = regrade(q, ideal)
    except DiscrepancyLimit as exc:
        raise _CliFailure(str(exc)) from exc
    text = render_regrade(result)
    if args.output is not None:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliFailure(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_hilbert(args) -> int:
    q, ideal = _load(args.file)
    if args.vertex is not None and not q.has_vertex(args.vertex):
        raise _CliFailure(f"unknown vertex {args.vertex!r}")
    field = args.field if args.field is not None else _default_field()
    for gen in ideal:
        try:
            gen.sum.to_field(field)
        except ZeroDivisionError as exc:
            raise _CliFailure(f"relation {gen}: {exc}; use --field q or another prime") from None
    try:
        for row in hilbert_table(q, ideal, args.max_degree, vertex=args.vertex, field=field):
            print(f"{row.degree} {row.dim}")
            if args.stats:
                print(
                    f"degree {row.degree}: {row.dim} normal paths, {row.basis_added} basis "
                    f"elements added, {row.rows} echelon rows, {row.seconds:.4f}s",
                    file=sys.stderr,
                )
    except PathCountLimit as exc:
        raise _CliFailure(str(exc)) from exc
    return 0


def _cmd_verify(args) -> int:
    if args.file is not None:
        _load(args.file)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    cfg = SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        window=args.window,
        max_dim=args.max_dim,
        field=_default_field(),
    )
    started = time.perf_counter()
    reports = run_suites(names, cfg)
    sys.stdout.write(render_reports(reports))
    elapsed = time.perf_counter() - started
    for rep in reports:
        for r in rep.results:
            print(f"property {r.name}: {r.wall_time:.2f}s", file=sys.stderr)
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return 0 if all(rep.ok() for rep in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiver-regrade",
        description="Regrade weighted quiver presentations to degree-1 "
        "generation and verify the representation transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks on a presentation file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("discrepancy", help="print the weight discrepancy")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_discrepancy)

    p = sub.add_parser("split", help="split one arrow and print the result")
    p.add_argument("file")
    p.add_argument("--arrow", required=True, help="name of the arrow to split")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("regrade", help="split until every arrow has degree 1")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p.set_defaults(handler=_cmd_regrade)

    p = sub.add_parser("hilbert", help="graded dimension table of the quotient")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_at_least(0), default=DEFAULT_MAX_DEGREE)
    p.add_argument("--vertex", default=None, help="restrict to paths from this vertex")
    p.add_argument(
        "--field",
        type=_field_arg,
        default=None,
        help="q for rationals, pN for a prime field (default: the default prime)",
    )
    p.add_argument("--stats", action="store_true",
                   help="per degree, write the normal paths, basis elements added, "
                   "echelon rows and seconds to stderr")
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("file", nargs="?", default=None,
                   help="optional presentation to validate before the run")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=_window_arg, default=DegreeWindow(-2, 10),
                   help="degree window LO:HI (use --window=LO:HI for negative LO)")
    p.add_argument("--max-dim", type=_at_least(0), default=3)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
