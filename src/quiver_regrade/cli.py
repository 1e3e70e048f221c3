"""Command-line interface.

Subcommands: validate, discrepancy, split, regrade, hilbert, verify.
Each handler returns its stdout lines and its exit status, and ``main``
writes the lines through one writer, which also writes the ``-h`` help, so
a full or closed stdout is a ``cannot write stdout`` failure for every
subcommand and for the help.  Diagnostics and timing go to stderr.  Exit
codes: 0 success, 1 validation or verification failure, 2 usage error.

The ``hilbert`` and ``verify`` handlers import their layers when they run,
and building the parser reads none of them, so the other subcommands start
without loading the linear algebra or the verification stack.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from .fields import GF, default_prime, parse_field_spec, parse_integer
from .fileformat import PresentationError, parse_presentation, presentation_lines
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

if TYPE_CHECKING:
    from .representation import DegreeWindow


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
    from .representation import DegreeWindow

    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return DegreeWindow(parse_integer(lo), parse_integer(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _integer(text: str) -> int:
    """Argparse type: an integer, as :func:`parse_integer` reads it."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _at_least(low: int):
    """Argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = _integer(text)
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


def regrade_lines(result: RegradeResult) -> Iterator[str]:
    """The splits as comments, then the final presentation, line by line."""
    n = len(result.splits)
    yield f"# regrade: {n} split" + ("" if n == 1 else "s") + "\n"
    for b, first, second in result.splits:
        yield (
            f"# split {b.name}: {first.name} ({b.source} -> {first.target}, "
            f"degree 1), {second.name} ({second.source} -> {b.target}, "
            f"degree {second.degree})\n"
        )
    yield from presentation_lines(result.final_quiver, result.final_ideal)


def render_regrade(result: RegradeResult) -> str:
    """The joined ``regrade_lines``."""
    return "".join(regrade_lines(result))


def _write(lines: Iterable[str], output: str | None) -> None:
    """Write ``lines`` as they are made to the file ``output``, opened first, or to stdout."""
    try:
        if output is None and sys.stdout is None:
            raise OSError("stdout is closed")
        target = nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8")
        with target as out:
            out.writelines(lines)
            out.flush()
    except OSError as exc:
        name = "stdout" if output is None else output
        raise _CliFailure(f"cannot write {name}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Writes its help through :func:`_write`, so ``-h`` fails on a full or
    closed stdout as a subcommand does; subparsers take this class too."""

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        try:
            _write([self.format_help()], None)
        except _CliFailure as exc:
            self.exit(1, f"{exc}\n")


def _cmd_validate(args) -> tuple[Iterable[str], int]:
    _load(args.file)
    return ["ok\n"], 0


def _cmd_discrepancy(args) -> tuple[Iterable[str], int]:
    q, _ = _load(args.file)
    return [f"{weight_discrepancy(q)}\n"], 0


def _cmd_split(args) -> tuple[Iterable[str], int]:
    q, ideal = _load(args.file)
    try:
        t = split_arrow(q, args.arrow)
    except SplitError as exc:
        raise _CliFailure(str(exc)) from exc
    return presentation_lines(t.after, rewrite_ideal(t, ideal)), 0


def _cmd_regrade(args) -> tuple[Iterable[str], int]:
    q, ideal = _load(args.file)
    try:
        result = regrade(q, ideal)
    except DiscrepancyLimit as exc:
        raise _CliFailure(str(exc)) from exc
    return regrade_lines(result), 0


def _cmd_hilbert(args) -> tuple[Iterable[str], int]:
    from .hilbert import DEFAULT_MAX_DEGREE, hilbert_table

    q, ideal = _load(args.file)
    max_degree = DEFAULT_MAX_DEGREE if args.max_degree is None else args.max_degree
    if args.vertex is not None and not q.has_vertex(args.vertex):
        raise _CliFailure(f"unknown vertex {args.vertex!r}")
    field = args.field if args.field is not None else _default_field()
    for gen in ideal:
        try:
            gen.sum.to_field(field)
        except ZeroDivisionError as exc:
            raise _CliFailure(f"relation {gen}: {exc}; use --field q or another prime") from None

    def rows():
        try:
            for row in hilbert_table(q, ideal, max_degree, vertex=args.vertex, field=field):
                yield f"{row.degree} {row.dim}\n"
                if args.stats:
                    print(
                        f"degree {row.degree}: {row.dim} normal paths, {row.basis_added} basis "
                        f"elements added, {row.rows} echelon rows, {row.seconds:.4f}s",
                        file=sys.stderr,
                    )
        except PathCountLimit as exc:
            raise _CliFailure(str(exc)) from exc

    return rows(), 0


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    from .verify import SUITE_NAMES, SuiteConfig, render_reports, run_suites

    if args.file is not None:
        _load(args.file)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    given = {k: v for k, v in vars(args).items() if k in ("seed", "trials", "window", "max_dim")}
    cfg = SuiteConfig(**given, field=_default_field())
    started = time.perf_counter()
    reports = run_suites(names, cfg)
    text = render_reports(reports)
    elapsed = time.perf_counter() - started
    for rep in reports:
        for r in rep.results:
            print(f"property {r.name}: {r.wall_time:.2f}s", file=sys.stderr)
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return [text], 0 if all(rep.ok() for rep in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--max-degree", type=_at_least(0), default=None)
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
    # verify.SUITE_NAMES + ("all",), written out so that the parser does not import verify
    p.add_argument("--suite", choices=("split", "functor", "hilbert", "all"), default="all")
    # unset flags stay out of args, so that SuiteConfig's defaults are the only ones
    p.add_argument("--trials", type=_at_least(1), default=argparse.SUPPRESS)
    p.add_argument("--seed", type=_integer, default=argparse.SUPPRESS)
    p.add_argument("--window", type=_window_arg, default=argparse.SUPPRESS,
                   help="degree window LO:HI (use --window=LO:HI for negative LO)")
    p.add_argument("--max-dim", type=_at_least(0), default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, status = args.handler(args)
        _write(lines, getattr(args, "output", None))
        return status
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
