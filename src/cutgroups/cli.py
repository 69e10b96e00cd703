"""Command-line entry point.

Exit codes, kept stable for pipelines:
  0  success (survey: no check FAILed)
  1  a conjecture check FAILed during a survey -- a potential counterexample
  2  input error (bad flags, unknown family, malformed file, out-of-range n,
     an --out path that cannot be written)
  3  the group exceeds the enumeration cap (analyze only)
  4  a survey finished, but some records raised an error and are listed
     under "errors" in the report (a check FAIL still gives 1)

Machine-format output goes to stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .alternating import alternating_exponent
from .corpus import (
    ALL_CHECKS,
    FORMATS,
    SurveyConfig,
    parse_corpus,
    render_an_fields,
    render_analysis,
    render_record,
    render_report,
    run_survey,
    write_output,
)
from .errors import CapExceeded, CorpusError, CutgroupsError, brief, excerpt, read_int
from .group import DEFAULT_CAP, PermGroup
from .rationality import (
    ALTERNATING_MAX_N,
    CHECKS,
    group_rationality,
    qg_degree_alternating,
)
from .constructions import parse_family_spec


def _int(text: str) -> int:
    try:
        return read_int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"must be an integer, got {e}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {brief(value)}")
    return value


def _checks_argument(known: tuple[str, ...]):
    def parse(text: str) -> tuple[str, ...]:
        names = tuple(t.strip() for t in text.split(",") if t.strip())
        unknown = [n for n in names if n not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown checks {excerpt(','.join(unknown))}; known: {', '.join(known)}"
            )
        return names

    return parse


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals stay one short line: where argparse
    echoes a typed token that ``excerpt`` would cut, as typed or as its
    repr, the excerpt shows, and stray arguments show as ``excerpt`` of
    their list.  Subparsers are built by the same class."""

    def parse_known_args(self, args=None, namespace=None):
        self._typed = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {excerpt(extras)}")
        return parsed

    def error(self, message: str):
        for token in sorted(getattr(self, "_typed", ()), key=len, reverse=True):
            shown = excerpt(token)
            if shown != repr(token):
                message = message.replace(repr(token), shown).replace(token, shown)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutgroups",
        description="Rationality analysis of finite permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify one group")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="family spec, e.g. cyclic:6 or sylnorm:5")
    source.add_argument("--file", help="corpus file containing exactly one group")
    analyze.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    analyze.add_argument(
        "--checks", type=_checks_argument(tuple(CHECKS)), default=tuple(CHECKS)
    )
    analyze.set_defaults(func=cmd_analyze)

    survey = sub.add_parser("survey", help="batch-analyze a corpus file")
    survey.add_argument("--corpus", required=True)
    survey.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    survey.add_argument(
        "--checks", type=_checks_argument(ALL_CHECKS), default=ALL_CHECKS
    )
    survey.add_argument("--workers", type=_positive_int, default=1)
    survey.set_defaults(func=cmd_survey)

    construct = sub.add_parser(
        "construct", help="emit a one-record corpus for a constructed family"
    )
    construct.add_argument("--family", required=True)
    construct.set_defaults(func=cmd_construct)

    an_fields = sub.add_parser(
        "an-fields",
        help="character-field degrees of alternating groups, no enumeration",
    )
    an_fields.add_argument("--max-n", type=_int, required=True, dest="max_n")
    an_fields.set_defaults(func=cmd_an_fields)

    for command in (analyze, survey, an_fields):
        command.add_argument("--format", choices=FORMATS, default="text")
    for command in (analyze, survey, construct, an_fields):
        command.add_argument("--out", help="output path (default stdout)")
    return parser


def _fail(error: str | Exception, code: int) -> int:
    """Print one refusal line; an OSError's file name shows as an excerpt."""
    if isinstance(error, OSError) and error.filename is not None:
        error = f"[Errno {error.errno}] {error.strerror}: {excerpt(error.filename)}"
    print(f"cutgroups: {error}", file=sys.stderr)
    return code


def _write(text: str, path: str | None) -> int:
    """Write a command's output; an unwritable --out is an input error."""
    try:
        write_output(text, path)
    except OSError as e:
        return _fail(e, 2)
    return 0


def _load_single_group(args) -> PermGroup:
    if args.family is not None:
        return parse_family_spec(args.family)
    records = parse_corpus(args.file)
    if len(records) != 1:
        raise CorpusError(
            f"{excerpt(args.file)}: expected exactly one record, found {len(records)}"
        )
    return records[0].group


def cmd_analyze(args) -> int:
    try:
        G = _load_single_group(args)
    except (CutgroupsError, OSError) as e:
        return _fail(e, 2)
    try:
        report = group_rationality(G, args.cap, args.checks)
    except CapExceeded as e:
        return _fail(e, 3)
    return _write(render_analysis(report, args.format), args.out)


def cmd_survey(args) -> int:
    try:
        records = parse_corpus(args.corpus)
    except (CutgroupsError, OSError) as e:
        return _fail(e, 2)
    if args.out is not None:
        # find an unwritable --out now, not after the whole survey has run;
        # append mode leaves an existing file as it is until the report
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as e:
            return _fail(e, 2)
    config = SurveyConfig(cap=args.cap, checks=tuple(args.checks), workers=args.workers)
    report = run_survey(records, config, label=str(args.corpus))
    # the chains go before the report is rendered, so the two never peak together
    del records
    code = _write(render_report(report, args.format), args.out)
    if code:
        return code
    if report.errors:
        print(
            f"cutgroups: {len(report.errors)} record(s) could not be analyzed",
            file=sys.stderr,
        )
    if report.failures:
        print(
            f"cutgroups: {len(report.failures)} check failure(s) found",
            file=sys.stderr,
        )
        return 1
    return 4 if report.errors else 0


def cmd_construct(args) -> int:
    try:
        G = parse_family_spec(args.family)
    except CutgroupsError as e:
        return _fail(e, 2)
    return _write(render_record(args.family, G), args.out)


def cmd_an_fields(args) -> int:
    if not 4 <= args.max_n <= ALTERNATING_MAX_N:
        return _fail(
            f"--max-n must be in 4..{ALTERNATING_MAX_N}, got {brief(args.max_n)}", 2
        )
    rows = [
        {
            "n": n,
            "exponent": alternating_exponent(n),
            "qg_degree": qg_degree_alternating(n),
        }
        for n in range(4, args.max_n + 1)
    ]
    return _write(render_an_fields(rows, args.format), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
