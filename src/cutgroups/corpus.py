"""Corpus ingestion, batch analysis, aggregation and reporting.

The corpus file format is line oriented (UTF-8, ``#`` comments):

    group <id>
    name <free text>            (optional)
    degree <n>
    gen <cycle-notation>        (one or more)
    order <expected>            (optional)
    tags <comma-separated>      (optional)
    end

Only ``gen`` may repeat in a record.  A parsed record holds the group its
generators generate, and a survey analyzes that group.

Survey reports are deterministic: rows are sorted by id, JSON keys are
sorted, and nothing time- or host-dependent enters the body, so two runs
over the same corpus are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .errors import (
    CapExceeded,
    CorpusSyntaxError,
    CutgroupsError,
    DuplicateId,
    OrderMismatch,
    brief,
    excerpt,
    read_int,
)
from .group import DEFAULT_CAP, MAX_DEGREE, PermGroup
from .perm import format_permutation, parse_permutation
from .rationality import CHECKS, Analysis, GroupReport

# syl2 is informational: it fills the row's sylow2_cut, not a check result.
ALL_CHECKS = tuple(CHECKS) + ("syl2",)
FORMATS = ("json", "csv", "text")


@dataclass
class GroupRecord:
    """One corpus record: its id, the group its generators generate, with
    the stabilizer chain that group holds, and the optional name, order
    and tags."""

    id: str
    group: PermGroup
    name: str | None = None
    expected_order: int | None = None
    tags: list[str] = field(default_factory=list)


@dataclass
class SurveyConfig:
    cap: int = DEFAULT_CAP
    checks: tuple[str, ...] = ALL_CHECKS
    workers: int = 1

    def __post_init__(self):
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {excerpt(unknown)}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {brief(self.workers)}")


@dataclass
class SurveyReport:
    corpus: str
    config: dict
    rows: list[dict]
    aggregates: dict
    failures: list[dict]
    skipped: list[dict]
    errors: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "corpus": self.corpus,
            "config": self.config,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "failures": self.failures,
            "skipped": self.skipped,
        }
        if self.errors:  # absent when empty, so clean reports keep their bytes
            out["errors"] = self.errors
        return out


def parse_corpus(path: str | Path) -> list[GroupRecord]:
    """Parse and validate a corpus file.

    Generators must parse at the stated degree, ids must be unique, a
    record states each key but ``gen`` at most once, and a declared order
    must match the computed group order.  Each record holds the group its
    generators generate, and every such group holds its stabilizer chain.
    """
    path = Path(path)
    records: list[GroupRecord] = []
    seen_ids: set[str] = set()
    current: dict | None = None
    gen_lines: list[tuple[int, str]] = []

    # undecodable bytes reach the loop as lone surrogates, so the error can
    # name their line
    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusSyntaxError(line_no, "not UTF-8 text") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key == "group":
                if current is not None:
                    raise CorpusSyntaxError(line_no, "previous record missing 'end'")
                if not rest:
                    raise CorpusSyntaxError(line_no, "'group' needs an id")
                if rest in seen_ids:
                    raise DuplicateId(
                        f"duplicate record id {excerpt(rest)} at line {line_no}"
                    )
                seen_ids.add(rest)
                current = {"id": rest, "line": line_no}
                gen_lines = []
            elif current is None:
                raise CorpusSyntaxError(
                    line_no, f"{excerpt(key)} outside a group record"
                )
            elif key in ("name", "degree", "order", "tags") and key in current:
                raise CorpusSyntaxError(
                    line_no, f"record {excerpt(current['id'])} repeats {excerpt(key)}"
                )
            elif key == "name":
                current["name"] = rest
            elif key in ("degree", "order"):
                try:
                    current[key] = read_int(rest)
                except ValueError as e:
                    raise CorpusSyntaxError(line_no, f"bad {key} {e}") from None
                if key == "order":
                    current["order_line"] = line_no
            elif key == "gen":
                gen_lines.append((line_no, rest))
            elif key == "tags":
                current["tags"] = [t.strip() for t in rest.split(",") if t.strip()]
            elif key == "end":
                records.append(_finish_record(current, gen_lines))
                current = None
            else:
                raise CorpusSyntaxError(line_no, f"unknown keyword {excerpt(key)}")
    if current is not None:
        raise CorpusSyntaxError(current["line"], "record missing 'end'")
    return records


def _finish_record(current: dict, gen_lines: list[tuple[int, str]]) -> GroupRecord:
    start = current["line"]
    if "degree" not in current or not gen_lines:
        missing = "degree" if "degree" not in current else "generators"
        raise CorpusSyntaxError(
            start, f"record {excerpt(current['id'])} has no {missing}"
        )
    degree = current["degree"]
    if not 1 <= degree <= MAX_DEGREE:
        raise CorpusSyntaxError(
            start, f"degree must be in 1..{MAX_DEGREE}, got {brief(degree)}"
        )
    gens = []
    for line_no, text in gen_lines:
        try:
            gens.append(parse_permutation(text, degree))
        except CutgroupsError as e:
            raise CorpusSyntaxError(
                line_no, f"record {excerpt(current['id'])}: {e}"
            ) from None
    record = GroupRecord(
        id=current["id"],
        group=PermGroup(degree, gens),
        name=current.get("name"),
        expected_order=current.get("order"),
        tags=current.get("tags", []),
    )
    if record.expected_order is not None:
        actual = record.group.order()
        if actual != record.expected_order:
            raise OrderMismatch(
                record.id, record.expected_order, actual, current["order_line"]
            )
    return record


def _analyze(
    record: GroupRecord, cap: int, checks: tuple[str, ...], syl2: bool
) -> tuple[str, dict]:
    """Analyze ``record.group`` under ``cap``, running ``checks``, and the
    Sylow 2-subgroup of a cut group if ``syl2``.  Returns the report list
    the record goes to and its entry there: its row under "rows"; under
    "skipped", on a cap overrun, ``{"id", "reason"}``; and under "errors",
    on any other exception, ``{"id", "error"}`` with "TypeName: message",
    so one bad record never ends the survey."""
    rid = record.id
    try:
        analysis = Analysis(record.group, cap)
        report, results = analysis.report, analysis.run(checks)
        sylow2_cut = None
        if syl2 and report.is_cut:
            sylow2_cut = analysis.sylow_analysis(2).report.is_cut
    except CapExceeded as e:
        return "skipped", {"id": rid, "reason": str(e)}
    except Exception as e:
        return "errors", {"id": rid, "error": f"{type(e).__name__}: {e}"}
    return "rows", {
        "id": rid,
        **report.summary(),
        "checks": {n: r.as_dict() for n, r in results.items()},
        "sylow2_cut": sylow2_cut,
    }


def _process_pool(workers: int):
    """A pool of ``workers`` processes; imported here, so that ``import
    cutgroups`` does not load ``concurrent.futures``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_survey(
    records: list[GroupRecord],
    config: SurveyConfig | None = None,
    label: str = "corpus",
) -> SurveyReport:
    """Analyze every record; per-record cap overruns become skipped entries
    and any other per-record exception an errors entry, never silent drops.
    Row order is by record id regardless of workers.

    Serial and pooled surveys map the one ``_analyze`` over the records.
    Serially it analyzes ``record.group`` itself, on the stabilizer chain
    that group was built with; a worker receives each record pickled, and
    its group as degree and generators, so it builds the chain anew.  A group
    holds no enumeration, so every enumeration of a record belongs to its
    analysis and goes with it."""
    config = config or SurveyConfig()
    # every selected name but syl2 is a registry check
    checks = tuple(c for c in config.checks if c != "syl2")
    ordered = sorted(records, key=lambda r: r.id)
    analyze = partial(
        _analyze, cap=config.cap, checks=checks, syl2="syl2" in config.checks
    )
    # a pool starts all its workers up front: no more than can run or have work
    workers = min(config.workers, os.cpu_count() or 1, len(ordered))
    if workers > 1:
        with _process_pool(workers) as pool:
            outcomes = list(pool.map(analyze, ordered))
    else:
        outcomes = list(map(analyze, ordered))

    entries: dict[str, list[dict]] = {"rows": [], "skipped": [], "errors": []}
    for name, entry in outcomes:
        entries[name].append(entry)
    failures = [
        {"id": row["id"], "check": name, "detail": result["detail"]}
        for row in entries["rows"]
        for name, result in row["checks"].items()
        if result["status"] == "FAIL"
    ]
    return SurveyReport(
        corpus=label,
        config={
            "cap": config.cap,
            "checks": list(config.checks),
            "workers": config.workers,
        },
        aggregates=_aggregate(entries["rows"], checks),
        failures=failures,
        **entries,
    )


def _aggregate(rows: list[dict], checks: tuple[str, ...]) -> dict:
    analyzed = len(rows)
    rational = sum(1 for r in rows if r["rational"])
    cut = sum(1 for r in rows if r["cut"])
    semirational = sum(1 for r in rows if r["semirational"])

    def pct(n: int) -> float:
        return round(100.0 * n / analyzed, 2) if analyzed else 0.0

    check_counts = {}
    for name in checks:
        tally = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for row in rows:
            if name in row["checks"]:
                tally[row["checks"][name]["status"]] += 1
        check_counts[name] = tally
    return {
        "analyzed": analyzed,
        "max_order_analyzed": max((r["order"] for r in rows), default=0),
        "rational_count": rational,
        "cut_count": cut,
        "semirational_count": semirational,
        "rational_pct": pct(rational),
        "cut_pct": pct(cut),
        "semirational_pct": pct(semirational),
        "checks": check_counts,
        "cut_with_noncut_sylow2": sorted(
            r["id"] for r in rows if r["cut"] and r["sylow2_cut"] is False
        ),
    }


def _render(
    format: str, payload: dict, table: tuple, text: Callable[[dict], str]
) -> str:
    """Encode one report: ``payload`` as JSON with sorted keys, ``table``
    (columns, rows, check names) as CSV, or ``text(payload)``."""
    if format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if format == "csv":
        return _csv_table(*table)
    if format == "text":
        return text(payload)
    raise ValueError(f"unknown format {excerpt(format)}")


def _csv_table(columns, rows: list[dict], check_names) -> str:
    """A header of ``columns`` then ``check:<name>`` columns, and one line
    per row.  The csv module writes None as an empty cell; a check the row
    lacks is an empty cell too."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*columns, *(f"check:{c}" for c in check_names)])
    for row in rows:
        checks = row.get("checks", {})
        writer.writerow(
            [row[c] for c in columns]
            + [checks[c]["status"] if c in checks else "" for c in check_names]
        )
    return buf.getvalue()


def render_analysis(report: GroupReport, format: str) -> str:
    payload = report.as_dict()
    table = (GroupReport.SUMMARY_FIELDS, [payload], list(payload["checks"]))
    return _render(format, payload, table, _analysis_text)


def render_an_fields(rows: list[dict], format: str) -> str:
    table = (("n", "exponent", "qg_degree"), rows, ())
    return _render(format, {"rows": rows}, table, _an_fields_text)


def render_report(report: SurveyReport, format: str) -> str:
    columns = ("id", *GroupReport.SUMMARY_FIELDS, "sylow2_cut")
    # the tallied checks are the selected registry checks, in order
    table = (columns, report.rows, list(report.aggregates["checks"]))
    return _render(format, report.as_dict(), table, _survey_text)


def _analysis_text(payload: dict) -> str:
    lines = [f"{n + ':':15s}{payload[n]}" for n in GroupReport.SUMMARY_FIELDS]
    lines.append(f"{'classes:':15s}{len(payload['classes'])}")
    if payload["checks"]:
        lines.append("checks:")
        for name, result in payload["checks"].items():
            lines.append(f"  {name:12s} {result['status']:4s} {result['detail']}")
    return "\n".join(lines) + "\n"


def _an_fields_text(payload: dict) -> str:
    lines = [f"{'n':>3}  {'exp(A_n)':>10}  {'deg Q(A_n)':>10}"]
    lines.extend(
        f"{row['n']:>3}  {row['exponent']:>10}  {row['qg_degree']:>10}"
        for row in payload["rows"]
    )
    return "\n".join(lines) + "\n"


def _survey_text(payload: dict) -> str:
    agg = payload["aggregates"]
    lines = [
        f"corpus: {payload['corpus']}",
        f"analyzed {agg['analyzed']} groups"
        f" (max order {agg['max_order_analyzed']},"
        f" cap {payload['config']['cap']}),"
        f" {len(payload['skipped'])} skipped",
        "",
        f"  rational:       {agg['rational_count']:4d}  ({agg['rational_pct']}%)",
        f"  cut:            {agg['cut_count']:4d}  ({agg['cut_pct']}%)",
        f"  semirational:   {agg['semirational_count']:4d}  ({agg['semirational_pct']}%)",
        "",
    ]

    def block(header: str, items: list[str]) -> None:
        if items:
            lines.extend([header, *items, ""])

    block("check results (pass/fail/skip):", [
        f"  {name:12s} {tally['PASS']:4d} / {tally['FAIL']:4d} / {tally['SKIP']:4d}"
        for name, tally in agg["checks"].items()
    ])
    if agg["cut_with_noncut_sylow2"]:
        lines.append(
            "cut groups with a non-cut Sylow 2-subgroup (informational): "
            + ", ".join(agg["cut_with_noncut_sylow2"])
        )
        lines.append("")
    block("FAILURES (potential counterexamples):", [
        f"  {f['id']} [{f['check']}]: {f['detail']}" for f in payload["failures"]
    ])
    block("skipped:", [f"  {s['id']}: {s['reason']}" for s in payload["skipped"]])
    block("ERRORS (records that could not be analyzed):", [
        f"  {e['id']}: {e['error']}" for e in payload.get("errors", [])
    ])
    return "\n".join(lines)


def render_record(
    rid: str, G: PermGroup, name: str | None = None, tags: Sequence[str] = ()
) -> str:
    """A one-record corpus for G, with its order, as parse_corpus reads it;
    the name defaults to the id, and a ``tags`` line is written when there
    are tags."""
    lines = [f"group {rid}", f"name {name or rid}", f"degree {G.degree}"]
    lines.extend(f"gen {format_permutation(g)}" for g in G.generators)
    lines.append(f"order {G.order()}")
    if tags:
        lines.append(f"tags {','.join(tags)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_output(text: str, path: str | Path | None) -> None:
    """Write ``text`` to ``path``, or to ``sys.stdout`` (looked up at call
    time, so redirection applies) when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def bundled_corpus_path() -> Path:
    """Location of the corpus shipped with the package."""
    return Path(__file__).parent / "data" / "bundled.corpus"
