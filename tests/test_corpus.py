import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutgroups
from cutgroups import corpus
from cutgroups.corpus import (
    ALL_CHECKS,
    GroupRecord,
    SurveyConfig,
    bundled_corpus_path,
    parse_corpus,
    render_report,
    run_survey,
)
from cutgroups.errors import CorpusSyntaxError, DuplicateId, OrderMismatch
from cutgroups.perm import format_permutation
from cutgroups.constructions import cyclic, symmetric


def record_for(rid, G, order=None):
    return GroupRecord(
        id=rid,
        degree=G.degree,
        generator_texts=[format_permutation(g) for g in G.generators],
        expected_order=order,
    )


class TestParseCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.corpus"
        path.write_text("# nothing here\n\n")
        assert parse_corpus(path) == []

    def test_bundled_corpus(self):
        records = parse_corpus(bundled_corpus_path())
        assert len(records) >= 60
        assert len({r.id for r in records}) == len(records)
        for r in records:
            assert r.expected_order == r.group.order()

    def test_round_trip_single_record(self, tmp_path):
        path = tmp_path / "one.corpus"
        path.write_text(
            "group s3\nname sym3\ndegree 3\ngen (1 2)\ngen (1 2 3)\norder 6\n"
            "tags test,small\nend\n"
        )
        (record,) = parse_corpus(path)
        assert record.id == "s3"
        assert record.name == "sym3"
        assert record.tags == ["test", "small"]
        assert record.group.order() == 6

    def test_order_mismatch(self, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("group g\ndegree 5\ngen (1 2 3 4 5)\norder 25\nend\n")
        with pytest.raises(OrderMismatch):
            parse_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.corpus"
        path.write_text(
            "group g\ndegree 2\ngen (1 2)\nend\ngroup g\ndegree 2\ngen (1 2)\nend\n"
        )
        with pytest.raises(DuplicateId):
            parse_corpus(path)

    @pytest.mark.parametrize("text,fragment", [
        ("degree 3\n", "outside a group record"),
        ("group g\ndegree 3\ngen (1 2)\n", "missing 'end'"),
        ("group g\ngen (1 2)\nend\n", "no degree"),
        ("group g\ndegree 3\nend\n", "no generators"),
        ("group g\ndegree x\ngen (1 2)\nend\n", "bad degree"),
        ("group g\ndegree 3\nwhat ever\ngen (1 2)\nend\n", "unknown keyword"),
        ("group g\ndegree 3\ngen (1 9)\nend\n", "g"),
        ("group g\ndegree 100000000\ngen ()\nend\n", "degree must be in 1..1000000"),
    ])
    def test_syntax_errors(self, tmp_path, text, fragment):
        path = tmp_path / "syntax.corpus"
        path.write_text(text)
        with pytest.raises(CorpusSyntaxError) as exc:
            parse_corpus(path)
        assert fragment in str(exc.value)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.corpus"
        path.write_text("# header\n\ngroup g # trailing\ndegree 2\ngen (1 2)\n\nend\n")
        (record,) = parse_corpus(path)
        assert record.id == "g"


class TestRunSurvey:
    def test_cyclic_cut_classification(self):
        records = [record_for(f"c{n:02d}", cyclic(n)) for n in range(1, 31)]
        report = run_survey(records, SurveyConfig(checks=("bmp",)))
        cut_ids = {row["id"] for row in report.rows if row["cut"]}
        assert cut_ids == {"c01", "c02", "c03", "c04", "c06"}

    def test_cap_skips_are_first_class(self):
        records = [record_for("s4", symmetric(4)), record_for("c3", cyclic(3))]
        report = run_survey(records, SurveyConfig(cap=10, checks=("bmp",)))
        assert len(report.rows) == 1
        assert len(report.skipped) == 1
        assert report.skipped[0]["id"] == "s4"
        assert "cap" in report.skipped[0]["reason"]

    def test_row_count_conservation(self):
        records = [record_for(f"c{n}", cyclic(n)) for n in (2, 3, 4)]
        report = run_survey(records, SurveyConfig(checks=("bmp", "tent")))
        assert len(report.rows) + len(report.skipped) == len(records)

    def test_aggregate_monotonicity(self):
        records = [record_for(f"c{n:02d}", cyclic(n)) for n in range(1, 20)]
        report = run_survey(records, SurveyConfig(checks=()))
        agg = report.aggregates
        assert agg["rational_count"] <= agg["cut_count"] <= agg["semirational_count"]

    def test_rows_sorted_by_id(self):
        records = [record_for("zz", cyclic(2)), record_for("aa", cyclic(3))]
        report = run_survey(records, SurveyConfig(checks=()))
        assert [row["id"] for row in report.rows] == ["aa", "zz"]

    def test_check_selection_respected(self):
        records = [record_for("s3", symmetric(3))]
        report = run_survey(records, SurveyConfig(checks=("bmp", "lemma61")))
        assert set(report.rows[0]["checks"]) == {"bmp", "lemma61"}

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            SurveyConfig(checks=("bogus",))

    def test_sylow2_informational_column(self):
        records = [record_for("s3", symmetric(3)), record_for("c5", cyclic(5))]
        report = run_survey(records, SurveyConfig(checks=("syl2",)))
        rows = {row["id"]: row for row in report.rows}
        assert rows["s3"]["sylow2_cut"] is True  # C2 is cut
        assert rows["c5"]["sylow2_cut"] is None  # not a cut group, not computed

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError):
            SurveyConfig(workers=workers)

    @pytest.mark.parametrize("workers,cpus,pool_size", [
        (10 ** 6, 8, 3),  # clamped to the record count
        (10 ** 6, 2, 2),  # clamped to the CPU count
        (2, 8, 2),
        (10 ** 6, None, None),  # unknown CPU count: serial, no pool
        (1, 8, None),
    ])
    def test_pool_size_clamped(self, monkeypatch, workers, cpus, pool_size):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(corpus, "_process_pool", SerialPool)
        monkeypatch.setattr(corpus.os, "cpu_count", lambda: cpus)
        records = [record_for(f"c{n}", cyclic(n)) for n in (2, 3, 4)]
        report = run_survey(records, SurveyConfig(checks=("bmp",), workers=workers))
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(report.rows) == 3
        assert report.config["workers"] == workers  # the requested value

    def test_import_does_not_load_process_pool(self):
        # the pool is imported only when a survey runs with workers > 1
        src = str(Path(cutgroups.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        probe = "import sys, cutgroups; print('concurrent.futures' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "False"

    def test_workers_do_not_change_output(self):
        records = [record_for(f"c{n:02d}", cyclic(n)) for n in range(1, 12)]
        seq = run_survey(records, SurveyConfig(checks=("bmp", "ppe"), workers=1))
        par = run_survey(records, SurveyConfig(checks=("bmp", "ppe"), workers=2))
        # worker count is part of the echoed config; rows must be identical
        assert seq.rows == par.rows
        assert seq.aggregates == par.aggregates


class TestReports:
    def make_report(self):
        records = [record_for(f"c{n}", cyclic(n)) for n in (2, 3, 5)]
        return run_survey(records, SurveyConfig(checks=("bmp",)))

    def test_json_round_trip(self):
        report = self.make_report()
        parsed = json.loads(render_report(report, "json"))
        assert parsed["rows"] == report.rows
        assert parsed["aggregates"] == report.aggregates

    def test_json_deterministic(self):
        records = [record_for(f"c{n}", cyclic(n)) for n in (2, 3, 5)]
        a = render_report(run_survey(records, SurveyConfig(checks=("bmp",))), "json")
        b = render_report(run_survey(records, SurveyConfig(checks=("bmp",))), "json")
        assert a.encode() == b.encode()

    def test_csv_has_row_per_group(self):
        report = self.make_report()
        lines = render_report(report, "csv").strip().splitlines()
        assert len(lines) == 1 + len(report.rows)
        assert lines[0].startswith("id,order,solvable,rational,cut")

    def test_text_mentions_percentages(self):
        text = render_report(self.make_report(), "text")
        assert "cut:" in text and "%" in text

    def test_empty_report_valid(self):
        report = run_survey([], SurveyConfig(checks=()))
        assert json.loads(render_report(report, "json"))["rows"] == []
        assert render_report(report, "csv").startswith("id,")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self.make_report(), "xml")
