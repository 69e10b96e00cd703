import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutgroups
from cutgroups import corpus
from cutgroups.corpus import (
    ALL_CHECKS,
    GroupRecord,
    SurveyConfig,
    bundled_corpus_path,
    parse_corpus,
    render_record,
    render_report,
    run_survey,
)
from cutgroups.errors import (
    CorpusSyntaxError,
    CutgroupsError,
    DuplicateId,
    OrderMismatch,
)
from cutgroups.group import DEFAULT_CAP, PermGroup
from cutgroups.perm import Permutation
from cutgroups.rationality import CHECKS
from cutgroups.constructions import cyclic, symmetric


def record_for(rid, G, order=None):
    return GroupRecord(id=rid, group=G, expected_order=order)


def test_make_corpus_reproduces_the_bundled_corpus(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", script)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path / "bundled.corpus")
    module.main()
    assert module.OUT.read_bytes() == bundled_corpus_path().read_bytes()


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
        ("group g\ndegree -" + "1" * 30 + "\ngen ()\nend\n",
         "degree must be in 1..1000000, got -<30 digits>"),
        ("group g\ndegree " + "1" * 5000 + "\ngen ()\nend\n", "bad degree <5000 digits>"),
        ("group g\ndegree 2\ngen (1 2)\norder " + "2" * 5000 + "\nend\n",
         "bad order <5000 digits>"),
        ("group g\ndegree 2\ngen (1 2)\norder 2x\nend\n", "bad order '2x'"),
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

    def test_unknown_check_shown_short(self):
        with pytest.raises(ValueError) as exc:
            SurveyConfig(checks=("x" * 100000,))
        assert str(exc.value) == "unknown checks: ['xxxxxxxxxxxx...xxxxxxxxxxxxx']"

    def test_sylow2_informational_column(self):
        records = [record_for("s3", symmetric(3)), record_for("c5", cyclic(5))]
        report = run_survey(records, SurveyConfig(checks=("syl2",)))
        rows = {row["id"]: row for row in report.rows}
        assert rows["s3"]["sylow2_cut"] is True  # C2 is cut
        assert rows["c5"]["sylow2_cut"] is None  # not a cut group, not computed

    def test_no_check_lists_a_group(self, monkeypatch):
        # the checks read element orders, p-cores and class membership off
        # the class table; a Permutation list of any group would raise here
        records = sorted(parse_corpus(bundled_corpus_path()), key=lambda r: r.id)

        def no_elements(group, cap=DEFAULT_CAP):
            raise AssertionError("PermGroup.elements called")

        monkeypatch.setattr(PermGroup, "elements", no_elements)
        for r in records:
            kind, entry = corpus._analyze(r, DEFAULT_CAP, tuple(CHECKS), syl2=True)
            assert kind == "rows", entry
        assert len(records) == 172

    def test_serial_survey_reuses_each_record_chain(self, monkeypatch):
        # each record's group holds its sift steps from parse_corpus on, and
        # a serial survey analyzes record.group itself on those steps
        analyzed = []
        analysis = corpus.Analysis

        def recording(G, cap):
            analyzed.append(G)
            return analysis(G, cap)

        monkeypatch.setattr(corpus, "Analysis", recording)
        records = sorted(parse_corpus(bundled_corpus_path()), key=lambda r: r.id)
        steps = [r.group._steps for r in records]
        report = run_survey(records)
        assert len(report.rows) == len(records) == 172
        assert all(G is r.group for G, r in zip(analyzed, records, strict=True))
        assert all(r.group._steps is s for r, s in zip(records, steps, strict=True))
        # a group has slots only: no analysis can be stashed on it
        with pytest.raises(AttributeError):
            records[0].group.table = None

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError):
            SurveyConfig(workers=workers)

    def test_huge_workers_shown_short(self):
        with pytest.raises(ValueError, match=r"^workers must be >= 1, got -<5001 digits>$"):
            SurveyConfig(workers=-10 ** 5000)

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
                # what a process pool would send: the function and each
                # payload, pickled
                sent = [pickle.loads(pickle.dumps(item)) for item in items]
                return map(pickle.loads(pickle.dumps(fn)), sent)

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

    def test_pool_matches_serial_on_the_bundled_corpus(self, monkeypatch):
        # every bundled group goes to a worker pickled, as degree and
        # generators, and comes back as the serial row; two CPUs are
        # reported so that a one-CPU host runs the pool too
        monkeypatch.setattr(corpus.os, "cpu_count", lambda: 2)
        records = parse_corpus(bundled_corpus_path())
        seq = run_survey(records, SurveyConfig(workers=1))
        par = run_survey(records, SurveyConfig(workers=2))
        assert len(seq.rows) == 172
        for part in ("rows", "aggregates", "failures", "skipped"):
            assert getattr(par, part) == getattr(seq, part), part

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


# ids and names: letters and digits of any script, never whitespace or '#'
corpus_ids = st.text(
    alphabet=st.one_of(
        st.characters(whitelist_categories=("L", "N")), st.sampled_from("-_.:")
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def corpus_groups(draw):
    """1-3 random small groups with distinct ids."""
    ids = draw(st.lists(corpus_ids, min_size=1, max_size=3, unique=True))
    groups = []
    for rid in ids:
        n = draw(st.integers(1, 7))
        gens = draw(st.lists(st.permutations(list(range(n))), min_size=1, max_size=3))
        groups.append((rid, PermGroup(n, [Permutation(g) for g in gens])))
    return groups


# text that never spells a number, so a mutated degree stays small
junk = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=20),
    st.integers(-3, 12).map(str),
    st.sampled_from(["(1 2", "(0 1)", "(1 1)", "(x y)", "(1)(2 3)", "1 2", "()()"]),
)
mutations = st.one_of(
    st.tuples(st.sampled_from(["delete", "repeat"]), st.integers(0, 50)),
    st.tuples(
        st.sampled_from(["replace", "insert"]),
        st.integers(0, 50),
        st.sampled_from(["group", "name", "degree", "gen", "order", "tags", "end", ""]),
        junk,
    ),
)


def assert_names_a_line(path):
    """parse_corpus accepts the file, or rejects it with a CutgroupsError
    that names a line; any other exception fails the test."""
    try:
        parse_corpus(path)
    except CutgroupsError as e:
        assert re.search(r"\bline \d+\b", str(e)), str(e)


class TestParseCorpusProperties:
    @settings(max_examples=60, deadline=None)
    @given(corpus_groups())
    def test_render_parse_round_trip(self, tmp_path_factory, groups):
        path = tmp_path_factory.mktemp("rt") / "groups.corpus"
        path.write_text("".join(render_record(rid, G) for rid, G in groups), "utf-8")
        records = parse_corpus(path)
        assert [r.id for r in records] == [rid for rid, _ in groups]
        for record, (rid, G) in zip(records, groups):
            assert record.name == rid
            assert record.group.degree == G.degree
            assert [g.images for g in record.group.generators] == [
                g.images for g in G.generators
            ]
            assert record.expected_order == record.group.order() == G.order()

    @settings(max_examples=150, deadline=None)
    @given(corpus_groups(), st.lists(mutations, min_size=1, max_size=3))
    def test_malformed_lines_name_a_line(self, tmp_path_factory, groups, edits):
        lines = "".join(render_record(rid, G) for rid, G in groups).splitlines()
        for edit in edits:
            i = edit[1] % (len(lines) + 1)
            if edit[0] == "delete":
                del lines[i:i + 1]
            elif edit[0] == "repeat":
                lines[i:i] = lines[i:i + 1]
            else:
                line = f"{edit[2]} {edit[3]}"
                lines[i:i + (edit[0] == "replace")] = [line]
        path = tmp_path_factory.mktemp("bad") / "bad.corpus"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        assert_names_a_line(path)

    @pytest.mark.parametrize("text,fragment", [
        ("group g\ndegree 3\ngen (1 2)\n", "line 1: record missing 'end'"),
        ("group g\ndegree 3\ngen (1 2\nend\n", "line 3:"),
        ("group g\ndegree 3\ngen (1 é)\nend\n", "line 3:"),
        ("group g\ndegree 3\ngen (1 2)\norder 3\nend\n", "line 4:"),
        ("group a\ndegree 2\ngen (1 2)\nend\ngroup a\nend\n", "line 5"),
        ("group Ж\ndegree ٣\ngen (1 2)\nend\ngroup Ж\nend\n", "line 5"),
        ("group g\ndegree 3\ngen (1 2 3)\ndegree 5\nend\n", "line 4:"),
    ])
    def test_malformed_examples(self, tmp_path, text, fragment):
        path = tmp_path / "bad.corpus"
        path.write_text(text, "utf-8")
        with pytest.raises(CutgroupsError) as exc:
            parse_corpus(path)
        assert fragment in str(exc.value)

    def test_hash_inside_a_name_starts_a_comment(self, tmp_path):
        path = tmp_path / "hash.corpus"
        path.write_text("group g#1\nname C#2 cyclic\ndegree 2\ngen (1 2)\nend\n")
        (record,) = parse_corpus(path)
        assert (record.id, record.name) == ("g", "C")

    def test_non_utf8_text_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.corpus"
        path.write_bytes("group g\nname Gödel\ndegree 2\ngen (1 2)\nend\n".encode("latin-1"))
        with pytest.raises(CorpusSyntaxError) as exc:
            parse_corpus(path)
        assert exc.value.line_no == 2
