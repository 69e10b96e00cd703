import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cutgroups import cli
from cutgroups.corpus import bundled_corpus_path, parse_corpus
from cutgroups.errors import excerpt
from cutgroups.group import _Chain
from cutgroups.rationality import CHECKS, CheckResult


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_cyclic_6(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--family", "cyclic:6", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["cut"] is True
        assert report["qg_degree"] == 2

    def test_cyclic_5_not_cut(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "cyclic:5", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["cut"] is False

    def test_missing_file(self, capsys):
        code, out, err = run_cli(["analyze", "--file", "/nonexistent.corpus"], capsys)
        assert code == 2
        assert out == ""
        assert err

    def test_bad_family(self, capsys):
        code, _, err = run_cli(["analyze", "--family", "sylnorm:4"], capsys)
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize("spec,message", [
        ("sylnorm:100000000000000000039", "sylnorm supports p <= 13"),
        ("wreath-sylnorm:13:3000000", "degree 13**3000000 exceeds"),
    ])
    def test_huge_family_parameter_exits_2(self, spec, message, capsys):
        code, out, err = run_cli(["analyze", "--family", spec], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("spec,message", [
        # int() refuses more than 4300 digits; the digits are not echoed
        ("cyclic:" + "1" * 5000, "non-integer parameter <5000 digits>"),
        ("abelian:2," + "1" * 5000, "non-integer parameter <5000 digits>"),
        ("cyclic:-" + "1" * 5000, "non-integer parameter <5000 digits>"),
        ("cyclic:" + "1" * 4300, "cyclic degree <4300 digits> exceeds 1000000"),
        ("cyclic:" + "1" * 21, "cyclic degree <21 digits> exceeds 1000000"),
        ("cyclic:" + "1" * 20, "cyclic degree 11111111111111111111 exceeds 1000000"),
        # 4·m and the sum of the factors pass the 4300 digits str() accepts
        ("dicyclic:" + "9" * 4300, "dicyclic degree <4301 digits> exceeds 1000000"),
        ("abelian:" + "9" * 4300 + "," + "9" * 4300,
         "abelian degree <4301 digits> exceeds 1000000"),
        ("dihedral:-" + "1" * 4300, "dihedral group needs n >= 3, got -<4300 digits>"),
        ("wreath-sylnorm:3:" + "1" * 4300, "degree 3**<4300 digits> exceeds 1000000"),
        ("sylnorm:" + "1" * 4300, "sylnorm supports p <= 13, got <4300 digits>"),
    ], ids=["cyclic-5000", "abelian-5000", "signed-5000", "cyclic", "cyclic-21",
            "cyclic-20", "dicyclic", "abelian", "dihedral", "wreath", "sylnorm"])
    def test_huge_parameter_is_named_by_its_digit_count(self, spec, message, capsys):
        code, out, err = run_cli(["analyze", "--family", spec], capsys)
        assert (code, out) == (2, "")
        assert err == f"cutgroups: {message}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("spec,param", [
        ("cyclic:12x", "12x"), ("cyclic:+-1", "+-1"), ("abelian:2,3x", "3x"),
    ])
    def test_non_integer_parameter_is_echoed(self, spec, param, capsys):
        code, out, err = run_cli(["analyze", "--family", spec], capsys)
        assert (code, out) == (2, "")
        assert err == f"cutgroups: non-integer parameter {param!r}\n"

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--family", "wreath-sylnorm:5:2", "--cap", "1000"], capsys
        )
        assert code == 3
        assert "cap" in err

    def test_file_source(self, tmp_path, capsys):
        path = tmp_path / "one.corpus"
        path.write_text("group q8\ndegree 8\ngen (1 2 3 4)(5 8 7 6)\n"
                        "gen (1 5 3 7)(2 6 4 8)\nend\n")
        code, out, _ = run_cli(
            ["analyze", "--file", str(path), "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["order"] == 8

    def test_file_with_many_records_rejected(self, tmp_path, capsys):
        path = tmp_path / "two.corpus"
        path.write_text("group a\ndegree 2\ngen (1 2)\nend\n"
                        "group b\ndegree 3\ngen (1 2 3)\nend\n")
        code, _, err = run_cli(["analyze", "--file", str(path)], capsys)
        assert code == 2
        assert "exactly one" in err

    def test_text_format_lists_checks(self, capsys):
        code, out, _ = run_cli(["analyze", "--family", "cyclic:6"], capsys)
        assert code == 0
        assert "cut:" in out and "bmp" in out

    def test_check_selection(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--family", "cyclic:6", "--checks", "bmp,tent",
             "--format", "json"], capsys
        )
        assert code == 0
        assert set(json.loads(out)["checks"]) == {"bmp", "tent"}

    def test_unknown_check_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--family", "cyclic:6", "--checks", "nope"])
        assert exc.value.code == 2

    def test_survey_only_check_rejected(self, capsys):
        # syl2 only fills a survey row's sylow2_cut; analyze has no output for it
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--family", "sylnorm:5", "--checks", "lemma61,syl2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "syl2" in err
        assert "known: " + ", ".join(CHECKS) in err

    @pytest.mark.parametrize("cap", ["0", "-5", "x"])
    def test_bad_cap_rejected_at_parse_time(self, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--family", "cyclic:6", "--cap", cap])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["analyze", "--family", "cyclic:6", "--cap", "1" * 5000],
         "argument --cap: must be an integer, got <5000 digits>"),
        (["analyze", "--family", "cyclic:6", "--cap", "-" + "1" * 4000],
         "argument --cap: must be >= 1, got -<4000 digits>"),
        (["analyze", "--family", "cyclic:6", "--cap", "x"],
         "argument --cap: must be an integer, got 'x'"),
        (["survey", "--corpus", "c", "--workers", "x" * 100000],
         "argument --workers: must be an integer,"
         " got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ], ids=["cap-5000-digits", "cap-minus-4000-digits", "cap-x", "workers-100000-x"])
    def test_refused_integer_option_is_not_echoed(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse prints the subcommand's usage, then the one-line refusal
        usage, refusal = err.split(f"cutgroups {argv[0]}: error: ")
        assert usage.startswith(f"usage: cutgroups {argv[0]} ")
        assert refusal == message + "\n"
        assert len(err.encode()) - len(usage.encode()) < 200

    # Byte-exact outputs; the JSON form is pinned by the benchmark's stored
    # analyze reports and by criterion 14.
    GOLDEN = {
        ("sylnorm:5", "text"): (
            "order:         20\n"
            "solvable:      True\n"
            "rational:      False\n"
            "cut:           True\n"
            "semirational:  True\n"
            "qg_degree:     2\n"
            "classes:       5\n"
            "checks:\n"
            "  bmp          PASS order 20 divisible by 2 or 3\n"
            "  tent         PASS character field degree 2 vs bound 32\n"
            "  gow_primes   SKIP needs a solvable rational group\n"
            "  cut_primes   PASS prime divisors within {2, 3, 5, 7}\n"
            "  hegedus      SKIP needs a solvable rational group\n"
            "  ppe          PASS exp(P/P') of the order-1 Sylow 3-subgroup divides 3\n"
            "  q3           PASS exp O_5 = 5; exp O_7 = 1\n"
            "  sylow3       PASS Sylow 3-subgroup of order 1 is cut\n"
            "  lemma61      PASS vacuous: no elements of 3-power order\n"
        ),
        ("sylnorm:5", "csv"): (
            "order,solvable,rational,cut,semirational,qg_degree,check:bmp,"
            "check:tent,check:gow_primes,check:cut_primes,check:hegedus,"
            "check:ppe,check:q3,check:sylow3,check:lemma61\n"
            "20,True,False,True,True,2,PASS,PASS,SKIP,PASS,SKIP,PASS,PASS,PASS,PASS\n"
        ),
        ("symmetric:4", "text"): (
            "order:         24\n"
            "solvable:      True\n"
            "rational:      True\n"
            "cut:           True\n"
            "semirational:  True\n"
            "qg_degree:     1\n"
            "classes:       5\n"
            "checks:\n"
            "  bmp          PASS order 24 divisible by 2 or 3\n"
            "  tent         PASS character field degree 1 vs bound 32\n"
            "  gow_primes   PASS prime divisors within {2, 3, 5}\n"
            "  cut_primes   PASS prime divisors within {2, 3, 5, 7}\n"
            "  hegedus      PASS Sylow 5 order 1: normal=True, elementary abelian=True\n"
            "  ppe          PASS exp(P/P') of the order-3 Sylow 3-subgroup divides 3\n"
            "  q3           PASS exp O_5 = 1; exp O_7 = 1\n"
            "  sylow3       PASS Sylow 3-subgroup of order 3 is cut\n"
            "  lemma61      PASS 8 elements of 3-power order agree with the Sylow verdict\n"
        ),
        ("symmetric:4", "csv"): (
            "order,solvable,rational,cut,semirational,qg_degree,check:bmp,"
            "check:tent,check:gow_primes,check:cut_primes,check:hegedus,"
            "check:ppe,check:q3,check:sylow3,check:lemma61\n"
            "24,True,True,True,True,1,PASS,PASS,PASS,PASS,PASS,PASS,PASS,PASS,PASS\n"
        ),
    }

    @pytest.mark.parametrize("family,fmt", sorted(GOLDEN))
    def test_golden_output(self, family, fmt, capsys):
        code, out, err = run_cli(
            ["analyze", "--family", family, "--format", fmt], capsys
        )
        assert (code, err) == (0, "")
        assert out == self.GOLDEN[family, fmt]


class TestSurvey:
    def corpus_file(self, tmp_path):
        path = tmp_path / "mini.corpus"
        path.write_text(
            "group c3\ndegree 3\ngen (1 2 3)\norder 3\nend\n"
            "group s3\ndegree 3\ngen (1 2)\ngen (1 2 3)\norder 6\nend\n"
            "group c5\ndegree 5\ngen (1 2 3 4 5)\norder 5\nend\n"
        )
        return path

    def test_exit_zero_and_json(self, tmp_path, capsys):
        path = self.corpus_file(tmp_path)
        code, out, _ = run_cli(
            ["survey", "--corpus", str(path), "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 3
        assert report["failures"] == []

    def test_non_cut_corpus_all_skips(self, tmp_path, capsys):
        path = tmp_path / "c5.corpus"
        path.write_text("group c5\ndegree 5\ngen (1 2 3 4 5)\nend\n")
        code, out, _ = run_cli(
            ["survey", "--corpus", str(path), "--format", "json"], capsys
        )
        assert code == 0
        checks = json.loads(out)["rows"][0]["checks"]
        assert all(r["status"] == "SKIP" for name, r in checks.items()
                   if name not in ("lemma61",))

    def test_malformed_corpus(self, tmp_path, capsys):
        path = tmp_path / "bad.corpus"
        path.write_text("group g\ndegree x\nend\n")
        code, _, err = run_cli(["survey", "--corpus", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("degree,message", [
        ("1" * 4300, "line 1: degree must be in 1..1000000, got <4300 digits>"),
        ("1" * 5000, "line 2: bad degree <5000 digits>"),
    ], ids=["range", "int-limit"])
    def test_huge_corpus_degree_is_named_by_its_digit_count(
        self, tmp_path, degree, message, capsys
    ):
        path = tmp_path / "huge.corpus"
        path.write_text(f"group g\ndegree {degree}\ngen ()\nend\n")
        code, out, err = run_cli(["survey", "--corpus", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"cutgroups: {message}\n"
        assert len(err.encode()) < 200

    def test_missing_corpus(self, capsys):
        code, _, err = run_cli(["survey", "--corpus", "/nope.corpus"], capsys)
        assert code == 2

    def test_fail_exit_code(self, tmp_path, capsys, monkeypatch):
        # no real corpus group violates a theorem check, so fake one FAIL to
        # pin the exit-code contract for counterexample discovery
        from cutgroups import rationality

        monkeypatch.setitem(
            rationality.CHECKS,
            "bmp",
            lambda a: CheckResult("FAIL", "fabricated for exit-code test"),
        )
        path = self.corpus_file(tmp_path)
        code, out, err = run_cli(
            ["survey", "--corpus", str(path), "--checks", "bmp",
             "--format", "json"], capsys
        )
        assert code == 1
        assert "failure" in err

    @staticmethod
    def break_bmp_for_order_6(monkeypatch, fail_others=False):
        from cutgroups import rationality

        def bmp(a):
            if a.G.order() == 6:
                raise RuntimeError("injected fault")
            if fail_others:
                return CheckResult("FAIL", "fabricated for exit-code test")
            return CheckResult("PASS", "")

        monkeypatch.setitem(rationality.CHECKS, "bmp", bmp)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_bad_record_does_not_end_the_survey(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        self.break_bmp_for_order_6(monkeypatch)
        path = self.corpus_file(tmp_path)
        code, out, err = run_cli(
            ["survey", "--corpus", str(path), "--checks", "bmp",
             "--workers", workers, "--format", "json"], capsys
        )
        assert code == 4
        assert "1 record(s) could not be analyzed" in err
        report = json.loads(out)
        assert [row["id"] for row in report["rows"]] == ["c3", "c5"]
        assert report["errors"] == [{"id": "s3", "error": "RuntimeError: injected fault"}]
        assert report["aggregates"]["analyzed"] == 2

    def test_errors_in_text_report(self, tmp_path, capsys, monkeypatch):
        self.break_bmp_for_order_6(monkeypatch)
        path = self.corpus_file(tmp_path)
        code, out, _ = run_cli(
            ["survey", "--corpus", str(path), "--checks", "bmp", "--format", "text"],
            capsys,
        )
        assert code == 4
        assert "  s3: RuntimeError: injected fault" in out

    def test_fail_takes_precedence_over_errors(self, tmp_path, capsys, monkeypatch):
        self.break_bmp_for_order_6(monkeypatch, fail_others=True)
        path = self.corpus_file(tmp_path)
        code, _, err = run_cli(
            ["survey", "--corpus", str(path), "--checks", "bmp", "--format", "json"],
            capsys,
        )
        assert code == 1
        assert "failure" in err and "could not be analyzed" in err

    def test_clean_report_has_no_errors_key(self, tmp_path, capsys):
        path = self.corpus_file(tmp_path)
        code, out, _ = run_cli(
            ["survey", "--corpus", str(path), "--format", "json"], capsys
        )
        assert code == 0
        assert "errors" not in json.loads(out)

    def test_survey_accepts_syl2(self, tmp_path, capsys):
        path = self.corpus_file(tmp_path)
        code, out, _ = run_cli(
            ["survey", "--corpus", str(path), "--checks", "syl2",
             "--format", "json"], capsys
        )
        assert code == 0
        rows = {row["id"]: row for row in json.loads(out)["rows"]}
        assert rows["s3"]["sylow2_cut"] is True

    @pytest.mark.parametrize("workers", ["0", "-1", "x"])
    def test_bad_workers_rejected_at_parse_time(self, tmp_path, workers, capsys):
        path = self.corpus_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["survey", "--corpus", str(path), "--workers", workers])
        assert exc.value.code == 2

    def test_output_file(self, tmp_path, capsys):
        path = self.corpus_file(tmp_path)
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            ["survey", "--corpus", str(path), "--format", "csv",
             "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("id,")

    def test_workers_flag_matches_serial_output(self, tmp_path, capsys):
        path = self.corpus_file(tmp_path)
        code, serial, _ = run_cli(
            ["survey", "--corpus", str(path), "--checks", "bmp",
             "--format", "csv"], capsys
        )
        assert code == 0
        code, parallel, _ = run_cli(
            ["survey", "--corpus", str(path), "--checks", "bmp",
             "--format", "csv", "--workers", "2"], capsys
        )
        assert code == 0
        assert serial == parallel


    def golden_corpus(self, tmp_path):
        # non-cut c5 (empty sylow2_cut cell), cut s3, s4 over --cap 20
        path = tmp_path / "golden.corpus"
        path.write_text(
            "group c5\ndegree 5\ngen (1 2 3 4 5)\nend\n"
            "group s3\ndegree 3\ngen (1 2)\ngen (1 2 3)\nend\n"
            "group s4\ndegree 4\ngen (1 2)\ngen (1 2 3 4)\nend\n"
        )
        return path

    def test_golden_text(self, tmp_path, capsys):
        path = self.golden_corpus(tmp_path)
        code, out, err = run_cli(
            ["survey", "--corpus", str(path), "--cap", "20",
             "--checks", "bmp,syl2,lemma61", "--format", "text"], capsys
        )
        assert (code, err) == (0, "")
        assert out == (
            f"corpus: {path}\n"
            "analyzed 2 groups (max order 6, cap 20), 1 skipped\n"
            "\n"
            "  rational:          1  (50.0%)\n"
            "  cut:               1  (50.0%)\n"
            "  semirational:      1  (50.0%)\n"
            "\n"
            "check results (pass/fail/skip):\n"
            "  bmp             1 /    0 /    1\n"
            "  lemma61         2 /    0 /    0\n"
            "\n"
            "skipped:\n"
            "  s4: group order 24 exceeds enumeration cap 20\n"
        )

    def test_golden_csv(self, tmp_path, capsys):
        path = self.golden_corpus(tmp_path)
        code, out, err = run_cli(
            ["survey", "--corpus", str(path), "--cap", "20",
             "--checks", "bmp,syl2,lemma61", "--format", "csv"], capsys
        )
        assert (code, err) == (0, "")
        assert out == (
            "id,order,solvable,rational,cut,semirational,qg_degree,sylow2_cut,"
            "check:bmp,check:lemma61\n"
            "c5,5,True,False,False,False,4,,SKIP,PASS\n"
            "s3,6,True,True,True,True,1,True,PASS,PASS\n"
        )

    def test_no_corpus_chain_is_alive_while_the_report_renders(self, capsys, monkeypatch):
        # the chains of the parsed records go once the survey has run, so
        # they never peak together with the rendered report
        def chains() -> int:
            return sum(isinstance(o, _Chain) for o in gc.get_objects())

        rendered = []
        render = cli.render_report

        def counting(report, format):
            rendered.append(chains())
            return render(report, format)

        monkeypatch.setattr(cli, "render_report", counting)
        gc.collect()
        before = chains()
        argv = ["survey", "--corpus", str(bundled_corpus_path()), "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(json.loads(out)["rows"]) == 172
        assert len(rendered) == 1 and rendered[0] <= before


class TestConstruct:
    def test_sylnorm_7(self, tmp_path, capsys):
        out_path = tmp_path / "f42.corpus"
        code, _, _ = run_cli(
            ["construct", "--family", "sylnorm:7", "--out", str(out_path)], capsys
        )
        assert code == 0
        (record,) = parse_corpus(out_path)
        assert record.id == "sylnorm:7"
        assert record.expected_order == 42

    def test_big_wreath_order(self, tmp_path, capsys):
        out_path = tmp_path / "w.corpus"
        code, _, _ = run_cli(
            ["construct", "--family", "wreath-sylnorm:5:2", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        (record,) = parse_corpus(out_path)
        assert record.expected_order == 64_000_000

    def test_bad_spec(self, capsys):
        code, _, err = run_cli(["construct", "--family", "sylnorm:4"], capsys)
        assert code == 2

    def test_stdout_output_parses(self, tmp_path, capsys):
        code, out, _ = run_cli(["construct", "--family", "dihedral:6"], capsys)
        assert code == 0
        path = tmp_path / "echo.corpus"
        path.write_text(out)
        (record,) = parse_corpus(path)
        assert record.expected_order == 12


class TestAnFields:
    def test_rows_4_to_5(self, capsys):
        code, out, _ = run_cli(
            ["an-fields", "--max-n", "5", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == [4, 5]
        assert all(r["qg_degree"] == 2 for r in rows)

    def test_growth_by_twelve(self, capsys):
        code, out, _ = run_cli(
            ["an-fields", "--max-n", "12", "--format", "json"], capsys
        )
        rows = json.loads(out)["rows"]
        assert any(r["qg_degree"] >= 4 for r in rows)

    @pytest.mark.parametrize("n", ["3", "15"])
    def test_out_of_range(self, n, capsys):
        code, _, err = run_cli(["an-fields", "--max-n", n], capsys)
        assert code == 2

    def test_text_table(self, capsys):
        code, out, _ = run_cli(["an-fields", "--max-n", "6"], capsys)
        assert code == 0
        assert "exp(A_n)" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(["an-fields", "--max-n", "5", "--format", "csv"], capsys)
        assert out.splitlines()[0] == "n,exponent,qg_degree"


    def test_golden_text(self, capsys):
        code, out, err = run_cli(["an-fields", "--max-n", "6"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "  n    exp(A_n)  deg Q(A_n)\n"
            "  4           6           2\n"
            "  5          30           2\n"
            "  6          60           2\n"
        )

    def test_golden_csv(self, capsys):
        code, out, err = run_cli(
            ["an-fields", "--max-n", "6", "--format", "csv"], capsys
        )
        assert (code, err) == (0, "")
        assert out == "n,exponent,qg_degree\n4,6,2\n5,30,2\n6,60,2\n"


class TestStoredOutputs:
    """The benchmark's stored survey, analyze and an-fields outputs, byte
    for byte.  The commands run from the repository root, because a survey
    report names its corpus path as given."""

    ROOT = Path(__file__).parents[1]
    EXPECTED = ROOT / "perfbench" / "expected"

    @pytest.mark.parametrize("name,argv", [
        ("survey-bundled.json", ["survey", "--corpus",
         "src/cutgroups/data/bundled.corpus", "--format", "json"]),
        ("an-fields-14.json", ["an-fields", "--max-n", "14", "--format", "json"]),
        ("analyze-symmetric-8.json",
         ["analyze", "--family", "symmetric:8", "--format", "json"]),
        ("analyze-alternating-8.json",
         ["analyze", "--family", "alternating:8", "--format", "json"]),
    ], ids=["survey-bundled", "an-fields-14", "analyze-symmetric-8",
            "analyze-alternating-8"])
    def test_output_equals_the_stored_file(self, name, argv, capsys, monkeypatch):
        monkeypatch.chdir(self.ROOT)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (self.EXPECTED / name).read_bytes()


class TestConsoleScript:
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "cutgroups.cli", "analyze", "--family",
             "cyclic:4", "--format", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["cut"] is True


class TestUnwritableOut:
    # exit 1 is kept for a check FAIL; a path that cannot be written is an
    # input error: exit 2 and one line on stderr
    @pytest.mark.parametrize("command", [
        ["analyze", "--family", "cyclic:4"],
        ["survey", "--corpus", "{corpus}"],
        ["construct", "--family", "cyclic:4"],
        ["an-fields", "--max-n", "5"],
    ], ids=["analyze", "survey", "construct", "an-fields"])
    def test_exit_two_with_one_line(self, command, tmp_path, capsys):
        corpus = tmp_path / "c3.corpus"
        corpus.write_text("group c3\ndegree 3\ngen (1 2 3)\nend\n")
        out_path = tmp_path / "missing-dir" / "x.txt"
        argv = [a.format(corpus=corpus) for a in command] + ["--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("cutgroups: ") and excerpt(str(out_path)) in err
        assert "Traceback" not in err


def test_survey_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    from cutgroups import corpus

    def no_survey(*args, **kwargs):
        raise AssertionError("run_survey called for an unwritable --out")

    # cli holds its own binding of run_survey; patch both
    monkeypatch.setattr(corpus, "run_survey", no_survey)
    monkeypatch.setattr(cli, "run_survey", no_survey)
    path = tmp_path / "c3.corpus"
    path.write_text("group c3\ndegree 3\ngen (1 2 3)\nend\n")
    out_path = tmp_path / "missing-dir" / "x.json"
    code, out, err = run_cli(
        ["survey", "--corpus", str(path), "--out", str(out_path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("cutgroups: ") and excerpt(str(out_path)) in err
    assert "Traceback" not in err


def test_survey_non_utf8_corpus_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.corpus"
    path.write_bytes("group g\nname Gödel\ndegree 2\ngen (1 2)\nend\n".encode("latin-1"))
    code, out, err = run_cli(["survey", "--corpus", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "cutgroups: line 2: not UTF-8 text\n"
