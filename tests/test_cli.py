import json
import subprocess
import sys

import pytest

from cutgroups import cli
from cutgroups.corpus import parse_corpus
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


class TestConsoleScript:
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "cutgroups.cli", "analyze", "--family",
             "cyclic:4", "--format", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["cut"] is True
