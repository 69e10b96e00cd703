"""Refusals of user input stay short: every echo of what the user wrote goes
through ``errors.excerpt`` or ``errors.brief``, and every integer the user
wrote is read by ``errors.read_int``."""

import errno
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgroups import cli
from cutgroups.constructions import FAMILIES, parse_family_spec
from cutgroups.corpus import parse_corpus
from cutgroups.errors import CutgroupsError, read_int
from cutgroups.perm import parse_permutation

X = "x" * 100000
X_SHOWN = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
KNOWN = ", ".join(sorted(FAMILIES))


@pytest.mark.parametrize("text,value", [
    ("12", 12), (" -7 ", -7), ("+3", 3), ("1_000", 1000), ("1" * 4300, int("1" * 4300)),
])
def test_read_int_reads_what_int_reads(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize("text,shown", [
    ("1" * 5000, "<5000 digits>"),
    (" -" + "1" * 5000, "<5000 digits>"),
    ("+" + "9" * 4301, "<4301 digits>"),
    ("x", "'x'"),
    ("+-1", "'+-1'"),
    ("", "''"),
    ("1" * 4000 + "x", "'111111111111...111111111111x'"),
    (X, X_SHOWN),
], ids=["5000", "signed-5000", "plus-4301", "x", "two-signs", "empty", "digits-x",
        "100000-x"])
def test_read_int_shows_a_refused_text_short(text, shown):
    with pytest.raises(ValueError) as exc:
        read_int(text)
    assert str(exc.value) == shown


# Inputs that were echoed whole before every refusal went through excerpt
# or brief, each with its whole refusal line: (argv, corpus text, message).
# The `checks` entry is a message of the package's own that argparse's
# bounding must leave whole.  A corpus text is written to DEEP, a path of 15 nested 200-character
# directories below the test's working directory, which then ends argv.
DEEP = Path(*["d" * 200] * 15, "refused.corpus")
ONE_RECORD = "group g\ndegree 2\ngen (1 2)\nend\n"
REFUSALS = [
    (["analyze", "--family", X], None,
     f"cutgroups: unknown family {X_SHOWN} (known: {KNOWN})"),
    (["analyze", "--family", "abelian:2," + X], None,
     f"cutgroups: non-integer parameter {X_SHOWN}"),
    (["an-fields", "--max-n", "1" * 5000], None,
     "cutgroups an-fields: error: argument --max-n: must be an integer, got <5000 digits>"),
    (["an-fields", "--max-n", "1" * 4000], None,
     "cutgroups: --max-n must be in 4..14, got <4000 digits>"),
    (["an-fields", "--max-n", "x" + X], None,
     f"cutgroups an-fields: error: argument --max-n: must be an integer, got {X_SHOWN}"),
    (["analyze", "--family", "cyclic:3", "--format", X], None,
     f"cutgroups analyze: error: argument --format: invalid choice: {X_SHOWN}"
     " (choose from 'json', 'csv', 'text')"),
    (["analyze", "--family", "cyclic:3", "--format", "a " * 50000], None,
     "cutgroups analyze: error: argument --format: invalid choice:"
     " 'a a a a a a ... a a a a a a ' (choose from 'json', 'csv', 'text')"),
    (["analyze", "--family", "cyclic:3", "--f=" + X], None,
     "cutgroups analyze: error: ambiguous option: '--f=xxxxxxxx...xxxxxxxxxxxxx'"
     " could match --family, --file, --format"),
    ([X], None, f"cutgroups: error: argument command: invalid choice: {X_SHOWN}"
     " (choose from 'analyze', 'survey', 'construct', 'an-fields')"),
    (["analyze", "--family", "cyclic:3", X], None,
     f"cutgroups: error: unrecognized arguments: [{X_SHOWN}]"),
    (["analyze", "--family", "cyclic:3"] + ["a"] * 50000, None,
     "cutgroups: error: unrecognized arguments: ['a', 'a', 'a', 'a', 'a', 'a', ...]"),
    (["survey", "--corpus", "c", "--checks", "a,b,c,d"], None,
     "cutgroups survey: error: argument --checks: unknown checks ['a', 'b', 'c', 'd'];"
     " known: bmp, tent, gow_primes, cut_primes, hegedus, ppe, q3, sylow3, lemma61, syl2"),
    (["analyze", "--file"], ONE_RECORD + ONE_RECORD.replace(" g", " h"),
     "cutgroups: 'dddddddddddd...efused.corpus': expected exactly one record, found 2"),
    (["survey", "--corpus", X], None, "cutgroups: [Errno {}] {}: {}".format(
        errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), X_SHOWN)),
    (["survey", "--corpus"], "group g\ndegree 5\ngen (1 " + "1" * 5000 + ")\nend\n",
     "cutgroups: line 3: record 'g':"
     " non-integer point in cycle: '(1 111111111...111111111111)'"),
    (["survey", "--corpus"], "group g\ndegree 5\ngen (1 " + "1" * 4000 + ")\nend\n",
     "cutgroups: line 3: record 'g': point <4000 digits> not in 1..5"),
    (["survey", "--corpus"], "group g\ndegree 5\ngen (" + " 1" * 100000 + ")\nend\n",
     "cutgroups: line 3: record 'g': repeated point 1"),
    (["survey", "--corpus"], "group g\ndegree 5\ngen " + "(1 2)" * 100000 + "x\nend\n",
     "cutgroups: line 3: record 'g':"
     " not cycle notation: '(1 2)(1 2)(1...2)(1 2)(1 2)x'"),
    (["survey", "--corpus"], f"group {X}\ngen (1 2)\nend\n",
     f"cutgroups: line 1: record {X_SHOWN} has no degree"),
    (["survey", "--corpus"], f"group g\n{X}\nend\n",
     f"cutgroups: line 2: unknown keyword {X_SHOWN}"),
    (["survey", "--corpus"], f"group g\ndegree x{X}\ngen (1 2)\nend\n",
     f"cutgroups: line 2: bad degree {X_SHOWN}"),
]


@pytest.mark.parametrize(
    "argv,corpus,message", REFUSALS,
    ids=["family", "abelian", "max-n-5000-digits", "max-n-4000-digits", "max-n-x",
         "format", "format-words", "ambiguous", "command", "unrecognized",
         "unrecognized-many", "checks", "file-records",
         "corpus-path", "gen-5000-digits", "gen-4000-digits", "gen-repeated",
         "gen-not-cycles", "record-no-degree", "keyword", "degree-x"],
)
def test_refusal_is_one_short_line(argv, corpus, message, tmp_path, monkeypatch, capsys):
    if corpus is not None:
        monkeypatch.chdir(tmp_path)
        DEEP.parent.mkdir(parents=True)
        DEEP.write_text(corpus)
        argv = argv + [str(DEEP)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an option before main returns
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    err = captured.err
    if err.startswith("usage: "):  # argparse's usage lines come first
        assert len(err.encode()) < 600
        err = err[err.index("\ncutgroups") + 1:]
    assert err == message + "\n"
    assert len(err.encode()) < 200


def long_runs(alphabet: str):
    """A short unit of ``alphabet`` repeated, cut to at most 10**5 characters:
    long inputs without generating them character by character."""
    return st.builds(
        lambda unit, n: (unit * n)[:100000],
        st.text(alphabet, min_size=1, max_size=8),
        st.integers(0, 30000),
    )


def assert_short_refusal(call) -> None:
    try:
        call()
    except CutgroupsError as e:
        assert len(str(e)) < 200


@settings(max_examples=60, deadline=None)
@given(text=long_runs("() 0123456789x-+"), degree=st.integers(1, 300))
def test_parse_permutation_refusals_are_short(text, degree):
    assert_short_refusal(lambda: parse_permutation(text, degree))


# the trailing x makes the last parameter unreadable, so no group is built
@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([*FAMILIES, "nope"]) | long_runs("xyz-:"),
    digits=long_runs("0123456789"),
    junk=long_runs("0123456789,:+- x"),
)
def test_parse_family_spec_refusals_are_short(family, digits, junk):
    assert_short_refusal(lambda: parse_family_spec(f"{family}:{digits}{junk}x"))


CORPUS_SLOTS = [
    "group {}\ngen (1 2)\nend\n",
    "group g\n{}\nend\n",
    "group g\ndegree {}\ngen (1 2)\nend\n",
    "group g\ndegree 5\ngen {}\nend\n",
    "group g\ndegree 2\ngen (1 2)\norder {}\nend\n",
    "{}\n",
]


@settings(max_examples=60, deadline=None)
@given(slot=st.sampled_from(CORPUS_SLOTS), text=long_runs("() 0123456789x-+,g"))
def test_parse_corpus_refusals_are_short(slot, text, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "long.corpus"
    path.write_text(slot.format(text))
    assert_short_refusal(lambda: parse_corpus(path))
