#!/usr/bin/env python3
"""Mutants that the tests must kill, each applied to its own extract of the repo.

    python3 scripts/mutants.py

Every entry of MUTANTS is ``(name, path, old, new, test ids)``: ``old``
occurs exactly once in ``path`` (tests/test_mutants.py checks that), and
the mutant replaces it by ``new``.  For each mutant the tracked files of
this checkout's working tree are extracted into a fresh temporary
directory, the way ``scripts/bench_pairs.py`` extracts its change side; the
copy is edited and pytest runs the named tests there, so the checkout is
never written.  A mutant is *killed* when its tests fail (a MemoryError
past MEMORY included) or run past TIMEOUT, and *survived* when they pass.
A run that ends any other way (a test id that no longer exists, a
collection error) is an *error*, never a kill.  First the unmutated extract must pass every named test.

The exit status is 1 when a mutant survived or erred.  A survivor is a gap
in the tests: it stays in the list, and the tests gain the case that
kills it.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ENV, extract, git  # noqa: E402

TIMEOUT = 600  # seconds per run of a mutant's tests
# bytes of address space per run: a mutant whose build never ends fails on
# a MemoryError instead of growing until the timeout
MEMORY = 2 * 2 ** 30

GROUP = "src/cutgroups/group.py"
STRUCTURE = "src/cutgroups/structure.py"
RATIONALITY = "src/cutgroups/rationality.py"
CLI = "src/cutgroups/cli.py"
CLOSURE = "tests/test_group.py::TestClosureAgainstTupleClosure"
CHAIN = "tests/test_group.py::TestChainAgainstOracle"
SWEEP = "tests/test_structure.py::TestIndexSweepAgainstTupleSweep"
DEFINITIONS = "tests/test_rationality.py::TestBruteforceOracle"

MUTANTS: list[tuple[str, str, str, str, list[str]]] = [
    # the class layer: the index, the sweep and the readers of the table
    ("index-rewrite-off-by-one", STRUCTURE,
     "index[z] = idx",
     "index[z] = idx + 1",
     [SWEEP]),
    ("sweep-follows-first-generator-only", STRUCTURE,
     "for g_inv, g_table in conjugators:",
     "for g_inv, g_table in conjugators[:1]:",
     [SWEEP]),
    ("sweep-right-multiplies", STRUCTURE,
     "z = compose_words(compose_words(g_inv, y_table), g_table)",
     "z = compose_words(y, g_table)",
     [SWEEP]),
    ("power-row-holds-the-rep-class", STRUCTURE,
     "row.append(index[x])",
     "row.append(c)",
     ["tests/test_structure.py::TestPowerMapAgainstTupleWalk"]),
    ("core-counts-every-class-met", STRUCTURE,
     "n == table.sizes[c]",
     "n <= table.sizes[c]",
     ["tests/test_structure.py::TestPCore"]),
    ("sylow-skips-p-elements", STRUCTURE,
     "if o % p:",
     "if o % p == 0:",
     ["tests/test_structure.py::TestSylow",
      "tests/test_structure.py::TestSylowAgainstEagerScan"]),
    # the enumeration and the stabilizer chain
    ("closure-applies-generators-in-reverse", GROUP,
     "for g in tables:",
     "for g in tables[::-1]:",
     [CLOSURE, "tests/test_group.py::TestCayley"]),
    ("chain-drops-a-schreier-pair", GROUP,
     "for beta in new for s in gens)",
     "for beta in new[1:] for s in gens)",
     [CHAIN]),
    ("chain-gathers-the-inverse-in-wrong-order", GROUP,
     "inverses[gamma] = compose(s_inv, inverses[beta]) + pad",
     "inverses[gamma] = compose(inverses[beta][: len(s_inv)], s_inv + pad) + pad",
     ["tests/test_group.py::TestChainInverses"]),
    # the refusals
    ("refusal-prints-a-second-line", CLI,
     'print(f"cutgroups: {error}", file=sys.stderr)',
     'print(f"cutgroups: {error}\\n", file=sys.stderr)',
     ["tests/test_cli.py::TestUnwritableOut", "tests/test_refusals.py"]),
    # the verdicts
    ("units-without-minus-one", RATIONALITY,
     "return tuple(residues_coprime(n))",
     "return tuple(k for k in residues_coprime(n) if k != n - 1 or n <= 2)",
     [DEFINITIONS]),
    ("every-class-real", RATIONALITY,
     "is_real = o <= 2 or (o - 1) in stab",
     "is_real = True",
     [DEFINITIONS]),
    ("field-degree-skips-a-condition", RATIONALITY,
     "for o, stab in conditions:",
     "for o, stab in conditions[1:]:",
     [DEFINITIONS, "tests/test_rationality.py::TestFieldDegreeKernel"]),
    ("inverse-semirational-ignores-reality", RATIONALITY,
     "is_inverse_semirational=degree == 1 or (degree == 2 and not is_real),",
     "is_inverse_semirational=degree <= 2,",
     [DEFINITIONS]),
]


def run_tests(where: Path, tests: list[str]) -> str:
    """'passed', 'failed', 'timeout' or 'error: <pytest exit code>'."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = dict(ENV, PYTHONPATH="src")
    try:
        done = subprocess.run(
            argv, cwd=where, env=env, capture_output=True, timeout=TIMEOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY)),
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(done.returncode, f"error: exit {done.returncode}")


def main() -> int:
    # a commit of the tracked files that moves no ref and touches no file;
    # git prints nothing when they equal HEAD
    rev = git("stash", "create") or "HEAD"
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        where = Path(tmp)
        extract(rev, where)
        tests = sorted({t for m in MUTANTS for t in m[4]})
        baseline = run_tests(where, tests)
        if baseline != "passed":
            print(f"mutants: the unmutated tests did not pass ({baseline})", file=sys.stderr)
            return 1
    bad = 0
    for name, path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            where = Path(tmp)
            extract(rev, where)
            target = where / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                outcome = "error: old text does not occur exactly once"
            else:
                target.write_text(text.replace(old, new), encoding="utf-8")
                outcome = run_tests(where, tests)
        verdict = {"failed": "killed", "timeout": "killed (timeout)", "passed": "survived"}
        result = verdict.get(outcome, outcome)
        bad += not result.startswith("killed")
        print(f"{name:40} {result:18} {time.perf_counter() - start:6.1f} s", flush=True)
    print(f"mutants: {len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
