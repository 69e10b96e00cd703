"""Regenerate the benchmark's stored inputs and expected outputs.

    python3 perfbench/make_data.py

Writes ``perfbench/data/chain_groups.json`` (generator lists of the
chain-large groups, so a run never pays for building them through the
family constructors) and ``perfbench/expected/*`` (the reports the
correctness gates compare against).  The expected files are the outputs of
the commit that introduced the benchmark; regenerate them only when a change
to a report is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from cutgroups import cli  # noqa: E402
from cutgroups.constructions import alternating, iterated_wreath, symmetric  # noqa: E402


def chain_groups() -> list[dict]:
    builders = {
        "symmetric": lambda spec: symmetric(spec["n"]),
        "alternating": lambda spec: alternating(spec["n"]),
        "wreath": lambda spec: iterated_wreath(spec["p"], spec["k"]),
    }
    out = []
    for spec in workloads.CHAIN_GROUPS:
        G = builders[spec["kind"]](spec)
        out.append(
            {
                "name": spec["name"],
                "degree": G.degree,
                "generators": [list(g.images) for g in G.generators],
            }
        )
    return out


def main() -> None:
    (HERE / "data").mkdir(exist_ok=True)
    (HERE / "data" / "chain_groups.json").write_text(
        json.dumps({"groups": chain_groups()}) + "\n", encoding="utf-8"
    )
    (HERE / "expected").mkdir(exist_ok=True)
    for name, argv in workloads.CLI_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (HERE / "expected" / name).write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    main()
