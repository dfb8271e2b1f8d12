"""`tmbt check --format json` and `tmbt translate` output pinned byte for byte.

Each `.jsonl` file under `golden/` is the stdout of one `check` run, and
CASES gives its arguments and exit code; `golden/specs/` holds the
`--spec` sources.  A change that alters counts,
traces, their order or the JSON layout shows up here as a diff.  Each
`translate-*.json` file is the IR that `translate` writes for one of
TRANSLATED; `junctions.tla` nests its junctions both ways and uses one
definition as a first conjunct and as a later one.

To rewrite the files from the code under test, run
`PYTHONPATH=src python tests/test_golden.py`; it refuses to write a
file whose exit code differs from the one CASES declares.
"""

import pathlib
import sys

import pytest

from tmbt.cli import main

from cli_runner import CliRunner

GOLDEN = pathlib.Path(__file__).parent / "golden"
SPECS = GOLDEN / "specs"
EXAMPLES = pathlib.Path(__file__).parent.parent / "src" / "tmbt" / "specs"

# name: (arguments after `check`, exit code)
CASES = {
    "onebit": (["--example", "onebit"], 0),
    "diehard": (["--example", "diehard"], 1),
    "diehard-big_ne_4": (["--example", "diehard", "--invariant", "big_ne_4"], 1),
    "euclid": (["--example", "euclid"], 0),
    "euclid-284x355": (["--example", "euclid", "--param", "M=284",
                        "--param", "N=355"], 0),
    "therac25": (["--example", "therac25"], 1),
    "steamboiler": (["--example", "steamboiler"], 0),
    "steamboiler-190-810": (["--example", "steamboiler", "--param", "low=190",
                             "--param", "high=810"], 1),
    "steamboiler-296-704": (["--example", "steamboiler", "--param", "low=296",
                             "--param", "high=704"], 0),
    # a disjunct that states a value outside TypeOK, in Init and in Next,
    # and an action whose false guard needs no domain for its variable
    "init-disjunct": (["--spec", str(SPECS / "init_disjunct.tla")], 1),
    "next-disjunct": (["--spec", str(SPECS / "next_disjunct.tla")], 1),
    "disabled-guard": (["--spec", str(SPECS / "disabled_guard.tla")], 0),
    "junctions": (["--spec", str(SPECS / "junctions.tla")], 0),
    # two shortest traces to the violation: the first initial state's wins,
    # though the other passes through a state with the smaller key
    "diamond": (["--spec", str(SPECS / "diamond.tla"), "--invariant", "Inv"], 1),
    # 21 initial states: --max-distinct keeps the first in key order
    "init-range-max-distinct-5": (["--spec", str(SPECS / "init_range.tla"),
                                   "--invariant", "Small",
                                   "--max-distinct", "5"], 1),
    "init-range-max-distinct-0": (["--spec", str(SPECS / "init_range.tla"),
                                   "--invariant", "Small",
                                   "--max-distinct", "0"], 0),
}

# name: the source `translate` reads
TRANSLATED = {
    "onebit": EXAMPLES / "onebit.tla",
    "diehard": EXAMPLES / "diehard.tla",
    "disabled-guard": SPECS / "disabled_guard.tla",
    "init-disjunct": SPECS / "init_disjunct.tla",
    "next-disjunct": SPECS / "next_disjunct.tla",
    "junctions": SPECS / "junctions.tla",
}


def run_check(args: list):
    result = CliRunner().invoke(main, ["check", *args, "--format", "json"])
    return result.exit_code, result.stdout


def run_translate(source: pathlib.Path):
    result = CliRunner().invoke(main, ["translate", str(source)])
    return result.exit_code, result.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_output_is_unchanged(name):
    args, exit_code = CASES[name]
    assert run_check(args) == (exit_code, (GOLDEN / f"{name}.jsonl").read_text())


@pytest.mark.parametrize("name", sorted(TRANSLATED))
def test_translate_output_is_unchanged(name):
    want = (GOLDEN / f"translate-{name}.json").read_text()
    assert run_translate(TRANSLATED[name]) == (0, want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (args, exit_code) in CASES.items():
        got, stdout = run_check(args)
        if got != exit_code:
            sys.exit(f"{name}: exit {got}, CASES declares {exit_code}")
        (GOLDEN / f"{name}.jsonl").write_text(stdout)
    for name, source in TRANSLATED.items():
        got, stdout = run_translate(source)
        if got != 0:
            sys.exit(f"translate {name}: exit {got}")
        (GOLDEN / f"translate-{name}.json").write_text(stdout)
