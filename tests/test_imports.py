"""Each command loads only the modules it runs, and the package's public
names resolve however they are loaded.

The budgets are checked in a fresh interpreter, since this process has
long since imported everything.
"""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import tmbt

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"
HEAVY = ("tmbt.pbt", "tmbt.boiler", "tmbt.ir", "tmbt.tla", "tmbt.streams")


def loaded_after(code: str) -> set:
    """The tmbt modules a fresh interpreter holds after running `code`."""
    probe = (f"{code}\nimport sys, json\n"
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m == 'tmbt' or m.startswith('tmbt.'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env={"PYTHONPATH": str(SRC)})
    return set(json.loads(done.stdout.splitlines()[-1]))


def _heavy(modules: set) -> list:
    return sorted(m for m in modules if m.startswith(HEAVY))


def test_importing_the_cli_loads_no_command_layer():
    assert _heavy(loaded_after("import tmbt.cli")) == []


def test_checking_a_built_in_example_loads_no_command_layer():
    code = ("import tmbt.cli\n"
            "try:\n"
            "    tmbt.cli.main(['check', '--example', 'euclid'])\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code")
    assert _heavy(loaded_after(code)) == []


def test_the_boiler_loads_neither_the_front_end_nor_the_streams():
    loaded = loaded_after("import tmbt.boiler")
    assert not loaded & {"tmbt.ir", "tmbt.tla", "tmbt.streams"}
    assert "tmbt.pbt" in loaded


@pytest.mark.parametrize("command,needs", [
    ("check --example onebit", "tmbt.tla"),
    ("check --example steamboiler", "tmbt.streams"),
])
def test_an_example_loads_what_builds_it(command, needs):
    code = ("import tmbt.cli\n"
            "try:\n"
            f"    tmbt.cli.main({command.split()!r})\n"
            "except SystemExit:\n"
            "    pass")
    loaded = loaded_after(code)
    assert needs in loaded
    assert not loaded & {"tmbt.pbt", "tmbt.boiler", "tmbt.ir"}


def test_only_a_run_against_a_sut_process_loads_the_wire_adapter():
    code = ("import tmbt.cli\n"
            "try:\n"
            "    tmbt.cli.main(['test', '--cases', '2'])\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code")
    loaded = loaded_after(code)
    assert "tmbt.pbt" in loaded and "tmbt.wire" not in loaded
    code = ("from tmbt import pbt, wire\n"
            "assert pbt.SubprocessAdapter is wire.SubprocessAdapter")
    assert "tmbt.wire" in loaded_after(code)


# where each public name is defined
HOMES = {
    "tmbt.errors": ("TmbtError",),
    "tmbt.explore": ("Counterexample", "ExplorationStats", "StateGraph",
                     "behavior_satisfies", "behaviors", "explore",
                     "initial_states", "successors"),
    "tmbt.ir": ("spec_from_text", "spec_to_text"),
    "tmbt.spec": ("Behavior", "NamedAction", "State", "TemporalSpec",
                  "eval_action_formula", "eval_expr", "eval_state_formula",
                  "well_formed"),
    "tmbt.tla": ("parse_expression", "parse_module", "pretty_print", "to_spec"),
    "tmbt.values": ("BoolVal", "IntVal", "SeqVal", "SetVal", "Value"),
}


def test_every_public_name_is_its_defining_modules_object():
    assert sorted(n for names in HOMES.values() for n in names) == \
        sorted(set(tmbt.__all__) - {"__version__"})
    for module_name, names in HOMES.items():
        home = importlib.import_module(module_name)
        for name in names:
            assert getattr(tmbt, name) is getattr(home, name), name


def test_lazy_names_resolve_in_a_fresh_interpreter():
    code = ("import tmbt, sys\n"
            "assert 'tmbt.tla' not in sys.modules and 'tmbt.ir' not in sys.modules\n"
            "from tmbt import *\n"
            "from tmbt.tla import parse_module as p\n"
            "from tmbt.ir import spec_to_text as s\n"
            "assert parse_module is p and spec_to_text is s")
    assert {"tmbt.tla", "tmbt.ir"} <= loaded_after(code)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        tmbt.nonesuch


def test_readme_library_snippet_runs(tmp_path):
    text = README.read_text()
    snippet = text.split("```python\n", 1)[1].split("```", 1)[0]
    onebit = SRC / "tmbt" / "specs" / "onebit.tla"
    (tmp_path / "clock.tla").write_text(onebit.read_text())
    done = subprocess.run([sys.executable, "-c", snippet], cwd=tmp_path,
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(SRC)})
    assert done.stdout == "2 []\n"
