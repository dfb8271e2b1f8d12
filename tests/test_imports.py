"""Each command loads only the modules it runs, and the package's public
names resolve however they are loaded.

The budgets are checked in a fresh interpreter, since this process has
long since imported everything.
"""

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tmbt

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"
HEAVY = ("tmbt.pbt", "tmbt.boiler", "tmbt.ir", "tmbt.tla", "tmbt.streams")


# The caller's environment with only PYTHONPATH set, so that settings
# such as PYTHONDONTWRITEBYTECODE reach the probes.
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def modules_after(code: str) -> set:
    """Every module a fresh interpreter holds after running `code`."""
    probe = (f"{code}\nimport sys, json\n"
             "print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=ENV)
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set:
    """The tmbt modules a fresh interpreter holds after running `code`."""
    return {m for m in modules_after(code) if m == "tmbt" or m.startswith("tmbt.")}


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
    # building the test model reads its initial state from the spec
    loaded = loaded_after("import tmbt.boiler\n"
                          "tmbt.boiler.build_boiler_binding()")
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


def _cli_run(argv: list) -> str:
    return ("import tmbt.cli\n"
            "try:\n"
            f"    tmbt.cli.main({argv!r})\n"
            "except SystemExit:\n"
            "    pass")


def test_the_cli_starts_on_the_standard_library_alone():
    # tmbt has no runtime dependency, so no third-party import slows start-up
    bare = modules_after("pass")
    loaded = modules_after(_cli_run(["check", "--example", "euclid"]))
    outside = sorted(m for m in loaded - bare
                     if m.partition(".")[0] not in sys.stdlib_module_names
                     and m.partition(".")[0] != "tmbt")
    assert outside == []


ONEBIT = SRC / "tmbt" / "specs" / "onebit.tla"


def test_checking_a_spec_file_loads_neither_the_printer_nor_the_examples():
    loaded = loaded_after(_cli_run(["check", "--spec", str(ONEBIT)]))
    assert "tmbt.tla.parser" in loaded
    assert not loaded & {"tmbt.tla.printer", "tmbt.specs"}


def test_the_printers_names_resolve_on_first_use():
    code = ("import sys, tmbt.tla\n"
            "assert 'tmbt.tla.printer' not in sys.modules\n"
            "from tmbt.tla import *\n"
            "from tmbt.tla.printer import print_spec as p\n"
            "assert print_spec is p")
    assert "tmbt.tla.printer" in loaded_after(code)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        importlib.import_module("tmbt.tla").nonesuch


@pytest.mark.parametrize("code", [
    _cli_run(["check", "--example", "steamboiler"]),
    _cli_run(["check", "--spec", str(ONEBIT)]),
    _cli_run(["test", "--cases", "2", "--sut", f"{sys.executable} -m tmbt.boiler"]),
    "import tmbt.boiler; tmbt.boiler.build_boiler_binding()",
], ids=["check-example", "check-spec", "test-sut", "boiler"])
def test_no_command_compiles_dataclasses(code):
    # every record class is a tmbt.record.Record, built without exec
    modules = modules_after(code)
    assert "tmbt.record" in modules
    assert "dataclasses" not in modules


def test_the_sut_process_loads_only_the_standard_library_and_itself():
    # -X importtime names every module the process imports, including
    # those `main` imports while it serves
    def imported(argv: list, stdin: str) -> tuple:
        done = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              input=stdin, capture_output=True, text=True,
                              check=True, env=ENV)
        return done.stdout, {line.rpartition("|")[2].strip()
                             for line in done.stderr.splitlines()
                             if line.startswith("import time:")}

    _, bare = imported(["-c", "pass"], "")
    reply, loaded = imported(["-m", "tmbt.boiler"], '{"op": "__reset"}\n')
    assert json.loads(reply) == {"ok": True, "observed": {}}
    outside = sorted(m for m in loaded - bare
                     if m.partition(".")[0] not in sys.stdlib_module_names)
    # runpy runs tmbt.boiler as __main__, so only the package is imported
    assert outside == ["tmbt"]


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import tmbt") == {"tmbt"}


@pytest.mark.parametrize("first", [
    "import tmbt.cli",
    "import tmbt.explore",
    "from tmbt.explore import successors",
    "import tmbt; tmbt.explore",
    "from tmbt import *",
])
def test_tmbt_explore_is_the_function_whatever_loads_the_module(first):
    code = (f"{first}\n"
            "import inspect, sys, tmbt\n"
            "assert 'tmbt.explore' in sys.modules\n"
            "assert inspect.isfunction(tmbt.explore)\n"
            "assert tmbt.explore is sys.modules['tmbt.explore'].explore")
    assert "tmbt.explore" in loaded_after(code)


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
    "tmbt.values": ("BoolVal", "SeqVal", "SetVal", "Value"),
}


def test_every_public_name_is_its_defining_modules_object():
    assert sorted(n for names in HOMES.values() for n in names) == \
        sorted(set(tmbt.__all__) - {"__version__"})
    for module_name, names in HOMES.items():
        home = importlib.import_module(module_name)
        for name in names:
            assert getattr(tmbt, name) is getattr(home, name), name


def test_tmbt_explore_is_the_function_and_the_module_is_reached_by_path():
    # the function shadows the submodule of the same name, by design
    module = importlib.import_module("tmbt.explore")
    assert inspect.ismodule(module) and sys.modules["tmbt.explore"] is module
    assert tmbt.explore is module.explore
    from tmbt.explore import successors
    assert successors is module.successors
    import tmbt.explore as bound  # binds the package's attribute
    assert bound is module.explore


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
                          capture_output=True, text=True, check=True, env=ENV)
    assert done.stdout == "2 []\n"
