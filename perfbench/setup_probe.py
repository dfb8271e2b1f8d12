"""One fresh set-up of a workload, timed from outside by the caller.

    python3 perfbench/setup_probe.py SETUP_JSON

imports tmbt.cli and builds what the workload's operations build before
they start their real work: the example specs, the parsed `.tla` source
files, and for the boiler tests the model binding, a spawned SUT and its
first `__reset` reply.
"""

import json
import pathlib
import shlex
import sys


def main() -> None:
    setup = json.loads(sys.argv[1])
    import tmbt.cli  # noqa: F401  (the import is part of the set-up)
    from tmbt import boiler, pbt, specs
    from tmbt.tla import parse_module, to_spec

    for name, params in setup.get("examples", []):
        specs.load(name, params)
    for path, invariants in setup.get("sources", []):
        source = pathlib.Path(path)
        to_spec(parse_module(source.read_text()), name=source.stem,
                invariant_names=tuple(invariants))
    if "boiler" in setup:
        boiler.build_boiler_binding(*setup["boiler"])
        boiler.build_sut_model_spec()
        with pbt.SubprocessAdapter(shlex.split(setup["sut"])) as sut:
            sut.reset()


if __name__ == "__main__":
    main()
