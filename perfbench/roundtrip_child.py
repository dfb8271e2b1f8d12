"""The translate-roundtrip workload, run in one child process.

    python3 perfbench/roundtrip_child.py SEED SECONDS TRACE RESULT_FILE SPAN_FILE

Runs passes over the seeded corpus until SECONDS have gone by.  Each
module goes through parse -> to_spec -> IR encode -> IR decode -> print
-> reparse (parse and to_spec again).  The corpus is drawn before a pass
starts and checked after it ends: the first encoding and the encoding of
the reparsed spec must both equal the module's expected IR.

Before each pass the child times one calibrate.load call, the machine
speed the passes are scaled by.

A pass times its modules with junction lists shorter than DEEP_JUNCTION
as its wall and CPU time; its deep modules, the known recursion defect,
run after that, untraced, and are timed on their own, so a fix that lets
them finish does not read as a slower pass.  With TRACE set to 1, passes
come in pairs of one untraced and one traced pass, the traced one first
in every other pair, and the spans go to SPAN_FILE.
"""

import json
import sys
import time

import calibrate
import corpus
import tracer
from corpus import DEEP_JUNCTION

MIN_PASSES = 2


def round_trip(module, ir, tla) -> tuple:
    """The timed stages; returns (encoded text, reparsed spec)."""
    spec = tla.to_spec(tla.parse_module(module["source"]), name=module["name"])
    text = ir.spec_to_text(spec)
    printed = tla.pretty_print(ir.spec_from_text(text))
    return text, tla.to_spec(tla.parse_module(printed), name=module["name"])


def run_modules(modules, ir, tla) -> list:
    outputs = []
    for module in modules:
        try:
            outputs.append(round_trip(module, ir, tla))
        except Exception as problem:  # judged afterwards, never fatal
            outputs.append(problem)
    return outputs


def judge(module, output, encode) -> list:
    deep = module["junction"] >= DEEP_JUNCTION
    if isinstance(output, RecursionError) and deep:
        return ["known", "deep-junction"]
    if isinstance(output, Exception):
        return ["failed", f"{module['name']} (junction {module['junction']}): "
                          f"{output!r}"[:300]]
    if output[0] != module["ir"] or encode(output[1]) != module["ir"]:
        return ["failed", f"{module['name']}: IR mismatch"]
    return ["ok", ""]


def is_traced(pass_index: int) -> bool:
    """Second pass of even pairs, first pass of odd pairs."""
    return pass_index % 2 != (pass_index // 2) % 2


def main() -> None:
    seed, seconds, trace = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    result_file, span_file = sys.argv[4], sys.argv[5]
    import tmbt.cli  # noqa: F401  (the same imports as the CLI workloads)
    from tmbt import ir, tla

    encode = ir.spec_to_text  # the untraced encoder, for checking
    spans = tracer.Tracer()
    passes = []
    started = time.perf_counter()
    while (len(passes) < MIN_PASSES or (trace and len(passes) % 2)
           or time.perf_counter() - started < seconds):
        index = len(passes)
        modules = corpus.corpus_pass(seed, index)
        shallow = [m for m in modules if m["junction"] < DEEP_JUNCTION]
        deep = [m for m in modules if m["junction"] >= DEEP_JUNCTION]
        traced = trace and is_traced(index)
        load_wall = time.perf_counter()
        calibrate.load()
        load_wall = time.perf_counter() - load_wall
        uninstall = tracer.install(spans) if traced else None
        wall, cpu = time.perf_counter(), time.process_time()
        outputs = run_modules(shallow, ir, tla)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if uninstall is not None:
            uninstall()
        deep_wall = time.perf_counter()
        outputs += run_modules(deep, ir, tla)
        deep_wall = time.perf_counter() - deep_wall
        outcomes = [judge(m, out, encode) for m, out in zip(shallow + deep, outputs)]
        passes.append({"wall": wall, "cpu": cpu, "deep_wall": deep_wall,
                       "load_wall": load_wall,
                       "traced": traced, "outcomes": outcomes,
                       "ops": sum(o == ["ok", ""] for o in outcomes[:len(shallow)])})
    if trace:
        spans.dump(span_file, "translate-roundtrip")
    with open(result_file, "w") as out:
        json.dump(passes, out)


if __name__ == "__main__":
    main()
