"""Self-checks of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q

They cover what the benchmark's numbers rest on: seeded inputs are
byte-identical for a seed, the reference answers and the corpus's
expected IR are right, the tail-percentile rule, the tracer's counts on
the steam boiler, and the declarations that must agree across files.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import corpus
import layers
import reference
import run
import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def _plan_text(plan, tmp) -> list:
    """Every operation's argv (temporary paths made relative) or corpus
    module, and the bytes of every source file it reads, over the first
    three passes."""
    out = []
    for index in range(3):
        for op in plan.operations(index):
            if isinstance(op, workloads.Operation):
                op = [arg.replace(str(tmp), "TMP") for arg in op.args]
            out.append(op)
    out.extend(sorted((p.name, p.read_bytes()) for p in tmp.iterdir()))
    return out


def test_same_seed_gives_identical_inputs(tmp_path):
    for seed in (0, 7):
        for name, (make, _) in run.WORKLOADS.items():
            first, second = tmp_path / f"{name}-{seed}-a", tmp_path / f"{name}-{seed}-b"
            first.mkdir()
            second.mkdir()
            assert _plan_text(make(seed, first), first) == \
                _plan_text(make(seed, second), second)
        assert corpus.corpus_pass(seed, 3) == corpus.corpus_pass(seed, 3)


def test_different_seeds_give_different_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert _plan_text(workloads.check_init(1, a), a) != \
        _plan_text(workloads.check_init(2, b), b)
    assert corpus.corpus_pass(1, 0) != corpus.corpus_pass(2, 0)


def test_tail_percentile_rule():
    assert layers.tail_percentile(list(range(19))) is None
    assert layers.tail_percentile(list(range(20)))[0] == 50.0
    assert layers.tail_percentile(list(range(199)))[0] == 90.0
    assert layers.tail_percentile(list(range(200)))[0] == 95.0
    assert layers.tail_percentile(list(range(1000))) == (99.0, 989)
    assert layers.tail_percentile(list(range(10_000)))[0] == 99.9


def test_reference_answers_match_published_counts():
    assert reference.onebit()["stats"] == {
        "states_found": 4, "distinct_states": 2, "diameter": 1,
        "truncated": False}
    diehard = reference.diehard()
    assert (diehard["exit"], diehard["stats"]["states_found"],
            diehard["stats"]["distinct_states"], diehard["traces"]) == \
        (1, 97, 16, {"big_ne_4": 7})
    boiler = reference.steamboiler(300, 700)
    assert (boiler["exit"], boiler["stats"]["states_found"],
            boiler["stats"]["distinct_states"], boiler["stats"]["diameter"]) == \
        (0, 4909, 818, 81)
    assert reference.steamboiler(190, 810)["traces"].keys() == {"LevelInBand"}


def test_euclid_draws_keep_the_bfs_tiny(tmp_path):
    for seed in range(20):
        plan = workloads.check_init(seed, tmp_path)
        op = plan.operations(0)[0]
        euclid = op.expect
        assert euclid["stats"]["distinct_states"] <= 5
        m, n = (int(a.split("=")[1]) for a in op.args if "=" in a)
        assert 0.97 * workloads.EUCLID_CANDIDATES < m * n < 1.03 * workloads.EUCLID_CANDIDATES


def test_corpus_ir_matches_the_documented_layout():
    """The hand-emitted IR text equals a plain json.dumps of the same
    document wherever the latter can nest that deep."""
    rng = random.Random(5)
    for junction in (2, 3, 9, 40, 120):
        module = corpus.draw_module(rng, junction, "m")
        assert json.loads(module["ir"])
        assert json.dumps(json.loads(module["ir"]), sort_keys=True,
                          separators=(",", ": ")) + "\n" == module["ir"]


def test_corpus_strata_cover_two_to_a_thousand():
    sizes = [m["junction"] for p in range(30) for m in corpus.corpus_pass(0, p)]
    assert min(sizes) == 2 and max(sizes) > 900
    deep = [s for s in sizes if s >= corpus.DEEP_JUNCTION]
    assert len(deep) / len(sizes) == 1 / corpus.STRATA


def test_declarations_agree():
    manifest = json.loads((BENCH / "manifest.json").read_text())
    assert {d["id"] for d in manifest["known_defects"]} == set(workloads.KNOWN_DEFECTS)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert [[m["name"], m["unit"], m["better"]] for m in config["per_layer"]] == \
        [list(m) for m in layers.ALL_METRICS]


def test_traced_steamboiler_counts_match_the_probe(tmp_path):
    """Tracing `tmbt check --example steamboiler` (300/700) from outside
    gives its known counts exactly."""
    span_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(span_file), "check",
         "--example", "steamboiler", "--format", "json"],
        env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0
    aggregate = layers.Aggregate()
    aggregate.add(json.loads(span_file.read_text()))
    counts = aggregate.invocations[0][1]
    assert counts["successors"] == 818
    assert counts["candidates"] == 19_632
    # 4,908 accepted successor candidates plus the one initial state make
    # the 4,909 states found.
    assert counts["accepted"] + 1 == 4_909
    assert counts["state_formulas"] == 3_638
    assert counts["nodes"] == 278_433


def test_refuses_to_run_without_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "check-init",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
