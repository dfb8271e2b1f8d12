"""The tmbt benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/tmbt);
tmbt is imported from there, nothing is installed.  Workloads:

  check-steamboiler   `tmbt check` on the steam boiler, thresholds drawn
                      near 300/700 (passes) and near 190/810 (violates)
  check-init          Init-heavy checks: euclid with ~10^5 Init
                      candidates, a 13-boolean toggle spec, the small
                      examples and the two known soundness cases
  test-boiler         `tmbt test` in-process, over the wire, and against
                      the band and pump mutants
  translate-roundtrip a seeded corpus through parse, to_spec, IR encode,
                      IR decode, print and reparse, in one child process

Load model: one closed-loop client.  A pass runs the workload's
operations one after another, each `check` or `test` a fresh
`python -m tmbt.cli` process (plus the SUT process in wire mode), and
passes repeat while one more still ends within S seconds.  The
processes of a test-boiler run are pinned to one CPU, since the tmbt
process and the SUT answer each other over a pipe.  Every output is
judged against an independent reference (see reference.py and
workloads.py).

With --trace 0 the result carries the end-to-end metrics:
  setup_s      median wall time of a fresh set-up (see setup_probe.py),
               sampled a few times before every pass
  pass_s       median wall time of one pass over the operations
  cpu_s        median CPU time (user + system) of the processes of a pass
  ops_per_s    operations per second: check invocations, PBT cases or
               corpus modules that completed their round trip, over all
               passes
  peak_rss_mb  largest peak RSS of any tmbt process, from os.wait4
Times and rates are given at a fixed machine speed: each is scaled by
how long calibrate.py's fixed load took in the same run, timed next to
the work (see calibrate.py).  The raw figures and the scale go to stderr.
With --trace 1 each pass runs both untraced and traced, the traced run
first on every other pass, and the result carries the per-layer metrics
of layers.py plus the tracing overhead; a human-readable report goes to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import layers
import workloads

BENCH = pathlib.Path(__file__).resolve().parent
SAMPLES_PER_PASS = 2
SAMPLES_MIN = 12
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120


@dataclasses.dataclass
class Child:
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_kb: int


class Runner:
    """Starts one child at a time and reaps it with os.wait4."""

    def __init__(self, root: pathlib.Path, tmp: pathlib.Path):
        self.root = root
        self.tmp = tmp
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(self, argv: list, timeout: float = CHILD_TIMEOUT_S) -> Child:
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            env = dict(self.env, PERFBENCH_SPAWN_TIME=repr(time.time()))
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=env, cwd=self.root,
                                    start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, out_path.read_text(), err_path.read_text(),
                     wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Tally:
    """Operation outcomes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list = []
        self.known = 0

    def add(self, outcome: str, detail: str) -> None:
        self.attempted += 1
        if outcome == "failed":
            self.failed.append(detail)
        elif outcome == "known":
            self.known += 1


# ---------------------------------------------------------------------------
# CLI workloads


def cli_argv(op, span_file=None) -> list:
    if span_file is None:
        return [sys.executable, "-m", "tmbt.cli", *op.args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(span_file), *op.args]


def run_cli_pass(runner, plan, index, tally, per_label, span_file=None,
                 aggregate=None) -> dict:
    """One pass; records (wall, cases) per operation label in per_label."""
    wall = cpu = 0.0
    ops = rss = 0
    for op in plan.operations(index):
        child = runner.run(cli_argv(op, span_file))
        judge = workloads.judge_check if op.kind == "check" else workloads.judge_test
        outcome, detail = judge(op, child.code, child.out, child.err)
        tally.add(outcome, f"{op.label}: {detail}")
        cases = workloads.cases_run(child.out) if op.kind == "test" else 0
        wall += child.wall
        cpu += child.cpu
        rss = max(rss, child.rss_kb)
        ops += cases if op.kind == "test" else 1
        per_label.setdefault(op.label, []).append((child.wall, cases))
        if span_file is not None:
            if span_file.exists():
                aggregate.add(json.loads(span_file.read_text()))
                span_file.unlink()
            aggregate.traced_wall += child.wall
    return {"wall": wall, "cpu": cpu, "ops": ops, "rss_kb": rss}


def measure_cli(runner, plan, seed, seconds, trace, tally, samples) -> dict:
    passes, traced, per_label = [], [], {}
    aggregate = layers.Aggregate() if trace else None
    span_file = runner.tmp / "spans.json"
    started = time.perf_counter()
    last = 0.0
    # A pass starts only if one as long as the last still ends in time.
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - started + last <= seconds):
        begun = time.perf_counter()
        index = len(passes)
        samples.take(SAMPLES_PER_PASS)
        # The traced run goes first on every other pass, so neither side
        # always runs on a machine the other has just warmed.
        order = [False, True] if trace else [False]
        if index % 2:
            order.reverse()
        for traced_run in order:
            if traced_run:
                traced.append(run_cli_pass(runner, plan, index, tally, {},
                                           span_file, aggregate))
            else:
                passes.append(run_cli_pass(runner, plan, index, tally,
                                           per_label))
        last = time.perf_counter() - begun
    samples.take(SAMPLES_MIN - len(samples.walls["setup"]))
    return {"passes": passes, "traced": traced, "aggregate": aggregate,
            "per_label": per_label, "speed": samples.speed()}


def phase_metrics(per_label: dict) -> dict:
    """test-boiler's phases and translate-roundtrip's deep modules, from
    untraced passes; zero elsewhere."""
    def rate(label):
        runs = per_label.get(label, [])
        walls = sum(wall for wall, _ in runs)
        return sum(cases for _, cases in runs) / walls if walls else 0.0

    def median(label):
        walls = [wall for wall, _ in per_label.get(label, [])]
        return statistics.median(walls) if walls else 0.0

    return {"phase.inprocess_cases_per_s": rate("in-process"),
            "phase.wire_cases_per_s": rate("wire"),
            "phase.band_shrink_s": median("band mutant"),
            "phase.deep_junction_s": median("deep junctions")}


# ---------------------------------------------------------------------------
# translate-roundtrip


def measure_roundtrip(runner, plan, seed, seconds, trace, tally, samples) -> dict:
    """All passes in one child, which times calibrate.load before each;
    set-up and calibration processes are sampled before and after it."""
    result_file = runner.tmp / "roundtrip.json"
    span_file = runner.tmp / "roundtrip-spans.json"
    samples.take(SAMPLES_MIN // 2)
    child = runner.run([sys.executable, str(BENCH / "roundtrip_child.py"),
                        str(seed), str(seconds), "1" if trace else "0",
                        str(result_file), str(span_file)],
                       timeout=seconds + CHILD_TIMEOUT_S)
    samples.take(SAMPLES_MIN - len(samples.walls["setup"]))
    if child.code != 0 or not result_file.exists():
        tally.add("failed", f"round-trip child exited {child.code}: "
                            f"{child.err[-300:]}")
        return {"passes": [], "traced": [], "aggregate": None, "per_label": {},
                "speed": None}
    passes, traced, per_label, loads = [], [], {}, []
    for entry in json.loads(result_file.read_text()):
        loads.append(entry["load_wall"])
        for outcome, detail in entry["outcomes"]:
            tally.add(outcome, detail)
        record = {"wall": entry["wall"], "cpu": entry["cpu"],
                  "ops": entry["ops"], "rss_kb": child.rss_kb}
        (traced if entry["traced"] else passes).append(record)
        if not entry["traced"]:
            per_label.setdefault("deep junctions", []).append(
                (entry["deep_wall"], 0))
    aggregate = None
    if trace and span_file.exists():
        aggregate = layers.Aggregate()
        aggregate.add(json.loads(span_file.read_text()))
        aggregate.traced_wall = sum(p["wall"] for p in traced)
    return {"passes": passes, "traced": traced, "aggregate": aggregate,
            "per_label": per_label,
            "speed": calibrate.LOAD_S / statistics.median(loads)}


# Each workload's plan, and how its passes are run.
WORKLOADS = {
    "check-steamboiler": (workloads.check_steamboiler, measure_cli),
    "check-init": (workloads.check_init, measure_cli),
    "test-boiler": (workloads.test_boiler, measure_cli),
    "translate-roundtrip": (workloads.translate_roundtrip, measure_roundtrip),
}


# ---------------------------------------------------------------------------
# Metrics


class Samples:
    """Times fresh set-ups (setup_probe.py) and fresh calibration processes
    (calibrate.py), a few of each at a time, so that the samples are
    spread over the run as the passes are; does nothing in a traced run."""

    def __init__(self, runner, plan, enabled: bool):
        self.runner = runner
        self.probes = {
            "setup": [sys.executable, str(BENCH / "setup_probe.py"),
                      json.dumps(plan.setup)],
            "calibration": [sys.executable, str(BENCH / "calibrate.py")],
        }
        self.enabled = enabled
        self.walls = {name: [] for name in self.probes}

    def take(self, count: int) -> None:
        for _ in range(count if self.enabled else 0):
            for name, argv in self.probes.items():
                child = self.runner.run(argv)
                if child.code != 0:
                    raise RuntimeError(f"{name} probe failed: {child.err[-300:]}")
                self.walls[name].append(child.wall)

    def speed(self) -> float | None:
        """Machine speed relative to calibrate.PROCESS_S (below 1: slower)."""
        walls = self.walls["calibration"]
        return calibrate.PROCESS_S / statistics.median(walls) if walls else None


def end_to_end(measured: dict, samples: Samples) -> dict:
    """Times multiplied, and rates divided, by the machine speed: the
    calibration processes' for set-up, the run's own for its passes."""
    passes = measured["passes"]
    walls = [p["wall"] for p in passes]
    speed = measured["speed"]
    return {
        "setup_s": (statistics.median(samples.walls["setup"]) * samples.speed(),
                    "s"),
        "pass_s": (statistics.median(walls) * speed, "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes) * speed, "s"),
        "ops_per_s": (sum(p["ops"] for p in passes) / sum(walls) / speed,
                      "1/s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(measured: dict, tally: Tally) -> dict:
    aggregate = measured["aggregate"]
    traced = measured["traced"]
    out = dict.fromkeys((name for name, _, _ in layers.ALL_METRICS), 0.0)
    if aggregate is not None and traced:
        out.update(aggregate.metrics(len(traced)))
    out.update(layers.overhead([p["wall"] for p in measured["passes"]],
                               [p["wall"] for p in traced]))
    out.update(phase_metrics(measured["per_label"]))
    attempted = max(tally.attempted, 1)
    out["bench.failed_share"] = len(tally.failed) / attempted
    out["bench.known_defect_share"] = tally.known / attempted
    units = {name: unit for name, unit, _ in layers.ALL_METRICS}
    return {name: (value, units[name]) for name, value in out.items()}


def summary(workload, seed, measured, samples, tally) -> str:
    walls = [p["wall"] for p in measured["passes"]]
    lines = [f"{workload} seed {seed}: {len(walls)} passes, "
             f"{tally.attempted} operations, {len(tally.failed)} failed, "
             f"{tally.known} known defects",
             f"  raw: pass median {statistics.median(walls):.4f} s"]
    if samples.enabled:
        lines[-1] += (f", set-up median "
                      f"{statistics.median(samples.walls['setup']):.4f} s over "
                      f"{len(samples.walls['setup'])}; machine speed "
                      f"{measured['speed']:.3f} (passes), "
                      f"{samples.speed():.3f} (set-up)")
    for label, runs in measured["per_label"].items():
        walls = [wall for wall, _ in runs]
        line = (f"  {label}: median {statistics.median(walls):.4f} s "
                f"over {len(walls)}")
        tail = layers.tail_percentile(walls)
        if tail is not None:
            line += f", p{tail[0]:g} {tail[1]:.4f} s"
        lines.append(line)
    lines.extend(f"  FAILED {detail}" for detail in tally.failed[:10])
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    if options.workload not in WORKLOADS:
        parser.error(f"unknown workload {options.workload!r}; known: "
                     + ", ".join(WORKLOADS))
    root = pathlib.Path.cwd()
    if not (root / "src" / "tmbt" / "__init__.py").is_file():
        print("perfbench: run from the root of a tmbt checkout "
              "(no src/tmbt here)", file=sys.stderr)
        return 2

    tmp = root / ".perfbench_tmp" / f"{options.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = Runner(root, tmp)
        make_plan, measure = WORKLOADS[options.workload]
        plan = make_plan(options.seed, tmp)
        if plan.one_cpu:
            # A wire round trip is then a local context switch rather than
            # a cross-CPU wake-up, whose latency on a virtual machine varies
            # far more than the work being measured.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        # Compile bytecode once, so no measured process pays for it.
        warm = runner.run([sys.executable, str(BENCH / "setup_probe.py"),
                           json.dumps(plan.setup)])
        if warm.code != 0:
            print(f"perfbench: tmbt does not start: {warm.err[-500:]}",
                  file=sys.stderr)
            return 2

        tally = Tally()
        trace = bool(options.trace)
        samples = Samples(runner, plan, enabled=not trace)
        measured = measure(runner, plan, options.seed, options.seconds, trace,
                           tally, samples)
        if not measured["passes"]:
            print("perfbench: no pass completed", file=sys.stderr)
            for detail in tally.failed[:5]:
                print(f"  {detail}", file=sys.stderr)
            return 1
        if trace:
            metrics = per_layer(measured, tally)
            invocations = (measured["aggregate"].invocations
                           if measured["aggregate"] else [])
            print(layers.report(options.workload,
                                {k: v for k, (v, _) in metrics.items()},
                                invocations), file=sys.stderr)
        else:
            metrics = end_to_end(measured, samples)
        print(summary(options.workload, options.seed, measured, samples, tally),
              file=sys.stderr)
        result = {
            "correct": not tally.failed,
            "attempted": tally.attempted,
            "failed": len(tally.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
