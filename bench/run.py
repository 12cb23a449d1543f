"""Benchmark for leakage-lab: one workload, one fresh interpreter, a closed loop.

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The workload's inputs are made
from ``--seed``; its operations are ``leakage_lab.cli.main(argv)`` calls
made one at a time, in whole rounds, until ``--seconds`` of operation
time is spent. Each output is checked against ``oracles``. Operation
times are also taken in units of a fixed reference task run between
operations, which drifts with the host's speed. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics per
traced round (``--trace 1``). Details go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_ARGV = ["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"]
SETUP_BOUND = 2.0 * math.exp(1.0 - 2.0 * 500 * 0.1 * 0.1)
SETUP_PROBES = 3
# The reference task runs before an operation once this much operation
# time has passed since it last ran, and once after the last operation.
# NOMINAL_REFERENCE_S is about its time on the machine README.md describes
# when that machine is quiet, so the *_at_ref metrics read as seconds on
# that machine.
REFERENCE_EVERY_S = 0.25
NOMINAL_REFERENCE_S = 0.020
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 60


def setup_probe(importtime: bool = False) -> tuple[float, str]:
    """Wall time from launching an interpreter to the printed ``bound`` result."""
    code = f"import sys; from leakage_lab.cli import main; sys.exit(main({SETUP_ARGV!r}))"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}")
    value = json.loads(proc.stdout)["value"]
    if abs(value - SETUP_BOUND) > 1e-12 * SETUP_BOUND:
        raise RuntimeError(f"setup probe printed {value}, closed form {SETUP_BOUND}")
    return elapsed, proc.stderr


def import_times(stderr: str) -> tuple[float, float]:
    """Cumulative seconds of ``leakage_lab.cli`` and ``scipy.stats`` in -X importtime output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[2].strip()
        if name in ("leakage_lab.cli", "scipy.stats") and name not in found:
            found[name] = int(parts[1]) / 1e6
    return found.get("leakage_lab.cli", math.nan), found.get("scipy.stats", 0.0)


def reference_task() -> float:
    """Fixed work, apart from the program, that gauges the host's speed now.

    Its three parts stand for the three kinds of work in the workloads:
    small numpy calls in a Python loop (the per-trial and per-call work),
    a gather and a sort over 2^17 floats (the enumeration's arrays), and
    plain Python dict, string and JSON work (labels, parsing, reports).
    """
    import numpy as np  # after main() has set the BLAS thread count

    table = np.arange(32, dtype=np.float64).reshape(8, 4) % 3
    cumulative = np.cumsum(np.full(8, 1 / 8))
    size = 1 << 17
    acc = 0.0
    for i in range(300):
        rng = np.random.default_rng(i * 7919)
        idx = np.minimum(np.searchsorted(cumulative, rng.random(6), side="right"), 7)
        acc += float(np.argmin(table[idx].mean(axis=0)))
    values = np.random.default_rng(0).random(size)
    order = (np.arange(size) * 7919) % size
    acc += float(np.sort(values[order])[size // 2])
    for i in range(1500):
        record = {"label": f"x{i}", "value": i * 0.5, "tags": [i, i + 1]}
        acc += len(json.dumps(record)) + len(record["label"].split("1"))
    return acc


def call(cli, argv) -> tuple[int | None, str, BaseException | None, float]:
    """One operation: exit code, captured stdout, raised error, wall seconds."""
    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
        error = None
    except Exception as exc:  # a traceback in the CLI is a failed operation
        code, error = None, exc
    return code, buffer.getvalue(), error, perf_counter() - start


class Run:
    """The closed loop over one workload's rounds, with its checks."""

    def __init__(self, cli, workload, seconds: float, traced: bool):
        self.cli = cli
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.op_times: list[float] = []
        # name, seconds and the index of the reference task run before it
        self.op_log: list[tuple[str, float, int]] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.first_output: dict[str, str] = {}
        self.probes: list[float] = []
        self.references: list[float] = []
        self.aside_s = 0.0  # time in setup probes and reference tasks
        self.since_reference = math.inf
        self.rounds = 0

    def probe(self) -> None:
        start = perf_counter()
        self.probes.append(setup_probe()[0])
        self.aside_s += perf_counter() - start

    def reference(self) -> None:
        start = perf_counter()
        reference_task()
        elapsed = perf_counter() - start
        self.references.append(elapsed)
        self.aside_s += elapsed
        self.since_reference = 0.0

    def execute(self, op) -> None:
        code, stdout, error, elapsed = call(self.cli, op.argv)
        self.attempted += 1
        self.op_times.append(elapsed)
        if not self.traced:
            self.op_log.append((op.name, elapsed, len(self.references) - 1))
            self.since_reference += elapsed
        if error is not None or code != 0:
            self.failed += 1
            self.failures[op.name] = repr(error) if error is not None else f"exit code {code}"
            if op.name not in self.workload.expected_failures():
                self.mismatches.append(f"{op.name} failed: {self.failures[op.name]}")
            return
        self.items += op.items
        first = self.first_output.get(op.name)
        try:
            if first is None or not op.repeatable:
                self.first_output[op.name] = stdout
                op.check(code, stdout)
            elif stdout != first:
                self.mismatches.append(f"{op.name}: output differs from its first round")
        except (AssertionError, KeyError, TypeError, ValueError) as exc:
            self.mismatches.append(f"{op.name}: {exc}")

    def loop(self) -> None:
        start = perf_counter()
        while True:
            # a traced run repeats round 0, so its per-round counts are exact
            for op in self.workload.round_ops(0 if self.traced else self.rounds):
                if not self.traced:
                    busy = perf_counter() - start - self.aside_s
                    if busy >= len(self.probes) * self.seconds / SETUP_PROBES \
                            and len(self.probes) < SETUP_PROBES:
                        self.probe()
                    if self.since_reference >= REFERENCE_EVERY_S:
                        self.reference()
                self.execute(op)
            self.rounds += 1
            busy = perf_counter() - start - self.aside_s
            if self.seconds - busy <= busy / self.rounds / 2:
                break  # another whole round would overshoot by more than it fills
        if not self.traced:
            self.reference()
        while not self.traced and len(self.probes) < SETUP_PROBES:
            self.probe()

    def costs(self) -> dict[str, list[float]]:
        """Per operation name, each run's time in reference-task units.

        The unit is the mean time of the reference tasks run just before
        and just after the operation, which bracket it.
        """
        refs = self.references
        costs: dict[str, list[float]] = {}
        for name, elapsed, before in self.op_log:
            unit = (refs[before] + refs[before + 1]) / 2
            costs.setdefault(name, []).append(elapsed / unit)
        return costs


def check_worker_identity(cli, config: str) -> list[str]:
    """The report must be byte-identical for --workers 1 and --workers 2."""
    outputs = []
    for workers in ("1", "2"):
        code, stdout, error, _ = call(cli, ["simulate", "generr", "--config", config,
                                            "--workers", workers])
        if error is not None or code != 0:
            return [f"worker identity run at --workers {workers} failed: {error or code}"]
        outputs.append(stdout)
    return [] if outputs[0] == outputs[1] else ["--workers 2 output differs from --workers 1"]


def measure(args, workdir: str) -> dict:
    from leakage_lab import cli

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    mismatches = []
    if isinstance(workload, workloads.MonteCarlo):
        mismatches += check_worker_identity(cli, workload.identity_config)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = Run(cli, workload, args.seconds, traced=bool(args.trace))
    run.loop()
    mismatches += run.mismatches
    # a traced run repeats round 0, so its outputs are not independent draws
    if not args.trace:
        try:
            workload.final_check()
        except workloads.CheckFailed as exc:
            mismatches.append(str(exc))

    op_time = math.fsum(run.op_times)
    if tracer is None:
        # The host's speed drifts by a fifth and more within minutes, and the
        # reference tasks around an operation drift with it, so the *_at_ref
        # metrics take each operation's time in units of those tasks. A round
        # costs the median cost of each of its operations: bursts of a slower
        # host shift a total far more than they shift medians.
        costs = run.costs()
        round_cost = math.fsum(statistics.median(c) for c in costs.values())
        all_costs = [c for per_op in costs.values() for c in per_op]
        metrics = {
            "setup_s": {"value": statistics.median(run.probes), "unit": "s"},
            "items_per_s_at_ref": {
                "value": run.items / run.rounds / (round_cost * NOMINAL_REFERENCE_S),
                "unit": "items/s"},
            "op_p50_s_at_ref": {"value": statistics.median(all_costs) * NOMINAL_REFERENCE_S,
                                "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        probes = [import_times(setup_probe(importtime=True)[1]) for _ in range(IMPORTTIME_PROBES)]
        metrics = {
            "setup.import_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
            "setup.scipy_stats_import_s": {"value": statistics.median(p[1] for p in probes),
                                           "unit": "s"},
            **tracer.metrics(run.rounds),
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run.rounds, "op_time_s": op_time,
        "items": run.items,
        "wall_metrics": None if tracer else {
            "items_per_s": run.items / op_time,
            "op_p50_s": statistics.median(run.op_times)},
        "setup_probes_s": run.probes, "reference_s": run.references,
        "op_times_s": run.op_times,
        "failures": run.failures, "mismatches": mismatches,
    }
    return {
        "result": {"correct": not mismatches, "attempted": run.attempted,
                   "failed": run.failed, "metrics": metrics},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["montecarlo", "enumeration", "sweeps"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leakage_lab" / "cli.py").is_file():
        print(f"error: no leakage_lab sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads, here and in every setup probe; README.md gives the
    # measurement behind this setting
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-inputs-", dir=OUT)
    try:
        outcome = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(outcome, indent=1) + "\n", encoding="utf-8")
    for line in outcome["detail"]["mismatches"]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
