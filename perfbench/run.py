"""sepkit benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run from the root of a checkout; sepkit is imported from its src/ and from
nowhere else, so the benchmark fails (exit 2) where src/ is missing.
Workloads: trees, cycles, field_cycles, cli_cold (see workloads.py and
README.md).  Each runs whole rounds of its ladder, one operation at a time,
with fresh inputs every round, until --seconds have passed, and checks every
output (gate.py).

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (spans.py).  The lines above it say the same for a human reader.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import gate
import spans
from workloads import LADDERS, WORKLOADS, Launcher, cli_env

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 60
TAIL_BEYOND = 10      # the tail percentile keeps this many samples beyond it
RECHECK_SAMPLE = 4    # certificates re-checked hypothesis by hypothesis
MAX_REPORTED_FAILURES = 5


class SetupError(Exception):
    """sepkit cannot be imported from this checkout."""


# ---------------------------------------------------------------------------
# Set-up: import, input generation and golden loading, repeated


def import_sepkit():
    """A fresh import of sepkit from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "sepkit" / "__init__.py").is_file():
        raise SetupError(f"no sepkit package under {src}")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "sepkit" or n.startswith("sepkit.")]:
        del sys.modules[name]
    module = importlib.import_module("sepkit")
    if Path(module.__file__).resolve().parent != (src / "sepkit").resolve():
        raise SetupError(f"imported sepkit from {module.__file__}, not {src}")
    return module


def setup(workload, seed: int):
    """Returns (sepkit, round-0 cases, goldens, median set-up seconds).

    Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
    passed, so that short set-ups get enough repeats for a steady median."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                         and len(times) < SETUP_MAX_REPEATS):
        start = perf_counter()
        sk = import_sepkit()
        cases = workload.build(sk, seed, 0, WORKDIR)
        goldens = gate.load_goldens(workload.name, seed)
        times.append(perf_counter() - start)
    if workload.kind == "cli":
        # Users run the CLI with its bytecode cached.
        compileall.compile_dir(str(ROOT / "src" / "sepkit"), quiet=1)
    return sk, cases, goldens, statistics.median(times)


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class Measured:
    latencies_ns: list = field(default_factory=list)  # wall clock of each op
    shapes: list = field(default_factory=list)        # the shape of each op's input
    rounds: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    first_round: list = field(default_factory=list)  # decoded outputs

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


def measure(workload, run, inputs, goldens, seconds) -> Measured:
    """Whole rounds until `seconds` passed and at least TAIL_BEYOND + 1 ops
    ran.  Round r runs the cases inputs(r), generated between the timed ops."""
    out = Measured()
    start = perf_counter()
    while out.attempted <= TAIL_BEYOND or perf_counter() - start < seconds:
        run_round(out, workload, run, inputs(out.rounds), goldens)
    return out


def run_round(out: Measured, workload, run, cases, goldens, recorder=None):
    """One op per case, each checked; the goldens cover round 0 only."""
    for case in cases:
        _run_op(out, workload, run, case, goldens if out.rounds == 0 else None,
                recorder)
    out.rounds += 1


def round_inputs(workload, sk, seed: int, round0: list):
    """inputs(r): the set-up's cases for round 0, then fresh ones."""
    def inputs(r):
        return round0 if r == 0 else workload.build(sk, seed, r, WORKDIR)
    return inputs


def _run_op(out: Measured, workload, run, case, goldens, recorder):
    error = result = None
    t0 = perf_counter_ns()
    try:
        if recorder is None:
            result = run(case)
        else:
            with recorder.op(out.attempted):
                result = run(case)
    except Exception as exc:  # one failed op must not end the run
        error = f"{type(exc).__name__}: {exc}"
    out.latencies_ns.append(perf_counter_ns() - t0)
    out.shapes.append(case.shape)
    decoded = None
    if error is None:
        try:
            raw, decoded = workload.decode(case, result)
            error = (gate.check(case.expect, decoded)
                     or gate.check_golden(goldens, case.name, raw))
        except (ValueError, LookupError, TypeError) as exc:
            error = f"malformed output: {type(exc).__name__}: {exc}"
    if out.rounds == 0:
        out.first_round.append(decoded)
    if error is not None:
        out.failed += 1
        if len(out.failures) < MAX_REPORTED_FAILURES:
            out.failures.append(f"round {out.rounds} {case.name}: {error}")


def tail(latencies_ns) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, i.e. the (TAIL_BEYOND + 1)-th largest."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(workload, measured: Measured, setup_s: float,
               peak_kb: int) -> tuple[dict, list]:
    """The end-to-end metrics, from the wall clock of every op.  Throughput
    divides by the time spent in ops, not by the time spent generating and
    checking inputs between them."""
    n = measured.attempted
    latencies = measured.latencies_ns
    correct = n - measured.failed
    tail_ns, tail_pct, beyond = tail(latencies)
    metrics = {
        "graphs_per_s": (correct / (sum(latencies) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    done = "CLI processes completed" if workload.kind == "cli" else "graphs decided correctly"
    notes = {
        "graphs_per_s": f"{done} per second of op time over {measured.rounds}"
                        f" rounds; ladder: {LADDERS[workload.name]}",
        "latency_p50_ms": f"median of {n} ops",
        "latency_tail_ms": f"p{tail_pct:.1f} of {n} ops, {beyond} beyond it",
        "setup_s": "median of repeated set-ups (import, inputs, goldens)",
        "peak_rss_mb": "peak RSS of the CLI children" if workload.kind == "cli"
                       else "peak RSS of the benchmark process",
    }
    lines = [f"{name} = {value:.6g} {unit}  ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    lines.append(f"failed_frac = {measured.failed / max(n, 1):.6g}  "
                 f"({measured.failed} of {n} ops failed)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


# ---------------------------------------------------------------------------
# The traced run


def _sepkit_import_us(stderr: bytes) -> int:
    """Cumulative -X importtime microseconds of top-level sepkit imports."""
    total = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2][1:]
        if name.rstrip() == "sepkit" or name.startswith("sepkit."):
            total += int(parts[1])
    return total


def traced_run(workload, sk, inputs, goldens, seconds, env, launcher):
    """Each round runs traced, then again untraced on the same inputs, so
    that drift in the host's speed reaches both alike; the difference
    between their op times is the tracing overhead."""
    recorder = spans.Recorder()
    cli = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.process_s": 0.0}
    plain = workload.runner(sk, ROOT, env, launcher=launcher)
    if workload.kind == "cli":
        importtime = workload.runner(sk, ROOT, env, launcher=launcher,
                                     interpreter_flags=("-X", "importtime"))

        def run(case):
            t0 = perf_counter()
            result = importtime(case)
            cli["cli.process_s"] += perf_counter() - t0
            cli["cli.import_s"] += _sepkit_import_us(result[2]) / 1e6
            return result
        patched, op_recorder = contextlib.nullcontext, None
    else:
        run = workload.runner(sk, ROOT, env, span=recorder.span)
        patched, op_recorder = functools.partial(spans.Patcher, recorder), recorder
    traced, untraced = Measured(), Measured()
    start = perf_counter()
    while traced.attempted <= TAIL_BEYOND or perf_counter() - start < seconds:
        cases = inputs(traced.rounds)
        with patched():
            run_round(traced, workload, run, cases, goldens, op_recorder)
        run_round(untraced, workload, plain, cases, goldens)
        if workload.kind == "cli":
            for _ in cases:  # a bare interpreter start, once per op
                t0 = perf_counter()
                launcher.run([sys.executable, "-c", "pass"], ROOT, env)
                cli["cli.interpreter_s"] += perf_counter() - t0

    certified = [(case, out["certificate"])
                 for case, out in zip(inputs(0), traced.first_round)
                 if out is not None and out.get("certificate") is not None]
    sample = certified[::max(len(certified) // RECHECK_SAMPLE, 1)][:RECHECK_SAMPLE]
    rechecked, problems = 0, []
    for case, certificate in sample:
        count, bad = gate.recheck(sk, case.data, certificate)
        rechecked += count
        problems += [f"{case.name}: {p}" for p in bad]

    metrics = spans.layer_metrics(recorder)
    metrics.update(cli)
    ops = traced.attempted
    for key in ("components", "crossings", "cycle_rank", "field_degree"):
        metrics[f"shape.{key}"] = sum(s[key] for s in traced.shapes) / ops
    traced_s = sum(traced.latencies_ns) / 1e9
    untraced_s = sum(untraced.latencies_ns) / 1e9
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1)
    metrics["gate.rechecks"] = rechecked

    WORKDIR.mkdir(parents=True, exist_ok=True)
    dump = WORKDIR / f"spans-{workload.name}.jsonl"
    with dump.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, op in recorder.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "op": op}) + "\n")

    lines = [f"traced {ops} ops in {traced.rounds} rounds, each round followed "
             f"by the same round untraced; {len(recorder.spans)} spans written to "
             f"{dump.relative_to(ROOT)}",
             f"tracing overhead: op time traced {traced_s:.4f} s vs untraced "
             f"{untraced_s:.4f} s",
             f"re-checked {rechecked} hypotheses of {len(sample)} certificates "
             f"outside the timed work: {len(problems)} did not reproduce"]
    selfs = sorted(spans.self_times(recorder.spans).items(), key=lambda kv: -kv[1])
    lines += [f"  self {name:<45} {ns / 1e9:10.4f} s" for name, ns in selfs[:15]]
    lines += [f"  count {name:<44} {n / max(ops, 1):12.1f} per op"
              for name, n in sorted(recorder.counts.items())]
    return metrics, lines, traced, untraced, problems


# ---------------------------------------------------------------------------


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("calls.") or name.endswith("_count"):
        return "ratio" if name == "calls.reuse_ratio" else "1/op"
    return "%" if name.endswith("_pct") else "count"


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        sk, cases, goldens, setup_s = setup(workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"sepkit benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"python={platform.python_version()} cpus={os.cpu_count()} "
          f"cases={len(cases)} goldens={'yes' if goldens else 'none for this seed'}")
    with Launcher() if workload.kind == "cli" else contextlib.nullcontext() as launcher:
        result = measure_and_report(workload, sk, round_inputs(
            workload, sk, args.seed, cases), goldens, setup_s, args, launcher)
    print(json.dumps(result))
    return int(not result["correct"])


def measure_and_report(workload, sk, inputs, goldens, setup_s, args, launcher) -> dict:
    env = cli_env(ROOT, os.environ)
    run = workload.runner(sk, ROOT, env, launcher=launcher)
    if launcher is not None:
        run(inputs(0)[0])  # warm the OS caches for the children

    problems = []
    if args.trace:
        values, lines, traced, untraced, problems = traced_run(
            workload, sk, inputs, goldens, args.seconds, env, launcher)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        attempted = traced.attempted + untraced.attempted
        failed = traced.failed + untraced.failed
        failures = traced.failures + untraced.failures
    else:
        measured = measure(workload, run, inputs, goldens, seconds=args.seconds)
        peak_kb = (launcher.peak_kb if launcher is not None
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics, lines = end_to_end(workload, measured, setup_s, peak_kb)
        attempted, failed, failures = (measured.attempted, measured.failed,
                                       measured.failures)
    for line in lines:
        print(line)
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"[{name}] {metric} = {value['value']:.6g} {value['unit']}")
        status = status or int(not result["correct"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
