"""Benchmark of the `pa` command line on three workloads.

    python3 bench/run.py --workload dihedral-session --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Each workload runs in this one process: every operation is one `pa`
command line with --json, passed to `pa.cli.main`; its payload is parsed
and checked against results the benchmark computes itself (expect.py).
With --trace 0 the run repeats whole rounds of its stream and prints the
end-to-end metrics.  Their times are in probe times, not seconds: a timer
runs a fixed piece of work beside the commands to follow the speed of the
machine (speed.py).  With --trace 1 it runs one round with spans around
every call into `pa` (spans.py), then the same round untraced as the base
of the tracing overhead, and prints the per-layer metrics.  The last line
of standard output is one JSON object.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import streams  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# Statistics


def tail_fraction(round_size: int) -> Fraction:
    """The highest percentile, as a fraction, with at least ten of a
    round's samples beyond it: (n - 10)/n.  Below eleven samples there is
    no such percentile and the tail is the largest sample."""
    if round_size <= 10:
        return Fraction(1)
    return Fraction(round_size - 10, round_size)


def percentile(samples: list[float], fraction: Fraction) -> float:
    """Nearest-rank percentile: the k-th smallest with k = ceil(f * n)."""
    ordered = sorted(samples)
    k = max(1, math.ceil(fraction * len(ordered)))
    return ordered[k - 1]


# ---------------------------------------------------------------------------
# Set-up


def load_pa():
    """Import pa from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pa.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "pa").resolve():
        raise SystemExit(f"run.py: imported pa from {cli.__file__}, not {SRC}")
    return cli


def make_stream(workload: str, seed: int, workdir: Path) -> list:
    if workload == "paper-replay":
        return streams.paper_replay(seed)
    if workload == "dihedral-session":
        return streams.dihedral_session(seed)
    return streams.combinatorics_mix(seed, streams.write_graphs(seed, str(workdir)))


def set_up(workload: str, seed: int, workdir: Path):
    """Import pa and generate the workload's inputs; returns the CLI
    module, the stream and the seconds it took."""
    start = time.perf_counter()
    cli = load_pa()
    ops = make_stream(workload, seed, workdir)
    return cli, ops, time.perf_counter() - start


def child(args: list[str]) -> str:
    """Run this script in a fresh interpreter and return its last line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int, first: float) -> float:
    """Median set-up time over this process and fresh probe processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(float(child(["--setup-probe", "--workload", workload, "--seed", str(seed)])))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Running rounds


class Round:
    def __init__(self):
        # (start, end, seconds of speed probes inside) of each command
        self.intervals: list[tuple[float, float, float]] = []
        self.costs: list[float] = []  # each command in probe times; see price()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def latencies(self) -> list[float]:
        """Each command's raw seconds, the probes inside it taken out."""
        return [end - start - probe for start, end, probe in self.intervals]

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def price(self, probe: speed.SpeedProbe, smooth: list[float]) -> None:
        self.costs = [probe.cost(start, end, smooth) for start, end, _ in self.intervals]


def run_round(cli, ops, state: dict, probe: speed.SpeedProbe) -> Round:
    """One pass over the stream.  Only the call into pa is timed; parsing
    and checking the payload happen outside the timed region."""
    out = Round()
    for op in ops:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            spent = probe.spent
            start = time.perf_counter()
            code = cli.main(op.argv)
            end = time.perf_counter()
            out.intervals.append((start, end, probe.spent - spent))
        out.attempted += op.attempted
        try:
            payload = json.loads(stdout.getvalue())
        except json.JSONDecodeError:
            payload = None
        if op.kind == "verify.all":
            out.failed += expect.replay_failed(payload or {})
        elif code != 0:
            out.failed += 1
        if payload is None:
            if code == 0:
                out.problems.append(f"{' '.join(op.argv)}: no JSON payload")
            continue
        for problem in expect.check(op, payload, state):
            out.problems.append(f"{' '.join(op.argv)}: {problem}")
        if code != 0 and op.kind != "verify.all":
            out.problems.append(f"{' '.join(op.argv)}: exit {code}: {stderr.getvalue().strip()}")
    return out


def run_untraced(cli, ops, seconds: float) -> tuple[list[Round], float]:
    """Whole rounds while the next one, checks included, is expected to
    end within ``seconds``; at least one.  The speed probe runs
    throughout, and every command is priced in probe times at the end.
    Returns the rounds and the median probe time in ms."""
    state: dict = {}
    rounds: list[Round] = []
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            rounds.append(run_round(cli, ops, state, probe))
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    smooth = probe.smoothed()
    for r in rounds:
        r.price(probe, smooth)
    return rounds, 1000 * statistics.median(probe.durations)


def per_command(rounds: list[Round], field: str) -> list[float]:
    """Each command's median over the rounds of a run."""
    return [statistics.median(xs) for xs in zip(*(getattr(r, field) for r in rounds))]


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    cost = per_command(rounds, "costs")
    return {
        "setup_s": (setup_s, "s"),
        "wall": (sum(cost) / 1000, "kprobe"),
        "op_p50": (statistics.median(cost), "probe"),
        "op_tail": (percentile(cost, tail_fraction(len(cost))), "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_times(rounds: list[Round], probe_ms: float) -> dict:
    """The same figures in raw seconds, for reading; not metrics, since
    they follow the speed of the machine."""
    latency = per_command(rounds, "latencies")
    return {
        "wall_s": sum(latency),
        "op_p50_ms": 1000 * statistics.median(latency),
        "op_tail_ms": 1000 * percentile(latency, tail_fraction(len(latency))),
        "probe_ms": probe_ms,
    }


# ---------------------------------------------------------------------------
# Entry points


def report(workload: str, seed: int, trace: int, correct: bool, rounds: list[Round],
           metrics: dict, extra: dict) -> dict:
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace, rounds=len(rounds), **extra)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(f"{workload} seed={seed} rounds={len(rounds)} attempted={result['attempted']} "
          f"failed={result['failed']} correct={str(correct).lower()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "raw" in extra:
        print("  raw, following the machine's speed: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in extra["raw"].items()))
    for problem in [p for r in rounds for p in r.problems][:20]:
        print(f"  wrong: {problem}", file=sys.stderr)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        cli, ops, first_setup = set_up(workload, seed, workdir)
        if not trace:
            setup_s = setup_seconds(workload, seed, first_setup)
            rounds, probe_ms = run_untraced(cli, ops, seconds)
            metrics = end_to_end(rounds, setup_s)
            extra = {"raw": raw_times(rounds, probe_ms), "round_wall_s": [r.wall_s for r in rounds]}
        else:
            # one traced round, then the same round untraced in this process
            # as the base of the overhead
            tracer = spans.Tracer()
            with speed.SpeedProbe() as probe:
                tracer.install()
                try:
                    rounds = [run_round(cli, ops, {}, probe)]
                finally:
                    tracer.uninstall()
                layer = tracer.metrics()
                OUT.mkdir(exist_ok=True)
                (OUT / f"{workload}-seed{seed}.trace.json").write_text(json.dumps(
                    {"fields": ["name", "parent", "start", "end", "nested"], "spans": tracer.spans}
                ))
                del tracer
                base = run_round(cli, ops, {}, probe)
            smooth = probe.smoothed()
            rounds[0].price(probe, smooth)
            base.price(probe, smooth)
            layer["trace.overhead"] = sum(rounds[0].costs) / sum(base.costs)
            metrics = {name: (layer[name], unit) for name, unit in spans.metric_names()}
            extra = {"traced_wall_s": rounds[0].wall_s, "untraced_wall_s": base.wall_s,
                     "traced_kprobe": sum(rounds[0].costs) / 1000,
                     "untraced_kprobe": sum(base.costs) / 1000}
            rounds[0].problems += base.problems
        correct = not any(r.problems for r in rounds)
        return report(workload, seed, trace, correct, rounds, metrics, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in streams.WORKLOADS:
        line = child(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)])
        results[workload] = json.loads(line)
        res = results[workload]
        print(f"{workload}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}")
        for name, metric in res["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*streams.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "pa" / "__init__.py").is_file():
        print(f"run.py: no pa sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workdir = OUT / f"work-{os.getpid()}"
        try:
            print(set_up(args.workload, args.seed, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace)
        print(json.dumps(results))
        return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
