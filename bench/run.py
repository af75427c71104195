"""chorkit benchmark: one workload per run, checked against known answers.

    python3 bench/run.py --workload verify_corpus --seed 20260808 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Each run starts a fresh worker process that builds the workload from the
seed.  A single closed-loop client on one thread then sweeps over the ops:
the first sweep runs every op, later ones run the ops that still fit in
`--seconds`.  Within a sweep, an op shorter than LONG_S is repeated back to
back and counts by its median there.  Every run of every op is
checked against the op's known answer.  Metrics, with tracing off
(`--trace 0`):

    wall_s       one pass over all ops: the sum of each op's time
    op_s_p50     median of the ops' times
    op_s_p90     90th percentile of the ops' times (at least 10 ops above it)
    peak_rss_mb  peak resident memory of the worker process
    setup_s      median, over twelve fresh interpreters, of the wall time to
                 start, import chorkit.cli and parse the workload's sources

An op's time is the median over sweeps, at a reference machine speed.  The
machines this runs on change speed by up to 1.8x for tens of seconds at a
time, so raw times of two runs of the same code differ by more than the
bounds.  A probe (a fixed slice of tuple, hash, repr and dict work) is timed
after every burst of ops and every quarter second during long ones, and each
time is scaled by PROBE_REF_S over the mean probe time across it.  The
unscaled pass time and the median probe time are printed too.

`ops_failed_ratio`, the ops with any wrong, crashed or exhausted run over all
ops, is printed with both counts, which are the result's `failed` and
`attempted`.  `correct` is false when an op fails that is not one of the
roadmap's known defects.  `--trace 1` runs every op once untraced, then once
with hooks on every layer (see tracing.py), and reports self time and counts
per layer and the tracing overhead instead.  One row per op, with its time,
runs, outcome, expected answer and states explored, goes to
bench/out/ops-<workload>-<seed>-trace<t>.jsonl.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_REF_S = 0.0005  # the probe's time on an undisturbed 2.1 GHz Xeon core
PROBE_REPEATS = 5
PROBE_EVERY_S = 0.25
GROUP_MIN_S = 0.02
LONG_S = 0.25
SETUP_REPEATS = 6  # timed starts before the worker, and again after it
RUN_LIMIT_S = 170.0
UNITS = {"wall_s": "s", "op_s_p50": "s", "op_s_p90": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Prints the monotonic clock when done, so the wait for its exit, which
# polls when given a timeout, is not part of the measurement.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import chorkit.cli
from chorkit import syntax
with open(sys.argv[2], encoding="utf-8") as f:
    texts = json.load(f)
for text in texts:
    try:
        syntax.parse_source(text)
    except RecursionError:
        pass  # a known defect at depth; counted by the workload's ops
print(time.perf_counter())
"""


def _args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=gen.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker: runs in its own process


def _package():
    sys.path.insert(0, str(SRC))
    import chorkit
    from chorkit import amendment, cc, cli, projection, sp, syntax, verifier

    if Path(chorkit.__file__).resolve().parent != SRC / "chorkit":
        raise ImportError(f"chorkit imported from {chorkit.__file__}, not {SRC}")
    modules = dict(amendment=amendment, cc=cc, cli=cli, projection=projection, sp=sp,
                   syntax=syntax, verifier=verifier)
    return argparse.Namespace(**modules), modules


def _probe() -> None:
    """A fixed slice of the kind of work the ops do: tuples, hashing, repr,
    dict inserts and a sort."""
    seen = {}
    for i in range(600):
        key = ("p", i % 7, (i, "q"))
        seen[key] = repr(key)
    sorted(seen.values())


class Speed:
    """How fast the machine runs, as the time of the probe: sampled after
    every burst of ops and, by a thread, every PROBE_EVERY_S during long ones."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        with self._lock:
            times = []
            for _ in range(PROBE_REPEATS):
                began = perf_counter()
                _probe()
                times.append(perf_counter() - began)
            self.times.append(perf_counter())
            self.probes.append(min(times))

    def _run(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.sample()

    def __enter__(self) -> "Speed":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, began: float, ended: float) -> float:
        """PROBE_REF_S over the mean probe time from the last sample before
        `began` to the first after `ended`: the factor that turns the time of
        an op run in between into seconds at the reference speed."""
        with self._lock:
            first = max(bisect.bisect_right(self.times, began) - 1, 0)
            last = bisect.bisect_left(self.times, ended) + 1
            return PROBE_REF_S / statistics.fmean(self.probes[first:last])


class Tally:
    """What the run learnt about each op, in memory that grows with the
    number of sweeps but not with repetitions within one (which would move
    peak_rss_mb)."""

    def __init__(self) -> None:
        self.scaled: dict[str, list[float]] = {}
        self.unscaled: dict[str, list[float]] = {}
        self.runs: Counter = Counter()
        self.outcomes: dict[str, set] = {}
        self.states: dict[str, object] = {}
        self.failed: set[str] = set()

    def judge(self, op, result, error) -> None:
        if error is None:
            outcome, states, ok = op.judge(result)
        else:
            outcome, states, ok = error, None, False
        self.runs[op.id] += 1
        self.outcomes.setdefault(op.id, set()).add(outcome)
        self.states[op.id] = states
        if not ok:
            self.failed.add(op.id)

    def time(self, op, took: list[float], scaled: list[float]) -> None:
        """Record one burst of an op by its median."""
        self.scaled.setdefault(op.id, []).append(statistics.median(scaled))
        self.unscaled.setdefault(op.id, []).append(statistics.median(took))

    def seconds(self, scaled: bool = True) -> dict[str, float]:
        """Each op's time: the median over the bursts of their medians."""
        times = self.scaled if scaled else self.unscaled
        return {op_id: statistics.median(v) for op_id, v in times.items()}


def _sweep(workload, speed: Speed, tally: Tally, deadline: float | None, last: dict,
           repeat: bool = True) -> float:
    """One sweep over the ops; returns its scaled wall time.

    With `repeat`, a group of ops shorter than LONG_S runs back to back at
    least three times and for at least GROUP_MIN_S, so one disturbed run does
    not set its time.  With a deadline, a group is skipped when its last
    duration no longer fits before it."""
    workload.reset()
    total = 0.0
    for group, ops in workload.groups():
        if deadline is not None and perf_counter() + last[group] > deadline:
            continue
        burst = []
        group_began = perf_counter()
        for runs in itertools.count(1):
            for op in ops:
                began = perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # a crashing op is a failed op; the pass goes on
                    result, error = None, type(exc).__name__
                burst.append((op, began, perf_counter() - began))
                tally.judge(op, result, error)
            took = perf_counter() - group_began
            if not repeat or took / runs > LONG_S or (took >= GROUP_MIN_S and runs >= 3):
                break
        last[group] = perf_counter() - group_began
        speed.sample()
        for op in ops:
            took = [t for o, _, t in burst if o is op]
            scaled = [t * speed.scale(b, b + t) for o, b, t in burst if o is op]
            tally.time(op, took, scaled)
            total += sum(scaled) / len(scaled)
    return total


def worker(args) -> dict:
    pkg, modules = _package()
    workload = workloads.build(args.workload, pkg, OUT, args.seed)
    tally, last = Tally(), {}
    sweeps = 1
    per_layer, missing = None, []
    try:
        with Speed() as speed:
            if args.trace:
                plain = _sweep(workload, speed, tally, None, last, repeat=False)
                tracer = tracing.Tracer()
                tracer.install(modules)
                try:
                    traced = _sweep(workload, speed, tally, None, last, repeat=False)
                finally:
                    tracer.uninstall()
                per_layer, missing = tracer.metrics(), tracer.missing()
                per_layer["trace.wall_s"] = {"value": traced, "unit": "s"}
                per_layer["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
            else:
                deadline = perf_counter() + args.seconds
                _sweep(workload, speed, tally, None, last)
                # Later sweeps repeat whatever still fits, so short ops get many
                # samples and long ones as many as the time allows.
                while perf_counter() + min(last.values()) <= deadline:
                    _sweep(workload, speed, tally, deadline, last)
                    sweeps += 1
    finally:
        workload.close()
    rows_path = OUT / f"ops-{args.workload}-{args.seed}-trace{args.trace}.jsonl"
    seconds, unscaled = tally.seconds(), tally.seconds(scaled=False)
    with open(rows_path, "w", encoding="utf-8") as rows:
        for op in workload.ops:
            rows.write(json.dumps({
                "workload": workload.name, "op": op.id, "seconds": seconds[op.id],
                "unscaled_seconds": unscaled[op.id], "runs": tally.runs[op.id],
                "outcome": " | ".join(sorted(tally.outcomes[op.id])), "expected": op.expected,
                "ok": op.id not in tally.failed, "known_defect": op.known_defect,
                "states_explored": tally.states[op.id],
            }) + "\n")
    times = list(seconds.values())
    return {
        "sweeps": sweeps,
        "runs": sum(tally.runs.values()),
        "attempted": len(workload.ops),
        "failed_ops": sorted(tally.failed),
        "unexpected": sorted(op.id for op in workload.ops
                             if op.id in tally.failed and not op.known_defect),
        "unscaled_wall_s": sum(unscaled.values()),
        "probe_s": statistics.median(speed.probes),
        "rows": str(rows_path.relative_to(ROOT)),
        "end_to_end": {
            "wall_s": sum(times),
            "op_s_p50": statistics.median(times),
            "op_s_p90": statistics.quantiles(times, n=10)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "per_layer": per_layer,
        "missing_hooks": missing,
    }


# ---------------------------------------------------------------------------
# Driver: measures set-up, starts the worker, reports


def _setup_times(command: list[str], count: int, deadline: float) -> list[float]:
    """Start times of `count` fresh interpreters, each scaled by the probe
    timed just before and just after it."""
    speed = Speed()
    times = []
    for _ in range(count):
        speed.sample()
        began = perf_counter()
        done = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        ended = float(done.stdout)
        speed.sample()
        times.append((ended - began) * speed.scale(began, ended))
    return times


def main(argv=None) -> int:
    started = perf_counter()
    args = _args(argv)
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if not (SRC / "chorkit" / "cli.py").is_file():
        print(f"error: no chorkit package under {SRC}", file=sys.stderr)
        return 2
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    texts = OUT / f"sources-{args.workload}-{args.seed}-{os.getpid()}.json"
    texts.write_text(json.dumps(workloads.sources(args.workload, args.seed)), encoding="utf-8")
    setup_child = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(texts)]
    setup = []
    try:
        if not args.trace:
            # The first start compiles bytecode and is not timed.  Half the
            # starts come before the worker and half after, so the median
            # spans the run rather than one moment of it.
            setup = _setup_times(setup_child, SETUP_REPEATS + 1, deadline)[1:]
        command = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if not args.trace:
            setup += _setup_times(setup_child, SETUP_REPEATS, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        texts.unlink()
    result = json.loads(done.stdout.splitlines()[-1])

    failed = len(result["failed_ops"])
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} ops, "
          f"{result['runs']} runs of them in {result['sweeps']} sweep(s), one client, closed loop")
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in result["end_to_end"].items()}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    bad = [name for name, metric in metrics.items()
           if isinstance(metric["value"], bool) or not isinstance(metric["value"], (int, float))
           or not math.isfinite(metric["value"])]
    if bad:
        print(f"error: metrics without a finite value: {', '.join(bad)}", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'ops':<32} {result['attempted']} samples")
    print(f"  {'ops_failed_ratio':<32} {failed / result['attempted']:.6g} ratio "
          f"({failed} failed of {result['attempted']} attempted)")
    print(f"  {'probe_s':<32} {result['probe_s']:.6g} s (median; times above are scaled "
          f"by {PROBE_REF_S} s over it)")
    print(f"  {'unscaled_wall_s':<32} {result['unscaled_wall_s']:.6g} s")
    for op_id in result["failed_ops"]:
        known = "unexpected" if op_id in result["unexpected"] else "known defect"
        print(f"  failed op ({known}): {op_id}")
    for name in result["missing_hooks"]:
        print(f"  missing hook, reads 0: {name}")
    print(f"  per-op rows: {result['rows']}")
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
