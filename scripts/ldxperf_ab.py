#!/usr/bin/env python3
"""Alternating A/B comparison of ldxperf between two checkouts.

Usage:
    python3 scripts/ldxperf_ab.py --base PARENT_DIR --change CHANGE_DIR \
        --workload syscall --seconds 10 --pairs 10 [--seed 1]

Each checkout is built once, then the benchmark command from the base
checkout's BENCHMARK.json runs in each checkout, `--pairs` times per side.
Pair i runs the base first when i is even and the change first when it is
odd, so drift on the host hits both sides alike. Each run's last stdout
line is parsed as JSON; a run with `"correct": false` or `failed > 0`
fails the script.

For every end-to-end metric the script prints each side's median and
quartiles, how many pairs the change won (ties count for neither), the
change of the median, whether the change's median is worse than the
base's by more than the metric's `bound`, and whether the change wins at
least 9 pairs in 10 with a median gap wider than the base's interquartile
range (the rule for claiming a gain, which needs at least 10 pairs).

Right before each run the script times a fixed single-threaded CPU loop
(`calib_ms`), a reading of the host's state at that moment. The listing
of every run shows it next to the run's metrics and marks with `*` each
run whose calibration took more than 1.3x the comparison's fastest. The
mark is for reading the numbers only: every run counts, unweighted, in
the medians and win counts.

It only reads BENCHMARK.json and the checkouts, and writes nothing into
either but cargo's build output under `ldxperf/target`: the build and every
run pass `--locked`, so cargo never rewrites `ldxperf/Cargo.lock`; a lock
it would have to change is an error.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def load_benchmark(checkout):
    with open(Path(checkout) / "BENCHMARK.json") as f:
        return json.load(f)


def build(checkout):
    subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--quiet",
            "--manifest-path",
            "ldxperf/Cargo.toml",
        ],
        cwd=checkout,
        check=True,
    )


CALIBRATION_ITERATIONS = 2_000_000
SLOW_HOST = 1.3


def calibrate():
    """Milliseconds a fixed CPU loop takes right now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x ^= i * i
    return (time.perf_counter() - start) * 1e3


def locked(command):
    """`command` with `--locked` before its `--`, so cargo never edits the lockfile."""
    end = command.index("--") if "--" in command else len(command)
    return command[:end] + ["--locked"] + command[end:]


def run_once(checkout, command, args):
    """Runs the benchmark once in `checkout`; returns its last JSON line."""
    proc = subprocess.run(
        locked(command) + args, cwd=checkout, capture_output=True, text=True
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"{checkout}: correct={result.get('correct')} "
            f"failed={result.get('failed')} of {result.get('attempted')}"
        )
    return result


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(metrics, base_runs, change_runs):
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum(
            1 for b, c in zip(base, change) if (c < b if lower else c > b)
        )
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        rel = (cmed - bmed) / bmed if bmed else 0.0
        worse = rel if lower else -rel
        pairs = len(base)
        gain = (
            wins * 10 >= 9 * pairs
            and abs(cmed - bmed) > bq3 - bq1
            and worse < 0
        )
        if pairs < 10:
            gain = None
        rows.append(
            (
                name,
                m["unit"],
                f"{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]",
                f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]",
                f"{wins}/{pairs}",
                f"{rel:+.1%}",
                "REGRESSION" if worse > m["bound"] else "within",
                "n/a (<10 pairs)" if gain is None else "yes" if gain else "no",
            )
        )
    header = (
        "metric",
        "unit",
        "base median [q1, q3]",
        "change median [q1, q3]",
        "change wins",
        "median moved",
        "bound",
        "gain",
    )
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print_runs(metrics, base_runs, change_runs)


def print_runs(metrics, base_runs, change_runs):
    """Every run in the order it ran, its calibration beside its metrics."""
    fastest = min(r["calib_ms"] for r in base_runs + change_runs)
    print(
        f"every run, in run order (calib_ms: the CPU loop timed just before "
        f"the run; * = over {SLOW_HOST:g}x the fastest, {fastest:.4g} ms):"
    )
    header = ["pair", "side", "calib_ms"] + [m["name"] for m in metrics]
    rows = []
    for i, (b, c) in enumerate(zip(base_runs, change_runs)):
        order = (("base", b), ("change", c)) if i % 2 == 0 else (("change", c), ("base", b))
        for side, run in order:
            slow = "*" if run["calib_ms"] > SLOW_HOST * fastest else ""
            rows.append(
                [str(i + 1), side, f"{run['calib_ms']:.4g}{slow}"]
                + [f"{run['metrics'][m['name']]['value']:.4g}" for m in metrics]
            )
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run length")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    opts = ap.parse_args()
    if opts.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = load_benchmark(opts.base)
    args = [
        "--workload",
        opts.workload,
        "--seed",
        str(opts.seed),
        "--seconds",
        f"{opts.seconds:g}",
        "--trace",
        "0",
    ]
    for checkout in {opts.base, opts.change}:
        build(checkout)

    # Keyed by side, not by path: both sides may be the same checkout.
    sides = {"base": opts.base, "change": opts.change}
    runs = {"base": [], "change": []}
    for i in range(opts.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            calib_ms = calibrate()
            run = run_once(sides[side], bench["command"], args)
            run["calib_ms"] = calib_ms
            runs[side].append(run)
        print(
            f"pair {i + 1}/{opts.pairs} ({'base' if i % 2 == 0 else 'change'} first) done",
            file=sys.stderr,
        )

    print(
        f"workload {opts.workload}, seed {opts.seed}, {opts.pairs} pairs of "
        f"{opts.seconds:g} s runs"
    )
    report(bench["end_to_end"], runs["base"], runs["change"])


if __name__ == "__main__":
    main()
