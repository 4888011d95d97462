"""Benchmark entry point: one workload, one seed, fresh measured processes.

    python3 perfbench/run.py --workload l3l_tally --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` runs the workload once in a fresh process: its bulk queries
spread through several rounds of its point queries, as many rounds as fit in
``--seconds`` at the baseline machine's speed.  ``wall_s`` is that process's
time for all of them.  Each point query's latency is the mean of its
timings, one per round; the percentiles are over the point queries.  On
the baseline machine a fixed loop runs up to 1.8 times slower in stretches
of seconds to minutes, so one timing says as much about the stretch as about
the code.  The mean of timings spread over the whole run moves with the
share of the run spent slow, as ``wall_s`` does, where a single timing or a
percentile of pooled timings jumps between the fast and the slow value.
Processes that only set up run before and after; ``setup_s`` is the median
start-up time over all of them and the measured one.

``--trace 1`` runs the bulk queries and one round of point queries twice,
each time in a fresh process: once plain, once with every layer's functions
wrapped by the span recorder.  It prints the per-layer metrics, fails the
run if the two result sets differ by a byte, and writes the spans as JSONL.

A human-readable report precedes the last line of standard output, which is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Generated inputs, machine details and per-query outcomes go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6                 # half before the measured process, half after
DEADLINE_S = 170.0
# Nominal seconds, on the baseline machine, of a workload's bulk queries and
# of one round of its point set.  A run of ``--seconds`` S makes
# max(1, (S - bulk) // round) rounds: the amount of work follows S and never
# the seed or the speed of the machine at the time.
COST_S = {"spectra_oracle": (11.5, 1.35), "l3l_tally": (12.2, 1.7), "curve_sweeps": (8.0, 2.2)}


def rounds(workload: str, seconds: int) -> int:
    bulk, one = COST_S[workload]
    return max(1, int((seconds - bulk) // one))


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def spawn(extra: list[str], deadline: float) -> dict:
    """Run worker.py to completion in a fresh process and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(f"out of time after {DEADLINE_S:.0f} s")
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(report: dict) -> dict:
    def first_line(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    l3 = first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if l3.endswith("K") and l3[:-1].isdigit():
        l3 = f"{int(l3[:-1]) / 1024:g}MiB"
    return {"nproc": os.cpu_count(),
            "cpu": first_line("/proc/cpuinfo", "model name"),
            "l3": l3,
            "python": report["python"], "numpy": report["numpy"]}


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    n_rounds = rounds(workload, seconds)
    common = ["--workload", workload, "--seed", str(seed), "--rounds", str(n_rounds)]

    def probes():
        return [spawn(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES // 2)]

    setups = probes()
    run = spawn(common, deadline)
    setups += probes() + [run["setup_s"]]
    timings: dict[int, list[float]] = {}
    for point, secs in run["point_seconds"]:
        timings.setdefault(point, []).append(secs)
    latency_ms = [statistics.fmean(t) * 1000.0 for t in timings.values()]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": run["wall_s"],
        "point_p50_ms": statistics.median(latency_ms),
        "point_p90_ms": statistics.quantiles(latency_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": run["self_rss_mb"] + run["child_rss_mb"],
    }
    notes = [
        f"setup_s       median of {len(setups)} fresh processes: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"wall_s        {run['wall_s']:.4f} s, of which bulk queries {run['bulk_s']:.4f} s",
        f"point queries {len(latency_ms)}, each the mean of {n_rounds} timings",
        f"peak_rss_mb   process ru_maxrss + largest fork-pool child ru_maxrss: "
        f"{run['self_rss_mb']:.1f} + {run['child_rss_mb']:.1f} MiB",
    ]
    return values, [run], notes


def per_layer(workload: str, seed: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed), "--rounds", "1"]
    plain = spawn(common, deadline)
    spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    traced = spawn(common + ["--trace", str(spans_path)], deadline)
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    same = plain["results_sha256"] == traced["results_sha256"]
    notes = [f"wall_s untraced {plain['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s",
             f"query results identical with tracing on and off: {same}",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return values, [plain, traced], notes, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "qfcodes" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'qfcodes'}; run from a repository checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    same = True
    if args.trace:
        values, runs, notes, same = per_layer(args.workload, args.seed, deadline)
        declared = bench["per_layer"]
    else:
        values, runs, notes = end_to_end(args.workload, args.seed, args.seconds, deadline)
        declared = bench["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        fail("measured metrics differ from the ones BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = machine(runs[-1])
    inputs = runs[-1]["inputs"] if args.trace else [q for r in runs for q in r["inputs"]]

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "metrics": metrics,
        "attempted": attempted, "failed": failed,
        "failed_ids": [i for r in runs for i in r["failed_ids"]],
        "inputs": inputs,
        "layer_totals": runs[-1].get("layer_totals"),
    }, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:16.6f} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed / attempted:16.6f} ({failed} of {attempted} queries)")
    for line in notes:
        print("  " + line)
    print(f"  inputs and outcomes written to {record.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and same, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
