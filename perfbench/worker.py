"""One measured benchmark process: set up, run a workload's queries, report as JSON.

``run.py`` starts this script as a fresh process and passes ``--t0``, its
CLOCK_MONOTONIC reading taken just before the start, so that ``setup_s``
counts interpreter start, imports and field construction.  The last line of
standard output is one JSON object.

    python3 perfbench/worker.py --workload l3l_tally --seed 1 --rounds 8 --t0 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import qfcodes
    if not Path(qfcodes.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"qfcodes was imported from {qfcodes.__file__}, not from {SRC}")


def _usage_mb() -> tuple[float, float]:
    """Peak RSS in MiB of this process and of its largest reaped child (fork-pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return me / 1024.0, kids / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="starter's CLOCK_MONOTONIC")
    ap.add_argument("--rounds", type=int, required=True, help="rounds of the point set")
    ap.add_argument("--trace", default=None, help="write spans here as JSONL")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    import numpy
    import workloads

    tracer = None
    if args.trace:
        import layers
        import spans
        mods = layers.modules()
        tracer = spans.Tracer(annotate=layers.ANNOTATE)
        tracer.install(layers.targets(mods), list(mods.values()), leaves=layers.LEAVES)
        tracer.query = "setup"
    workloads.setup(args.workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    queries = workloads.plan(args.workload, args.seed, args.rounds)
    start = time.perf_counter()
    records = workloads.run(queries, tracer)
    wall_s = time.perf_counter() - start
    self_mb, child_mb = _usage_mb()

    out = {
        "setup_s": setup_s, "wall_s": wall_s,
        "bulk_s": sum(r["seconds"] for r in records if r["kind"] == "bulk"),
        "self_rss_mb": self_mb, "child_rss_mb": child_mb,
        "point_seconds": [[r["point"], r["seconds"]] for r in records if r["kind"] == "point"],
        "attempted": len(records), "failed": sum(not r["ok"] for r in records),
        "failed_ids": [r["id"] for r in records if not r["ok"]],
        "results_sha256": hashlib.sha256(workloads.canonical(records)).hexdigest(),
        "inputs": queries,
        "numpy": numpy.__version__, "python": sys.version.split()[0],
    }
    if tracer is not None:
        tracer.uninstall()
        totals = tracer.totals()
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = [m["name"] for m in bench["per_layer"]]
        out["per_layer"] = {name: layers.metric(totals, name) for name in declared
                            if name.split(".")[0] in layers.LAYERS}
        out["per_layer"]["trace.spans"] = len(tracer.spans)
        out["layer_totals"] = {name: {k: v for k, v in agg.items() if k != "spans"}
                               for name, agg in sorted(totals.items())}
        tracer.write_jsonl(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
