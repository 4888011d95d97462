"""The benchmark's own tests: seeded inputs, tracing transparency, failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import spans
import workloads
from conftest import BENCH
from qfcodes import curves, spectra


def _plan(workload, seed):
    return workloads.plan(workload, seed, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_inputs(workload):
    assert json.dumps(_plan(workload, 7)) == json.dumps(_plan(workload, 7))
    assert json.dumps(_plan(workload, 7)) != json.dumps(_plan(workload, 8))
    # the seed changes which queries run, never how many
    assert len(_plan(workload, 7)) == len(_plan(workload, 8))
    # each round plays every point query once, with the same inputs
    rounds = {}
    for q in _plan(workload, 7):
        if q["kind"] == "point":
            rounds.setdefault(q["point"], []).append(json.dumps(q["args"]))
    assert sorted(rounds) == list(range(len(rounds)))
    assert all(len(args) == 2 and args[0] == args[1] for args in rounds.values())


def _cheap_queries():
    """A few queries of every kind that finish in seconds (no tally, no witness)."""
    spectra_qs = workloads.plan("spectra_oracle", 3, 1)
    qs = [q for q in spectra_qs if q["kind"] == "bulk" and q["args"][:3] in ([2, 1, 4], [3, 1, 4])]
    qs += [q for q in spectra_qs if q["kind"] == "point"
           and q["args"][:3] in ([2, 1, 4], [3, 1, 4], [3, 1, 8])][:12]
    qs += [q for q in workloads.plan("l3l_tally", 3, 1) if q["kind"] == "point"][:4]
    curve_qs = workloads.plan("curve_sweeps", 3, 1)
    qs += [q for q in curve_qs if q["op"] == "sumdist"][:2]
    qs += [q for q in curve_qs if q["kind"] == "point"][:4]
    return qs


def test_tracing_leaves_query_results_byte_identical():
    for name in ("spectra_oracle", "l3l_tally", "curve_sweeps"):
        workloads.setup(name)
    qs = _cheap_queries()
    plain = workloads.run(qs)

    mods = layers.modules()
    original = spectra.brute_spectrum
    tracer = spans.Tracer(annotate=layers.ANNOTATE)
    tracer.install(layers.targets(mods), list(mods.values()), leaves=layers.LEAVES)
    try:
        traced = workloads.run(qs, tracer)
    finally:
        tracer.uninstall()

    assert spectra.brute_spectrum is original
    assert all(r["ok"] for r in plain)
    assert workloads.canonical(plain) == workloads.canonical(traced)
    totals = tracer.totals()
    for name in ("cli.main", "spectra.brute_spectrum", "quadform.profile",
                 "klapper.l3l_pair_profile", "curves.count_points_by_solutions",
                 "gf.FieldCtx.add"):
        assert totals[name]["calls"] > 0, name
    # quadform.profile is reached through the alias qf_profile in klapper and curves
    assert layers.metric(totals, "quadform.profile.calls") >= 8
    for agg in totals.values():
        assert agg["self_s"] <= agg["total_s"] + 1e-9


def test_failed_check_is_counted_not_fatal(monkeypatch):
    workloads.setup("curve_sweeps")
    qs = [q for q in workloads.plan("curve_sweeps", 5, 1) if q["kind"] == "point"][:3]
    recount = curves.count_points_by_solutions
    monkeypatch.setattr(curves, "count_points_by_solutions", lambda spec: recount(spec) + 1)
    records = workloads.run(qs)
    assert [r["ok"] for r in records] == [False, False, False]

    def boom(spec):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(curves, "count_points_by_solutions", boom)
    records = workloads.run(qs)
    assert [r["ok"] for r in records] == [False, False, False]
    assert records[0]["result"] == {"error": "RuntimeError: deliberate"}


def test_runner_refuses_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "l3l_tally",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
