"""Seeded query plans for the benchmark's three workloads, each query with its own check.

A query is one call into the package's public API or into ``cli.main``, the
way a researcher's script makes it; calls go through module attributes so
that a traced run sees them.  Every ``op_*`` function runs one query and
returns ``(result, ok)``: ``result`` is canonical JSON-able data and ``ok``
is the verdict of an independent route: brute vs predict, fast vs general
profile, trace count vs solution recount, tally vs closed form, the power
moments of a predicted spectrum, or a CLI exit code 0 with ``match: true``.

The seed draws the point queries and the order of all queries.  The amount
of work does not depend on it: the bulk set is fixed, and the point set has a
fixed size and a fixed multiset of sizes or configurations.  A run replays
its point set in several rounds, so that each point query is timed several
times, seconds apart.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import sys
import traceback
from math import gcd
from time import perf_counter

import numpy as np

from qfcodes import cli, curves, gf, klapper, quadform, spectra, verify
from qfcodes.linpoly import FamilySpec, LinearizedPoly
from qfcodes.spectra import CodeSpec

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: nothing to trim
    _malloc_trim = None

WORKLOADS = ("spectra_oracle", "l3l_tally", "curve_sweeps")
GRID = verify.GRID                   # (p, s, m, ell), the acceptance grid
L3L = (3, 8, 1)                      # (p, m, ell): the 3^16-pair tally and the witness
SCANS = ((3, 6, 1), (5, 4, 1), (2, 8, 1))
# Point queries span a range of sizes, so that their latency percentiles
# move smoothly rather than jump between a few values.
CLI_REPEATS = 4                      # each CLI configuration appears this often in the set
PAIRS = 105
MAX_CODEWORDS = 20                   # pair i checks i % 21 codewords: 0..20, 10 on average
# (p, m): odd-p fields whose sizes p^m climb from 81 to 6561, closely spaced
# at the top, so that curve latencies form a ladder with no wide gap near
# either percentile
CURVE_FIELDS = ((3, 4), (17, 2), (23, 2), (31, 2), (37, 2), (43, 2), (7, 4), (53, 2),
                (59, 2), (61, 2), (67, 2), (71, 2), (73, 2), (79, 2), (3, 8))
CURVES_PER_FIELD = 8


def fields(workload: str) -> list[tuple[int, int, int]]:
    """(p, n, d): F_{p^n} and its F_{p^d} symbol tables, everything a workload touches."""
    grid = [(p, s * m, s) for p, s, m, _ in GRID]
    l3l = [(L3L[0], L3L[1], 1)]
    if workload == "spectra_oracle":
        out = grid + l3l
    elif workload == "l3l_tally":
        out = l3l
    elif workload == "curve_sweeps":
        out = grid + [(p, m, 1) for p, m, _ in SCANS] + [(p, m, 1) for p, m in CURVE_FIELDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return sorted(set(out))


def setup(workload: str):
    for p, n, d in fields(workload):
        gf.get_field(p, n).symbols(d)


# -- plans ------------------------------------------------------------------------

def _query(qid: str, kind: str, op: str, *args) -> dict:
    return {"id": qid, "kind": kind, "op": op, "args": list(args)}


def _bulk(workload: str) -> list[dict]:
    if workload == "spectra_oracle":
        qs = [_query(f"brute:{p},{s},{m},{l}:{v}", "bulk", "brute", p, s, m, l, v)
              for p, s, m, l in GRID for v in spectra.VARIANTS]
        return qs + [_query(f"cwe:{p},{s},{m},{l}", "bulk", "cwe", p, s, m, l)
                     for p, s, m, l in GRID]
    if workload == "l3l_tally":
        return [_query("tally:{},{},{}".format(*L3L), "bulk", "tally", *L3L)]
    if workload == "curve_sweeps":
        qs = [_query(f"scan:{p},{m},{l}", "bulk", "scan", p, m, l) for p, m, l in SCANS]
        qs.append(_query("witness:{},{},{}".format(*L3L), "bulk", "witness", *L3L))
        return qs + [_query(f"sumdist:{p},{s},{m},{l}", "bulk", "sumdist", p, s, m, l)
                     for p, s, m, l in GRID]
    raise ValueError(f"unknown workload {workload!r}")


def _cli_configs() -> list[tuple]:
    out = []
    for p, s, m, l in GRID:
        out += [("cli_both", p, s, m, l, v) for v in ("base", "0")]
        out += [("cli_predict", p, s, m, f"mono:{l}", v) for v in ("1", "2")]
    p, m, l = L3L
    out += [("cli_predict", p, 1, m, f"l3l:{l}", v) for v in spectra.VARIANTS]
    return out


def _points(workload: str, rng: np.random.Generator) -> list[dict]:
    if workload == "spectra_oracle":
        configs = _cli_configs() * CLI_REPEATS
        return [_query(f"pt{i}", "point", configs[j][0], *configs[j][1:])
                for i, j in enumerate(rng.permutation(len(configs)))]
    if workload == "l3l_tally":
        order, out = L3L[0] ** L3L[1], []
        for i in range(PAIRS):
            g1, g2 = int(rng.integers(0, order)), int(rng.integers(1, order))
            draws = [[int(rng.integers(0, order)), int(rng.integers(0, L3L[0]))]
                     for _ in range(i % (MAX_CODEWORDS + 1))]
            out.append(_query(f"pt{i}", "point", "pair", g1, g2, draws))
        return out
    if workload == "curve_sweeps":
        fields = [pm for pm in CURVE_FIELDS for _ in range(CURVES_PER_FIELD)]
        return [_query(f"pt{i}", "point", "curve", p, m, int(rng.integers(1, p ** m)),
                       int(rng.integers(0, p ** m)))
                for i, (p, m) in enumerate(fields[j] for j in rng.permutation(len(fields)))]
    raise ValueError(f"unknown workload {workload!r}")


def plan(workload: str, seed: int, n_rounds: int) -> list[dict]:
    """A run's queries: the fixed bulk queries in a seeded order, spread evenly
    through ``n_rounds`` rounds of the seeded point set, each round in its own
    seeded order, so that every point query is timed ``n_rounds`` times spread
    over the whole run.  A point query keeps its index in the set as
    ``point``; its id also names the round."""
    rng = np.random.default_rng(seed)
    points = _points(workload, rng)
    bulk = _bulk(workload)
    bulk = [bulk[i] for i in rng.permutation(len(bulk))]
    pts = [dict(points[i], point=int(i), id=f"{r}:{points[i]['id']}")
           for r in range(n_rounds) for i in rng.permutation(len(points))]
    step = len(pts) / len(bulk)
    keyed = [((j + 0.5) * step, q) for j, q in enumerate(bulk)]
    keyed += [(i + 0.5, q) for i, q in enumerate(pts)]
    return [q for _, q in sorted(keyed, key=lambda kq: kq[0])]


# -- queries ------------------------------------------------------------------------

def _items(weights: dict) -> list[list[int]]:
    return [[int(w), int(a)] for w, a in sorted(weights.items())]


def op_brute(p, s, m, l, variant):
    ctx, q = gf.get_field(p, s * m), p ** s
    fam = FamilySpec(p, s, m, (l,))
    if variant in ("base", "0"):
        pred = spectra.predict_monomial(q, m, l, variant)
        res = spectra.brute_spectrum(ctx, CodeSpec(fam, variant, shortened=True))
    else:
        # two fork workers for the beta variants at q >= 5, as acceptance criterion 3 runs them
        pred = spectra.predict_monomial_long(q, m, l, variant)
        res = spectra.brute_spectrum(ctx, CodeSpec(fam, variant), workers=2 if q >= 5 else 1)
    ok = (pred.spectrum.weights == res.spectrum.weights
          and pred.params.as_list() == res.params.as_list() and res.injective)
    return {"params": res.params.as_list(), "spectrum": _items(res.spectrum.weights),
            "distinct": res.distinct_words}, ok


def op_cwe(p, s, m, l):
    ctx, q = gf.get_field(p, s * m), p ** s
    spec = CodeSpec(FamilySpec(p, s, m, (l,)), "base", shortened=True)
    res = spectra.cwe(ctx, spec, klapper.rank_distribution_monomial(q, m, l))
    ok = res.brute_match is True and res.balanced_verified is True
    return {"n": res.n, "terms": [[t.coeff, t.z0_exp, t.zrest_exp] for t in res.terms]}, ok


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _spectrum_argv(p, s, m, family, variant, method):
    return ["spectrum", "--p", p, "--s", s, "--m", m, "--family", family,
            "--variant", variant, "--method", method]


def op_cli_both(p, s, m, l, variant):
    rc, out = _cli(_spectrum_argv(p, s, m, f"mono:{l}", variant, "both"))
    return {"rc": rc, "out": out}, rc == 0 and json.loads(out)["match"] is True


# dimension of each full-length code the CLI predicts, by family kind and variant
_DIMS = {"mono": {"1": (2, 0), "2": (2, 1)},
         "l3l": {"base": (2, 0), "0": (2, 1), "1": (3, 0), "2": (3, 1)}}


def op_cli_predict(p, s, m, family, variant):
    """A closed-form spectrum, checked by the Pless power moments of a q-ary [n, k] code.

    With no all-zero coordinate, sum A_w = q^k and sum w A_w = q^{k-1}(q-1)n.
    The beta variants contain the simplex code, so their duals have distance
    at least 3 and the second moment sum w^2 A_w = q^{k-2}(q-1)n((q-1)n+1)
    holds too.
    """
    rc, out = _cli(_spectrum_argv(p, s, m, family, variant, "predict"))
    ok = rc == 0
    if ok:
        q, n = p ** s, p ** (s * m) - 1
        per_m, extra = _DIMS[family.partition(":")[0]][variant]
        k = per_m * m + extra
        code = json.loads(out)
        rows = [(row["w"], row["A"]) for row in code["spectrum"]]
        ok = (code["code"]["n"] == n and code["code"]["k"] == k
              and sum(a for _, a in rows) == q ** k
              and sum(w * a for w, a in rows) == q ** (k - 1) * (q - 1) * n)
        if variant in ("1", "2"):
            ok &= sum(w * w * a for w, a in rows) == q ** (k - 2) * (q - 1) * n * ((q - 1) * n + 1)
    return {"rc": rc, "out": out}, ok


def op_tally(p, m, l):
    ctx = gf.get_field(p, m)
    tally = klapper.tally_l3l_ranks(ctx, l, workers=1)
    fs = klapper.l3l_constants(p, m, l)
    d = gcd(m, l)
    expected = {m - 2 * j * d: fs[j] for j in range(4)} | {0: 1}
    return {"tally": _items(tally)}, tally == expected


def op_pair(g1, g2, draws):
    p, m, l = L3L
    ctx = gf.get_field(p, m)
    fast = klapper.l3l_pair_profile_fast(ctx, l, g1, g2)
    full = klapper.l3l_pair_profile(ctx, l, g1, g2)
    R = klapper.l3l_poly(ctx, l, g1, g2)
    spec = CodeSpec(FamilySpec(p, 1, m, (l, 3 * l)), "2")
    ok = (fast.rank, fast.type) == (full.rank, full.type)
    weights = []
    for beta, b in draws:
        w = int(np.count_nonzero(spectra.build_codeword(ctx, spec, R, beta, b)))
        classes = ("major",) if beta == 0 and b == 0 else quadform.BETA_CLASSES
        ok &= w in {spectra.weight_from_profile(p, m, full.rank, full.type, b == 0, c)
                    for c in classes}
        weights.append(w)
    return {"rank": full.rank, "type": full.type, "weights": weights}, ok


_SPECIAL_BRANCHES = ("residue", "t0", "thalf")


def op_scan(p, m, l):
    """A full beta sweep per gamma (it raises on any multiset mismatch), with
    the class sizes checked against the closed-form power-class counts."""
    ctx = gf.get_field(p, m)
    rep = curves.scan_monomial(ctx, l)
    M, M_comp = klapper.m_counts(p, m, l)
    ok = all(sum(s.point_tally.values()) == ctx.order for s in rep.scans)
    branches = {}
    for branch, scans in sorted(rep.by_branch().items()):
        ok &= len(scans) == (M if branch in _SPECIAL_BRANCHES else M_comp)
        tallies = sorted({json.dumps(sorted(s.point_tally.items())) for s in scans})
        branches[branch] = {"gammas": len(scans), "tallies": tallies,
                            "minimal": sorted({s.n_minimal for s in scans}),
                            "maximal": sorted({s.n_maximal for s in scans})}
    return branches, ok


def op_witness(p, m, l):
    wit = curves.l3l_optimal_witness(gf.get_field(p, m), l)
    rep = wit.report
    ok = wit.found and wit.solution_count == rep.points and rep.points in (rep.hw_lo, rep.hw_hi)
    return {"gammas": [wit.gamma1, wit.gamma2], "beta": wit.beta, "points": rep.points,
            "status": rep.status, "pairs_checked": wit.pairs_checked}, ok


def op_sumdist(p, s, m, l):
    """Sum and count distributions of one form per classification branch vs the closed forms."""
    ctx, q = gf.get_field(p, s * m), p ** s
    reps: dict[str, int] = {}
    for g in ctx.exp[: ctx.mult_order]:
        branch = klapper.classify_monomial(ctx, s, m, int(g), l).branch
        reps.setdefault(branch, int(g))
    ok, out = True, {}
    for branch, g in sorted(reps.items()):
        Q = quadform.QuadForm(ctx, s, m, LinearizedPoly((l,), (g,), s))
        rep = quadform.verify_sum_distribution(Q)
        counts_ok = all(quadform.n_distribution(Q, xi) == quadform.expected_count_distribution(
            q, m, rep.rank, rep.type, xi_is_zero=(xi == 0)) for xi in range(q))
        ok &= rep.ok and counts_ok
        out[branch] = {"gamma": g, "rank": rep.rank, "type": rep.type}
    return out, ok


def op_curve(p, m, gamma, beta):
    spec = curves.CurveSpec(gf.get_field(p, m), LinearizedPoly((1,), (gamma,), 1), beta)
    rep = curves.optimality_status(spec)
    recount = curves.count_points_by_solutions(spec)
    return {"points": rep.points, "status": rep.status, "genus": rep.genus}, recount == rep.points


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def run(queries: list[dict], tracer=None) -> list[dict]:
    """Run queries one after another; a raised query or a failed check is recorded, never fatal.

    Before each bulk query, heap memory freed earlier is handed back to the
    OS.  Fork-pool children inherit the parent's resident pages, so without
    this their peak RSS would depend on the seeded order of the queries
    that ran before the fork.
    """
    records = []
    for q in queries:
        if q["kind"] == "bulk" and _malloc_trim is not None:
            _malloc_trim(0)
        if tracer is not None:
            tracer.query = q["id"]
        start = perf_counter()
        try:
            result, ok = OPS[q["op"]](*q["args"])
        except Exception as exc:  # a failed query is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            result, ok = {"error": f"{type(exc).__name__}: {exc}"}, False
        records.append({"id": q["id"], "kind": q["kind"], "point": q.get("point"),
                        "ok": bool(ok), "seconds": perf_counter() - start, "result": result})
    if tracer is not None:
        tracer.query = None
    return records


def canonical(records: list[dict]) -> bytes:
    """The query results without timings, as stable bytes."""
    return json.dumps([{"id": r["id"], "ok": r["ok"], "result": r["result"]} for r in records],
                      sort_keys=True, separators=(",", ":")).encode()
