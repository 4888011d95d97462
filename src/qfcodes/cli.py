"""Command line surface: spectrum / cwe / curves / verify.

Exit codes: 0 ok, 1 usage or hypothesis error, 2 verification mismatch,
3 work budget exceeded.  JSON output is canonical (sorted keys, no
timestamps), so identical configurations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import curves, klapper, spectra, verify
from .gf import FieldCtx, FieldError, get_field
from .klapper import HypothesisError
from .linpoly import FamilySpec, LinearizedPoly
from .quadform import tally_profiles
from .spectra import BudgetError, CodeSpec, DEFAULT_BUDGET

EXIT_OK, EXIT_USAGE, EXIT_MISMATCH, EXIT_BUDGET = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; the CLI reserves 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _workers(text: str) -> int:
    """--workers value: at least 1, and otherwise ignored: no command starts a process."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _budget(text: str) -> int:
    """--budget and --pair-budget value: an integer, at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _parse_family(text: str) -> tuple[str, list[int]]:
    kind, _, rest = text.partition(":")
    if kind not in ("mono", "l3l", "span") or not rest:
        raise FieldError(f"family must look like mono:1, l3l:1 or span:1,2 (got {text!r})")
    return kind, [int(v) for v in rest.split(",")]


def _parse_element(ctx: FieldCtx, text: str) -> int:
    """Field element given as an integer index or as a^K."""
    if text.startswith("a^"):
        return ctx.alpha_pow(int(text[2:]))
    v = int(text)
    if not 0 <= v < ctx.order:
        raise FieldError(f"element index {v} out of range")
    return v


def _field_block(ctx: FieldCtx, s: int, m: int) -> dict:
    return {"p": ctx.p, "s": s, "m": m,
            "modulus": [int(c) for c in ctx.modulus],
            "alpha": ctx.element_digits(ctx.alpha)}


def _emit(payload: dict, fmt: str, out_path: str | None, spectrum_items=None):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        rows = spectrum_items if spectrum_items is not None else []
        text = "weight,frequency\n" + "".join(f"{w},{a}\n" for w, a in rows)
    else:
        lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(payload.items())]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family_and_ctx(args) -> tuple[str, list[int], FieldCtx, FamilySpec]:
    kind, ells = _parse_family(args.family)
    ctx = get_field(args.p, args.s * args.m)
    if kind == "mono":
        if len(ells) != 1:
            raise FieldError("mono takes a single exponent")
        fam = FamilySpec(args.p, args.s, args.m, (ells[0],))
    elif kind == "l3l":
        if len(ells) != 1:
            raise FieldError("l3l takes a single exponent")
        if args.s != 1:
            raise HypothesisError("the two-monomial family is defined over prime base fields")
        fam = FamilySpec(args.p, 1, args.m, (ells[0], 3 * ells[0]))
    else:
        fam = FamilySpec(args.p, args.s, args.m, tuple(sorted(ells)))
    return kind, ells, ctx, fam


def _measured_distribution(ctx, fam: FamilySpec, budget: int) -> klapper.RankDistribution:
    """Rank distribution of an arbitrary family by exhaustive classification.

    quadform.tally_profiles covers every coefficient row; a rank-0 form other
    than R = 0 raises HypothesisError, an odd-rank one RankError.
    """
    n_forms = ctx.order ** len(fam.exponents)
    if n_forms * (fam.m ** 3) > budget:
        raise BudgetError(f"{n_forms} forms exceed the classification budget")
    tally = tally_profiles(ctx, fam)
    if tally.pop((0, None)) != 1:
        raise HypothesisError("family is not an even-rank family (rank 0)")
    return klapper.RankDistribution(q=fam.q, m=fam.m,
                                    counts=tuple((r, e, c) for (r, e), c in tally.items()))


def _predicted(kind, args, fam) -> spectra.MonomialPrediction:
    q = args.p ** args.s
    if kind == "mono":
        if args.variant in ("base", "0"):
            return spectra.predict_monomial(q, args.m, fam.exponents[0], args.variant)
        return spectra.predict_monomial_long(q, args.m, fam.exponents[0], args.variant)
    if kind == "l3l":
        return spectra.predict_l3l(args.p, args.m, fam.exponents[0], args.variant)
    raise FieldError("span families have no closed-form prediction; use --method brute "
                     "or --method both")


def cmd_spectrum(args) -> int:
    kind, _, ctx, fam = _family_and_ctx(args)
    budget = args.budget
    shortened = kind == "mono" and args.variant in ("base", "0")
    spec = CodeSpec(fam, args.variant, shortened=shortened)

    predicted = None
    if args.method in ("predict", "both") and kind != "span":
        predicted = _predicted(kind, args, fam)
    brute = None
    if args.method in ("brute", "both"):
        if kind == "span" and args.method == "both":
            # the tally rejects a family that is not even-rank before brute force runs
            spectra.brute_size(ctx, spec, budget)
            dist = _measured_distribution(ctx, fam, budget)
            pred_spec = spectra.predict_general(fam.q, args.m, dist, args.variant)
            predicted = spectra.MonomialPrediction(
                params=spectra.CodeParams(pred_spec.n, pred_spec.dim(),
                                          pred_spec.min_distance()),
                spectrum=pred_spec, full_spectrum=pred_spec, D=1)
        brute = spectra.brute_spectrum(ctx, spec, budget=budget)
    if kind == "span" and args.method == "predict":
        raise FieldError("span families have no closed-form prediction")

    chosen = brute.spectrum if brute else predicted.spectrum
    params = brute.params if brute else predicted.params
    match = None
    if predicted is not None and brute is not None:
        match = (predicted.spectrum.weights == brute.spectrum.weights
                 and predicted.params.as_list() == brute.params.as_list())

    payload = {
        "field": _field_block(ctx, args.s, args.m),
        "code": {"family": args.family, "variant": args.variant,
                 "n": params.n, "k": params.k, "d": params.d},
        "spectrum": [{"w": int(w), "A": int(a)} for w, a in chosen.sorted_items()],
        "method": args.method,
        "match": match,
    }
    if predicted is not None and predicted.D > 1:
        payload["full_length"] = {
            "D": predicted.D,
            "spectrum": [{"w": int(w), "A": int(a)}
                         for w, a in predicted.full_spectrum.sorted_items()],
            "notes": list(predicted.notes),
        }
    if brute is not None:
        payload["distinct_words"] = brute.distinct_words
        payload["expected_words"] = brute.expected_words
    _emit(payload, args.format, args.out, spectrum_items=chosen.sorted_items())
    return EXIT_MISMATCH if match is False else EXIT_OK


def cmd_cwe(args) -> int:
    kind, _, ctx, fam = _family_and_ctx(args)
    q = fam.q
    if kind == "mono":
        dist = klapper.rank_distribution_monomial(q, args.m, fam.exponents[0])
        shortened = True
    elif kind == "l3l":
        dist = klapper.rank_distribution_l3l(args.p, args.m, fam.exponents[0])
        shortened = False
    else:
        dist = _measured_distribution(ctx, fam, args.budget)
        shortened = False
    spec = CodeSpec(fam, "base", shortened=shortened)
    budget = args.budget if args.method in ("brute", "both") else 0
    res = spectra.cwe(ctx, spec, dist, budget=budget)
    payload = {
        "field": _field_block(ctx, args.s, args.m),
        "code": {"family": args.family, "variant": "base", "n": res.n},
        "cwe": [{"coeff": t.coeff, "z0": t.z0_exp, "zrest": t.zrest_exp} for t in res.terms],
        "balanced_verified": res.balanced_verified,
        "match": res.brute_match,
    }
    _emit(payload, args.format, args.out)
    return EXIT_MISMATCH if res.brute_match is False else EXIT_OK


def cmd_curves(args) -> int:
    ctx = get_field(args.p, args.m)
    if args.witness:
        wit = curves.l3l_optimal_witness(ctx, args.ell, pair_budget=args.pair_budget)
        payload = {"field": _field_block(ctx, 1, args.m), "found": wit.found,
                   "pairs_checked": wit.pairs_checked}
        if wit.found:
            payload.update({
                "gamma1": ctx.element_digits(wit.gamma1), "gamma2": ctx.element_digits(wit.gamma2),
                "beta": ctx.element_digits(wit.beta),
                "points": wit.report.points, "genus": wit.report.genus,
                "hasse_weil": [wit.report.hw_lo, wit.report.hw_hi],
                "status": wit.report.status,
                "independent_recount": wit.solution_count,
            })
        _emit(payload, args.format, args.out)
        return EXIT_OK if wit.found else EXIT_MISMATCH
    if args.scan:
        report = curves.scan_monomial(ctx, args.ell)
        by_branch = {}
        for branch, scans in sorted(report.by_branch().items()):
            agg = {}
            for s in scans:
                key = json.dumps(sorted(s.point_tally.items()))
                agg.setdefault(key, 0)
                agg[key] += 1
            by_branch[branch] = {
                "gammas": len(scans),
                "point_tallies": [{"tally": json.loads(k), "gammas": v}
                                  for k, v in sorted(agg.items())],
                "minimal_betas": sorted({s.n_minimal for s in scans}),
                "maximal_betas": sorted({s.n_maximal for s in scans}),
            }
        payload = {"field": _field_block(ctx, 1, args.m), "ell": args.ell,
                   "classes": by_branch}
        _emit(payload, args.format, args.out)
        return EXIT_OK
    gamma = _parse_element(ctx, args.gamma)
    beta = _parse_element(ctx, args.beta)
    spec = curves.CurveSpec(ctx, LinearizedPoly((args.ell,), (gamma,), 1), beta)
    rep = curves.optimality_status(spec)
    payload = {"field": _field_block(ctx, 1, args.m),
               "curve": {"ell": args.ell, "gamma": ctx.element_digits(gamma),
                         "beta": ctx.element_digits(beta)},
               "points": rep.points, "genus": rep.genus,
               "hasse_weil": [rep.hw_lo, rep.hw_hi], "status": rep.status,
               "independent_recount": curves.count_points_by_solutions(spec)}
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results, payload = verify.run_all(budget=args.budget,
                                      log=lambda line: print(line, file=sys.stderr))
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload + b"\n")
    if any(not r.passed and r.mode != "skipped" for r in results):
        return EXIT_MISMATCH
    if any(r.mode == "skipped" for r in results):
        return EXIT_BUDGET
    return EXIT_OK


def _add_common(sp, budget):
    sp.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sp.add_argument("--s", type=int, default=1, help="q = p^s")
    sp.add_argument("--m", type=int, required=True, help="extension degree over F_q")
    sp.add_argument("--family", required=True, help="mono:L, l3l:L or span:L1,L2,..")
    sp.add_argument("--variant", default="base", choices=spectra.VARIANTS)
    sp.add_argument("--method", default="predict", choices=("predict", "brute", "both"))
    sp.add_argument("--budget", type=_budget, default=budget,
                    help="max symbol evaluations for brute work")
    sp.add_argument("--workers", type=_workers, default=1)
    sp.add_argument("--format", default="json", choices=("json", "csv", "text"))
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    """The CLI parser, built once per value of QFCODES_BUDGET (the --budget default)."""
    return _parser(os.environ.get("QFCODES_BUDGET"))


@functools.lru_cache(maxsize=8)
def _parser(budget_env: str | None) -> _Parser:
    budget = budget_env or DEFAULT_BUDGET  # argparse runs a string default through _budget
    ap = _Parser(prog="qfcodes",
                 description="weight distributions of trace-form cyclic codes "
                             "and their Artin-Schreier curves")
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spectrum", help="predict and/or enumerate a code spectrum")
    _add_common(sp, budget)
    sp = sub.add_parser("cwe", help="complete weight enumerator of a base code")
    _add_common(sp, budget)
    sp = sub.add_parser("curves", help="point counts, scans and optimal witnesses")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--gamma", default="a^0", help="element index or a^K")
    sp.add_argument("--beta", default="0")
    sp.add_argument("--scan", action="store_true", help="sweep all gamma classes")
    sp.add_argument("--witness", action="store_true",
                    help="search the two-monomial family for an optimal curve")
    sp.add_argument("--pair-budget", type=_budget, default=None)
    sp.add_argument("--budget", type=_budget, default=budget)
    sp.add_argument("--format", default="json", choices=("json", "csv", "text"))
    sp.add_argument("--out", default=None)
    sp = sub.add_parser("verify", help="run the full acceptance grid")
    sp.add_argument("--budget", type=_budget, default=budget)
    sp.add_argument("--workers", type=_workers, default=1)
    sp.add_argument("--json", default=None, help="write the report to a file")
    return ap


def main(argv=None) -> int:
    """Run one command; may be called any number of times in one process.

    The command function is looked up by name at each call, so a wrapper
    installed on ``cmd_<command>`` after the parser was built still runs.
    """
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FieldError, HypothesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except curves.CurveCountError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
