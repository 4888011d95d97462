"""The layers the traced run wraps, and the per-layer metrics derived from their spans.

A layer is one module of the package.  Every public function a module
defines is wrapped, together with the field methods the bulk sweeps and the
scalar eliminations run on.  ``verify`` is not a layer: it only orchestrates
the others.
"""

from __future__ import annotations

import inspect
from types import ModuleType

LAYERS = ("gf", "linpoly", "quadform", "klapper", "spectra", "curves", "cli")
FIELD_METHODS = ("add", "v_add", "v_mul", "symbols")
# Scalar field addition runs about 80,000 times in one traced l3l_tally run; it is
# tallied per query rather than recorded as one span per call.
LEAVES = frozenset({"gf.FieldCtx.add"})
# Metric prefixes that differ from the span name they read.
ALIASES = {"gf.symbols": "gf.FieldCtx.symbols"}


def modules() -> dict[str, ModuleType]:
    from qfcodes import cli, curves, gf, klapper, linpoly, quadform, spectra
    return {"gf": gf, "linpoly": linpoly, "quadform": quadform, "klapper": klapper,
            "spectra": spectra, "curves": curves, "cli": cli}


def targets(mods: dict[str, ModuleType]) -> list[tuple[str, object, str]]:
    out = []
    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)):
                out.append((f"{layer}.{attr}", mod, attr))
    gf = mods["gf"]
    out.append(("gf.get_field", gf, "get_field"))  # an lru_cache object, not a function
    out += [(f"gf.FieldCtx.{meth}", gf.FieldCtx, meth) for meth in FIELD_METHODS]
    return out


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _brute(args, kwargs, result, usage):
    workers = _arg(args, kwargs, 4, "workers", 1)
    parallel = workers > 1 and _arg(args, kwargs, 1, "spec", None).variant in ("1", "2")
    return {"symbols": result.expected_words * result.params.n,
            "words": result.expected_words, "distinct": result.distinct_words,
            "child_cpu_s": usage["child_cpu_s"], "pool_workers": workers if parallel else 0}


def _tally(args, kwargs, result, usage):
    return {"pairs": args[0].order ** 2, "rss_rise_mb": usage["rss_rise_mb"]}


def _witness(args, kwargs, result, usage):
    return {"pairs_checked": result.pairs_checked, "rss_rise_mb": usage["rss_rise_mb"]}


def _scan(args, kwargs, result, usage):
    return {"beta_rows": len(result.scans) * args[0].order}


def _cli(args, kwargs, result, usage):
    return {"exit": result}


ANNOTATE = {"spectra.brute_spectrum": _brute, "klapper.tally_l3l_ranks": _tally,
            "curves.l3l_optimal_witness": _witness, "curves.scan_monomial": _scan,
            "cli.main": _cli}


def _field_sum(agg, field):
    return sum(s.get(field, 0) for s in agg["spans"])


def _ratio(num, den):
    return num / den if den else 0.0


def _pool_efficiency(agg):
    busy = sum(s["pool_workers"] * (s["end"] - s["start"])
               for s in agg["spans"] if s.get("pool_workers"))
    return _ratio(_field_sum(agg, "child_cpu_s"), busy)


# stat -> how it is read from one name's totals (see Tracer.totals)
STATS = {
    "calls": lambda a: a["calls"],
    "s": lambda a: a["total_s"],
    "self_s": lambda a: a["self_s"],
    "pairs_per_s": lambda a: _ratio(_field_sum(a, "pairs"), a["total_s"]),
    "rss_rise_mb": lambda a: max((s.get("rss_rise_mb", 0.0) for s in a["spans"]), default=0.0),
    "symbols_per_s": lambda a: _ratio(_field_sum(a, "symbols"), a["total_s"]),
    "words_per_distinct": lambda a: _ratio(_field_sum(a, "words"), _field_sum(a, "distinct")),
    "child_cpu_s": lambda a: _field_sum(a, "child_cpu_s"),
    "pool_efficiency": _pool_efficiency,
    "beta_rows_per_s": lambda a: _ratio(_field_sum(a, "beta_rows"), a["total_s"]),
    "pairs_checked": lambda a: _field_sum(a, "pairs_checked"),
    "nonzero_exit": lambda a: sum(1 for s in a["spans"] if s.get("exit")),
}

EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "spans": []}


def metric(totals: dict[str, dict], name: str):
    """Value of a ``<module>.<function>.<stat>`` metric; 0 when the function never ran.

    ``<module>.self_s`` is the layer's busy time: the self time of every
    wrapped function the module defines.
    """
    prefix, _, stat = name.rpartition(".")
    if prefix in LAYERS:
        return sum(agg[stat] for span_name, agg in totals.items()
                   if span_name.startswith(prefix + "."))
    return STATS[stat](totals.get(ALIASES.get(prefix, prefix), EMPTY))
