import argparse
import collections
import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qfcodes import cli, curves, quadform, spectra, verify
from qfcodes.gf import get_field
from qfcodes.linpoly import LinearizedPoly
from qfcodes.quadform import QuadForm


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_both_matches(capsys):
    code, out, _ = run(["spectrum", "--p", "2", "--m", "8", "--family", "mono:1",
                        "--variant", "base", "--method", "both"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["code"] == {"family": "mono:1", "variant": "base",
                               "n": 85, "k": 8, "d": 40}
    assert payload["match"] is True
    assert payload["spectrum"] == [{"A": 1, "w": 0}, {"A": 170, "w": 40}, {"A": 85, "w": 48}]
    assert payload["full_length"]["D"] == 3
    assert {"A": 170, "w": 120} in payload["full_length"]["spectrum"]
    assert payload["field"]["modulus"][-1] == 1


@pytest.mark.parametrize("p,s,m,ell,variant", [(2, 1, 8, 1, "1"), (3, 1, 4, 1, "2"),
                                                (2, 2, 4, 1, "2")])
def test_spectrum_full_length_long_mono(capsys, p, s, m, ell, variant):
    # mono variants 1/2 are full length already: the block repeats the main
    # spectrum with D = q^{(m,l)} + 1 and no notes
    code, out, _ = run(["spectrum", "--p", str(p), "--s", str(s), "--m", str(m),
                        "--family", f"mono:{ell}", "--variant", variant], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["full_length"] == {"D": (p ** s) ** math.gcd(m, ell) + 1,
                                      "spectrum": payload["spectrum"], "notes": []}


def test_spectrum_deterministic_output(capsys):
    argv = ["spectrum", "--p", "3", "--m", "4", "--family", "mono:1",
            "--variant", "1", "--method", "both"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_spectrum_csv(capsys):
    code, out, _ = run(["spectrum", "--p", "2", "--m", "4", "--family", "mono:1",
                        "--variant", "base", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["weight,frequency", "0,1", "2,10", "4,5"]


@pytest.mark.parametrize("argv", [
    "cwe --p 2 --m 4 --family mono:1",
    "curves --p 2 --m 4 --ell 1",
    "curves --p 2 --m 4 --ell 1 --scan",
], ids=["cwe", "curves", "curves-scan"])
def test_csv_is_offered_by_spectrum_only(capsys, argv):
    # only spectrum has a weight table; elsewhere csv is a usage error, not a bare header
    code, out, err = run([*argv.split(), "--format", "csv"], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("usage:") and "[--format {json,text}]" in err
    assert f"qfcodes {argv.split()[0]}: error: argument --format: invalid choice: 'csv'" in err


def test_span_predict_rejected_before_any_work(capsys, monkeypatch):
    # span families have no closed form: refused once, before prediction or brute force
    def fail(*args, **kwargs):
        raise AssertionError("no prediction or brute work may run")

    for name in ("predict_monomial", "predict_monomial_long", "predict_l3l",
                 "predict_general", "brute_size", "brute_spectrum"):
        monkeypatch.setattr(cli.spectra, name, fail)
    monkeypatch.setattr(cli, "tally_profiles", fail)
    code, out, err = run(["spectrum", "--p", "2", "--m", "4", "--family", "span:1,3",
                          "--method", "predict"], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: span families have no closed-form prediction")
    assert "--method brute or --method both" in err


def test_hypothesis_violation_exit_1(capsys):
    code, _, err = run(["spectrum", "--p", "2", "--m", "5", "--family", "mono:1"], capsys)
    assert code == 1
    assert "must be even" in err


def test_usage_error_exit_1(capsys):
    assert cli.main(["spectrum", "--m", "8"]) == 1


def test_budget_exit_3(capsys):
    code, _, err = run(["spectrum", "--p", "2", "--m", "8", "--family", "mono:1",
                        "--variant", "2", "--method", "brute", "--budget", "10"], capsys)
    assert code == 3
    assert "budget" in err


def test_l3l_predict(capsys):
    code, out, _ = run(["spectrum", "--p", "3", "--m", "8", "--family", "l3l:1",
                        "--variant", "0", "--method", "predict"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["code"]["k"] == 17
    assert payload["code"]["d"] == 3644
    assert payload["match"] is None


def test_mismatch_exit_2(capsys, monkeypatch):
    real = spectra.predict_monomial

    def perturbed(q, m, ell, variant):
        pred = real(q, m, ell, variant)
        weights = dict(pred.spectrum.weights)
        weights[40] = weights.get(40, 0) + 1  # one injected table-row error
        broken = spectra.Spectrum(n=pred.spectrum.n, q=pred.spectrum.q, weights=weights)
        return dataclasses.replace(pred, spectrum=broken)

    monkeypatch.setattr(cli.spectra, "predict_monomial", perturbed)
    code, _, _ = run(["spectrum", "--p", "2", "--m", "8", "--family", "mono:1",
                      "--variant", "base", "--method", "both"], capsys)
    assert code == 2


def test_spectrum_brute_non_injective_span(capsys):
    code, out, _ = run(["spectrum", "--p", "2", "--s", "1", "--m", "4", "--family", "span:1,3",
                        "--variant", "base", "--method", "brute"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct_words"] == 16
    assert payload["expected_words"] == 256


@pytest.mark.parametrize("p,m,family", [
    (2, 4, "span:1,3"), (3, 4, "span:1,3"), (3, 4, "span:1,5"), (2, 6, "span:1,5"),
    (2, 6, "span:2,4"),
], ids=["2-4-span13", "3-4-span13", "3-4-span15", "2-6-span15", "2-6-span24"])
def test_spectrum_brute_non_injective_counts_words(capsys, p, m, family):
    # tr(b x^{q^{m-l}+1}) = tr(b' x^{q^l+1}), so these spans hit each word A_0 > 1 times;
    # the spectrum is the code's own, of dimension m
    code, out, _ = run(["spectrum", "--p", str(p), "--m", str(m), "--family", family,
                        "--variant", "base", "--method", "brute"], capsys)
    assert code == 0
    payload = json.loads(out)
    A = {t["w"]: t["A"] for t in payload["spectrum"]}
    assert payload["code"]["k"] == m
    assert A[0] == 1
    assert sum(A.values()) == p ** m == payload["distinct_words"]
    assert payload["expected_words"] == p ** (2 * m)


def pinned(out):
    """(byte length, sha256) of a command's stdout."""
    return len(out.encode()), hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("variant,k,d,size,sha", [
    pytest.param("base", 16, 96, 331,
                 "245480d441b81dc46b5957c04beda3efacf3833d39fadb2a5c6138cc8090ed0d",
                 id="base-16-96"),
    pytest.param("0", 17, 63, 421,
                 "baf0eaf9fb7e7b33896cdd1e808c14e574adcb43c2e6dcdb9464c1c2fd886780",
                 id="0-17-63"),
    pytest.param("1", 24, 64, 440,
                 "108e3fffd01242546a7b64031cde5140844d5feea9bc9410eb9bb52f3044d26c",
                 id="1-24-64"),
])
def test_spectrum_measured_span_matches_brute(capsys, variant, k, d, size, sha):
    # predict_general on a measured (rank, type) distribution, against brute force;
    # the stdout bytes are pinned
    code, out, _ = run(["spectrum", "--p", "2", "--m", "8", "--family", "span:1,3",
                        "--variant", variant, "--method", "both"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert (payload["code"]["k"], payload["code"]["d"]) == (k, d)
    assert pinned(out) == (size, sha)


@pytest.mark.parametrize("argv,size,sha", [
    (["--p", "2", "--m", "8", "--family", "span:1,3", "--method", "both"], 359,
     "0fc36a8040418286ffde8b422a62b73fe5fafa21d69b3619b656e88eec5c6c8a"),
    (["--p", "3", "--m", "6", "--family", "span:0,2", "--method", "predict"], 428,
     "8b9e42d963b3a7982a99d0b65b3066dffb1dca518f5c254fc3a5b39c5db9eb85"),
], ids=["2-8-span13-both", "3-6-span02-predict"])
def test_cwe_measured_span_bytes_pinned(capsys, argv, size, sha):
    code, out, _ = run(["cwe", *argv], capsys)
    assert code == 0
    assert pinned(out) == (size, sha)


@pytest.mark.parametrize("cmd,m,family,size,sha", [
    ("spectrum", 8, "span:1,7", 289,
     "e1831613a7ee7d95d3f9d7baf69b1b15f2437347e4f996e3a547e9fbdf9fc13f"),
    ("cwe", 8, "span:1,7", 286, "222a96f5bb47a06605cb8debb703a520f342f7869024ca076fcbb16921b71d0a"),
    ("spectrum", 4, "span:1,3,5", 265,
     "857e4c14179a5bf5f36021adb25caa369baf037f0fbcb5c60e226c7c15717950"),
    ("cwe", 4, "span:1,3,5", 261, "51e0c5ce77af3b4396ae427c0ab58c06f25061dcf7b0919c43527a5103595f83"),
], ids=["spectrum-2-8-span17", "cwe-2-8-span17", "spectrum-2-4-span135", "cwe-2-4-span135"])
def test_measured_span_tallies_the_reduced_family(capsys, monkeypatch, cmd, m, family, size, sha):
    # x^{2^{m-l}+1} is a Frobenius power of x^{2^l+1}, and 5 = 1 mod 4, so only
    # exponent 1 is tallied: 2^m rows, not 2^m per exponent given; the stdout bytes
    # are pinned to those of the tally over every coefficient row
    real = cli.tally_profiles
    rows = []

    def spy(ctx, fam, count=True):
        rows.append(ctx.order ** len(fam.exponents))
        return real(ctx, fam, count)

    monkeypatch.setattr(cli, "tally_profiles", spy)
    code, out, _ = run([cmd, "--p", "2", "--m", str(m), "--family", family, "--method", "both"],
                       capsys)
    assert code == cli.EXIT_OK
    assert rows == [2 ** m]
    assert pinned(out) == (size, sha)


@pytest.mark.parametrize("p,m,family,message", [
    (2, 4, "span:0,1", "even rank only, got 1"),
    (3, 4, "span:0,1", "even rank only, got 3"),
    (2, 6, "span:2,4", "even rank only, got 5"),
    (2, 6, "span:2", "even rank only, got 5"),
], ids=["2-span01-odd", "3-span01-odd", "2-6-span24-odd", "2-6-span2-odd"])
def test_spectrum_measured_span_not_even_rank_exit_1(capsys, p, m, family, message):
    code, out, err = run(["spectrum", "--p", str(p), "--m", str(m), "--family", family,
                          "--method", "both"], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("p,m,family,k", [
    (2, 4, "span:1,3", 4), (3, 4, "span:1,3", 4), (3, 4, "span:1,5", 4),
    (2, 6, "span:1,5", 6), (3, 4, "span:0,2", 6),
], ids=["2-4-span13", "3-4-span13", "3-4-span15", "2-6-span15", "3-4-span02"])
def test_spectrum_measured_span_divides_by_a0(capsys, p, m, family, k):
    # A_0 > 1 coefficient rows give the zero form; the measured distribution and the
    # brute spectrum both count codewords, so they agree in every variant and in cwe
    argv = ["--p", str(p), "--m", str(m), "--family", family, "--method", "both"]
    for variant, dim in zip(spectra.VARIANTS, (k, k + 1, k + m, k + m + 1)):
        code, out, err = run(["spectrum", *argv, "--variant", variant], capsys)
        assert code == cli.EXIT_OK, (variant, err)
        payload = json.loads(out)
        assert payload["match"] is True and payload["code"]["k"] == dim, variant
        assert payload["distinct_words"] == p ** dim
        assert payload["spectrum"][0] == {"w": 0, "A": 1}
    code, out, _ = run(["cwe", *argv], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["match"] is True and payload["balanced_verified"] is True
    assert sum(t["coeff"] for t in payload["cwe"]) == p ** k


@pytest.mark.parametrize("argv,message", [
    ("curves --p 3 --m 4 --ell -1", "q-exponents must be >= 0"),
    ("curves --p 3 --m 4 --ell -1 --scan", "l must be >= 1"),
    ("curves --p 3 --m 8 --ell 0 --scan", "l must be >= 1"),
    ("curves --p 3 --m 8 --ell -1 --witness", "l must be >= 1"),
    ("curves --p 3 --m 8 --ell 0 --witness", "l must be >= 1"),
    ("spectrum --p 3 --m 4 --family span:-1,1 --method brute", "exponents must be >= 0"),
    ("cwe --p 3 --m 4 --family span:0,-2", "exponents must be >= 0"),
    ("spectrum --p 3 --m 4 --family l3l:-1", "exponents must be >= 0"),
], ids=["curves", "curves-scan", "curves-scan-0", "curves-witness", "curves-witness-0",
        "spectrum-span", "cwe-span", "spectrum-l3l"])
def test_negative_exponent_exit_1(capsys, argv, message):
    # a clean error, not an uncaught IndexError, TypeError or ZeroDivisionError deep in
    # the kernels; the scan and the witness search also refuse l = 0, while a single
    # curve at l = 0, y^p - y = gamma x^2 + beta x, is a result for odd p
    code, out, err = run(argv.split(), capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "cwe --p 3 --s -1 --m -1 --family span:1 --method both",
    "spectrum --p 3 --s -1 --m -1 --family mono:1",
    "spectrum --p 3 --s -1 --m -1 --family span:1 --method brute",
    "spectrum --p 2 --s -2 --m -2 --family span:1 --method both",
], ids=["cwe-span", "spectrum-mono", "spectrum-span-brute", "spectrum-span-both"])
def test_nonpositive_s_or_m_exit_1(capsys, argv):
    # s m >= 1 builds a field, so the family itself must refuse s < 1 or m < 1
    code, out, err = run(argv.split(), capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: s and m must be >= 1") and "Traceback" not in err


@pytest.mark.parametrize("variant", ["1", "2"])
def test_beta_brute_past_the_kernel_cap_exit_1(capsys, monkeypatch, variant):
    # a (2,1,4) kernel table holds 32 cells: under a cap of 31 the beta brute is
    # refused with an error line, not a traceback, and the prediction alone still runs
    monkeypatch.setattr(quadform, "HISTOGRAM_CELLS", 31)
    argv = ["spectrum", "--p", "2", "--m", "4", "--family", "mono:1", "--variant", variant]
    code, out, err = run([*argv, "--method", "both"], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and "exceed 31" in err and "Traceback" not in err
    assert run([*argv, "--method", "predict"], capsys)[0] == cli.EXIT_OK


def test_spectrum_span_not_even_rank_exits_before_brute(capsys):
    # the tally rejects the odd-rank family before the 5^8-form brute enumeration runs
    argv = ["spectrum", "--p", "5", "--m", "4", "--family", "span:0,1", "--method", "both"]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE and out == ""
    assert "even rank only, got 3" in err
    # an over-budget brute run is still refused first, with exit 3
    code, out, err = run([*argv, "--budget", "1000"], capsys)
    assert code == cli.EXIT_BUDGET and out == "" and "exceeds budget" in err


def test_measured_span_budget_exit_3(capsys):
    argv = ["--p", "2", "--m", "8", "--family", "span:1,3"]
    code, _, err = run(["spectrum", *argv, "--variant", "2", "--method", "both"], capsys)
    assert code == cli.EXIT_BUDGET and "exceeds budget" in err
    # the classification budget counts n_forms m^3
    code, _, err = run(["cwe", *argv, "--budget", str(65536 * 8 ** 3 - 1)], capsys)
    assert code == cli.EXIT_BUDGET and "classification budget" in err


def test_cwe_command(capsys):
    code, out, _ = run(["cwe", "--p", "2", "--m", "4", "--family", "mono:1",
                        "--method", "both"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["cwe"][0] == {"coeff": 1, "z0": 5, "zrest": 0}


def test_curves_single(capsys):
    code, out, _ = run(["curves", "--p", "2", "--m", "4", "--ell", "1",
                        "--gamma", "a^0", "--beta", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 9 and payload["status"] == "minimal"
    assert payload["independent_recount"] == 9


def test_curves_odd_rank_interior_exit_0(capsys):
    # m/(m,l) = 3 is odd, so the form has rank 5; the count is interior and
    # no type is needed
    code, out, _ = run(["curves", "--p", "2", "--m", "6", "--ell", "2", "--gamma", "a^0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "interior"
    assert payload["points"] == payload["independent_recount"] == 65


def test_curves_past_symbol_table_bound_exit_1():
    # F_16411 has a 16411 x 16411 symbol addition table: the command must refuse
    # it before allocating, so it fails cleanly under a 512 MiB address-space cap
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "qfcodes.cli", "curves", "--p", "16411",
                           "--m", "1", "--ell", "1"], env=env, capture_output=True, text=True,
                          preexec_fn=cap, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "symbol table" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_curves_even_degree_is_a_genus_error_exit_1(capsys):
    # p = 2, l = 0: xR(x) + beta x has even degree, so the genus bounds do not
    # apply; a count outside them is a hypothesis error, not a mismatch
    argvs = [["curves", "--p", "2", "--m", str(m), "--ell", "0",
              "--gamma", str(gamma), "--beta", str(beta)]
             for m in (2, 4) for gamma in range(1, 2 ** m) for beta in range(2 ** m)]
    assert len(argvs) == 252
    for argv in argvs:
        code, out, err = run(argv, capsys)
        assert (code, out) == (cli.EXIT_USAGE, ""), argv
        assert err.startswith("error:") and "prime to p" in err, argv


# endpoint betas taken per gamma and endpoint, first in element order
ENDPOINT_BETAS = 3


def _single_curve_argvs():
    """curves argvs over p in {2, 3, 5, 7}, m <= 6, 0 <= l <= m: gamma in {1, a, a^{N-1}},
    beta in {0, 1, a, a^{N-1}} and the first betas at each Hasse-Weil endpoint."""
    for p in (2, 3, 5, 7):
        for m in range(1, 7):
            ctx = get_field(p, m)
            last = ctx.alpha_pow(ctx.mult_order - 1)
            for ell in range(m + 1):
                for gamma in sorted({1, ctx.alpha, last}):
                    R = LinearizedPoly((ell,), (gamma,), 1)
                    betas = {0, 1, ctx.alpha, last}
                    if m % 2 == 0 and not (p == 2 and ell == 0):
                        # points over every beta from the sweep route, not the recount
                        points = 1 + p * QuadForm(ctx, 1, m, R).histogram[:, 0]
                        for end in curves.hasse_weil(curves.CurveSpec(ctx, R, 0)):
                            betas.update(np.flatnonzero(points == end)[:ENDPOINT_BETAS].tolist())
                    for beta in sorted(betas):
                        yield ["curves", "--p", str(p), "--m", str(m), "--ell", str(ell),
                               "--gamma", str(gamma), "--beta", str(beta)]


@pytest.mark.slow
def test_single_curve_exit_codes_and_recount(capsys):
    # a single curve is a result (0) or a hypothesis error (1), never a
    # mismatch (2): exactly odd m and (p, l) = (2, 0) are out of scope.  Every
    # result's (x, y) recount equals its trace count
    codes = {}
    for argv in _single_curve_argvs():
        code, out, err = run(argv, capsys)
        codes[code] = codes.get(code, 0) + 1
        p, m, ell = (int(argv[i]) for i in (2, 4, 6))
        if m % 2 or (p, ell) == (2, 0):
            assert (code, out) == (cli.EXIT_USAGE, ""), argv
            assert err.startswith("error:") and ("even extension" in err or "prime to p" in err)
        else:
            assert code == cli.EXIT_OK, (argv, err)
            payload = json.loads(out)
            assert payload["independent_recount"] == payload["points"], argv
    assert codes == {cli.EXIT_OK: 722, cli.EXIT_USAGE: 580}


def test_curves_scan(capsys):
    code, out, _ = run(["curves", "--p", "2", "--m", "4", "--ell", "1", "--scan"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["residue"]["minimal_betas"] == [1]
    assert payload["classes"]["residue"]["maximal_betas"] == [3]


@pytest.mark.parametrize("p,m,size,sha", [
    (3, 4, 337, "c128535257cda1631894dfb3fb8ebcc31b7526e32084a7ab8886686b2d9081fc"),
    (5, 4, 348, "7f5f6cff07dbe5c80d520e85373ec627c4492a5bb7fe36502175fca18bebe30e"),
    (3, 6, 361, "17ed5fb31475040a4f78f4750ee04d937e73146c02df9bf56098108bcb86b198"),
    (2, 8, 373, "7b9607c43bcc90306be2ea6b9366faee56e9ae5b85e8bf6d73d0cb3c832769de"),
    (7, 2, 320, "0b10f60e74ac5bce29da6d2246f38d31560d2f9a1cd032784d856af282f3cf5d"),
], ids=["3-4", "5-4", "3-6", "2-8", "7-2"])
def test_curves_scan_bytes_pinned(capsys, p, m, size, sha):
    code, out, _ = run(["curves", "--p", str(p), "--m", str(m), "--ell", "1", "--scan"], capsys)
    assert code == 0
    assert pinned(out) == (size, sha)


@pytest.mark.parametrize("p,m,ell", [
    (3, 4, 1), (5, 4, 1), (3, 6, 1), (2, 8, 1), (7, 2, 1), (3, 2, 1), (2, 4, 1), (3, 4, 2),
    (2, 6, 1), (5, 2, 3), pytest.param(43, 2, 1, marks=pytest.mark.slow),
], ids=lambda v: str(v))
def test_curves_scan_classes_equal_the_per_gamma_scan(capsys, p, m, ell):
    # the CLI sweeps one gamma per class alpha^k, k mod p^{(m,l)}+1, and weighs it by
    # M; the library's default sweeps every gamma on its own
    code, out, _ = run(["curves", "--p", str(p), "--m", str(m), "--ell", str(ell), "--scan"],
                       capsys)
    assert code == cli.EXIT_OK
    want = {}
    for branch, scans in curves.scan_monomial(get_field(p, m), ell).by_branch().items():
        tallies = collections.Counter(tuple(s.point_tally.items()) for s in scans)
        want[branch] = {"gammas": len(scans),
                        "point_tallies": [{"tally": [list(kv) for kv in k], "gammas": v}
                                          for k, v in sorted(tallies.items())],
                        "minimal_betas": sorted({s.n_minimal for s in scans}),
                        "maximal_betas": sorted({s.n_maximal for s in scans})}
    assert json.loads(out)["classes"] == want


@pytest.mark.slow
def test_curves_scan_reaches_3_12(capsys):
    # 3^12 - 1 gammas, past any per-gamma sweep; the 4 representatives take about 2 s
    code, out, _ = run(["curves", "--p", "3", "--m", "12", "--ell", "1", "--scan"], capsys)
    assert code == cli.EXIT_OK
    classes = json.loads(out)["classes"]
    assert sum(c["gammas"] for c in classes.values()) == 3 ** 12 - 1


def test_verify_exit_codes(capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True), verify.CriterionResult(2, "y", False)]

    def fake_run_all(budget, log):
        return fake, verify.report_json(fake)

    monkeypatch.setattr(cli.verify, "run_all", fake_run_all)
    assert cli.main(["verify"]) == 2
    fake[1].passed = True
    assert cli.main(["verify"]) == 0


def test_verify_json_written(tmp_path, capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True)]
    monkeypatch.setattr(cli.verify, "run_all",
                        lambda budget, log: (fake, verify.report_json(fake)))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--json", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["all_pass"] is True


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("QFCODES_BUDGET", "12345")
    parser = cli.build_parser()
    args = parser.parse_args(["spectrum", "--p", "2", "--m", "4", "--family", "mono:1"])
    assert args.budget == 12345


def test_bad_budget_exit_1(capsys, monkeypatch):
    # a negative or non-integer budget is a usage error, on the command line
    # or in QFCODES_BUDGET, and no command starts
    monkeypatch.setattr(cli.verify, "run_all", None)
    field = ["--p", "2", "--m", "4", "--family", "mono:1"]
    commands = (["spectrum", *field], ["cwe", *field], ["verify"])
    for argv in commands:
        for bad in ("-5", "abc"):
            code, out, err = run(argv + ["--budget", bad], capsys)
            assert code == cli.EXIT_USAGE and out == "" and err.startswith("usage:")
        assert cli.build_parser().parse_args(argv + ["--budget", "0"]).budget == 0
    monkeypatch.setenv("QFCODES_BUDGET", "abc")
    for argv in commands:
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and err.startswith("usage:")


def test_curves_ignores_budget_env(capsys, monkeypatch):
    # curves does no budgeted work, so QFCODES_BUDGET is not read there
    monkeypatch.setenv("QFCODES_BUDGET", "abc")
    code, out, err = run(["curves", "--p", "3", "--m", "4", "--ell", "1"], capsys)
    assert code == cli.EXIT_OK and err == ""
    assert pinned(out) == (211, "6fda088b2518d22f952d40022f5c599e04795269cd305c68ec32284db866d165")


def test_verify_budget_exit_3(capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True),
            verify.CriterionResult(3, "y", False, mode="skipped",
                                   details={"budget_exceeded": "too big"})]
    monkeypatch.setattr(cli.verify, "run_all",
                        lambda budget, log: (fake, verify.report_json(fake)))
    assert cli.main(["verify"]) == 3


def test_removed_options_exit_1(capsys, monkeypatch):
    # options no command read are gone; passing one is a usage error, reported
    # with the usage line of the subcommand that was given it
    monkeypatch.setattr(cli.verify, "run_all", None)
    field = ["--p", "2", "--m", "4", "--family", "mono:1"]
    for argv in (["spectrum", *field, "--workers", "2"], ["cwe", *field, "--workers", "2"],
                 ["verify", "--workers", "2"], ["cwe", *field, "--variant", "1"],
                 ["curves", "--p", "3", "--m", "4", "--ell", "1", "--budget", "5"]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.startswith(f"usage: qfcodes {argv[0]} "), argv
        assert f"qfcodes {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_abbreviated_options_exit_1(capsys, monkeypatch):
    # an option is spelt out in full: --s is not --scan, nor --fam --family
    def no_command(*args, **kwargs):
        raise AssertionError("an abbreviated argv must not start a command")

    monkeypatch.setattr(cli.curves, "scan_monomial", no_command)
    monkeypatch.setattr(cli.spectra, "predict_monomial_long", no_command)
    for argv in (["curves", "--p", "3", "--m", "4", "--ell", "1", "--s"],
                 ["spectrum", "--p", "3", "--m", "4", "--fam", "mono:1", "--meth", "predict",
                  "--var", "2"]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.startswith(f"usage: qfcodes {argv[0]} "), argv


def test_curves_scan_and_witness_exclusive(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a rejected argv must not start a sweep")

    monkeypatch.setattr(cli.curves, "l3l_optimal_witness", no_search)
    monkeypatch.setattr(cli.curves, "scan_monomial", no_search)
    code, out, err = run(["curves", "--p", "3", "--m", "8", "--ell", "1", "--scan", "--witness"],
                         capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("usage: qfcodes curves ") and "not allowed with argument" in err


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes read once ``_reads`` is set."""

    _reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def test_every_option_is_read(capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True)]
    monkeypatch.setattr(cli.verify, "run_all",
                        lambda budget, log: (fake, verify.report_json(fake)))
    field = "--p 2 --m 4 --family mono:1 --method both"
    runs = {"spectrum": [field], "cwe": [field],
            "curves": ["--p 3 --m 4 --ell 1", "--p 3 --m 4 --ell 1 --scan",
                       "--p 3 --m 8 --ell 1 --witness"],
            "verify": [""]}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(runs)
    for command, argvs in runs.items():
        read = set()
        for argv in argvs:
            args = parser.parse_args([command, *argv.split()], namespace=_ReadRecorder())
            args._reads = read
            assert getattr(cli, f"cmd_{command}")(args) == cli.EXIT_OK
        capsys.readouterr()
        dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        assert dests <= read, (command, dests - read)


def test_curves_negative_pair_budget_exit_1(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a rejected budget must not start the search")

    monkeypatch.setattr(cli.curves, "l3l_optimal_witness", no_search)
    argv = ["curves", "--p", "3", "--m", "8", "--ell", "1", "--witness"]
    for bad in ("-5", "-1"):
        code, out, err = run(argv + ["--pair-budget", bad], capsys)
        assert code == cli.EXIT_USAGE and out == "" and "pair-budget" in err
    assert cli.build_parser().parse_args(argv + ["--pair-budget", "0"]).pair_budget == 0


@pytest.mark.parametrize("budget,found,checked", [
    (0, False, 0), (1, False, 1), (2, True, 2), (5000, True, 5000), (6560, True, 6560),
    (6561, True, 6561), (6562, True, 6561),
])
def test_curves_witness_pair_budget_pinned(capsys, budget, found, checked):
    # one gamma1 row of 3^8 pairs is profiled at a time, cut at the budget; the
    # witness (1, 1) is the second pair of the first row
    code, out, _ = run(["curves", "--p", "3", "--m", "8", "--ell", "1", "--witness",
                        "--pair-budget", str(budget)], capsys)
    payload = json.loads(out)
    assert (payload["found"], payload["pairs_checked"]) == (found, checked)
    assert code == (cli.EXIT_OK if found else cli.EXIT_MISMATCH)
    if found:
        assert payload["points"] == payload["independent_recount"] == 2188


SINGLE_CURVE = ["curves", "--p", "3", "--m", "4", "--ell", "1", "--gamma", "a^3", "--beta", "5"]


def test_out_writes_the_stdout_bytes(capsys, tmp_path):
    for argv in (SINGLE_CURVE, ["spectrum", "--p", "2", "--m", "4", "--family", "mono:1",
                                "--format", "csv"]):
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_OK
        path = tmp_path / "out.txt"
        code, out_with_file, err = run([*argv, "--out", str(path)], capsys)
        assert (code, out_with_file, err) == (cli.EXIT_OK, "", "")
        assert path.read_bytes() == out.encode()


def test_text_format_is_one_line_per_key(capsys):
    _, out, _ = run(SINGLE_CURVE, capsys)
    payload = json.loads(out)
    code, text, _ = run([*SINGLE_CURVE, "--format", "text"], capsys)
    assert code == cli.EXIT_OK
    assert text.splitlines() == [f"{k}: {json.dumps(v, sort_keys=True)}"
                                 for k, v in sorted(payload.items())]


def test_cwe_l3l_predict(capsys):
    # the closed-form distribution, with no budget for brute verification
    code, out, _ = run(["cwe", "--p", "3", "--m", "8", "--family", "l3l:1"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["balanced_verified"] is None and payload["match"] is None
    assert sum(t["coeff"] for t in payload["cwe"]) == 3 ** 16
    assert payload["code"]["n"] == 3 ** 8 - 1


@pytest.mark.parametrize("argv,message", [
    ("spectrum --p 3 --m 4 --family mono1",
     "family must look like mono:1, l3l:1 or span:1,2 (got 'mono1')"),
    ("curves --p 3 --m 4 --ell 1 --gamma 81", "element index 81 out of range"),
    ("spectrum --p 3 --m 4 --family mono:1,2", "mono takes a single exponent"),
    ("spectrum --p 3 --m 8 --family l3l:1,2", "l3l takes a single exponent"),
    ("spectrum --p 3 --s 2 --m 2 --family l3l:1",
     "the two-monomial family is defined over prime base fields"),
], ids=["family", "gamma", "mono", "l3l", "l3l-s2"])
def test_malformed_input_exit_1(capsys, argv, message):
    code, out, err = run(argv.split(), capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_curve_count_error_exit_2(capsys, monkeypatch):
    # a count outside the genus bounds is a verification mismatch
    monkeypatch.setattr(cli.curves, "count_points", lambda spec: 0)
    code, out, err = run(SINGLE_CURVE, capsys)
    assert code == cli.EXIT_MISMATCH and out == ""
    assert err == "verification mismatch: count 0 escapes the genus bounds (28, 136)\n"


ROOT = Path(__file__).resolve().parents[1]
SPECTRUM = ["spectrum", "--p", "2", "--m", "4", "--family", "mono:1"]


def test_parser_built_once_per_budget_env(monkeypatch):
    monkeypatch.delenv("QFCODES_BUDGET", raising=False)
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("QFCODES_BUDGET", "777")
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(SPECTRUM).budget == 777


def test_parser_builds_counted(monkeypatch, capsys):
    # deterministic guard: 20 main calls over 3 distinct QFCODES_BUDGET values
    # build the top-level parser 3 times
    builds = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "qfcodes":
            builds.append(os.environ.get("QFCODES_BUDGET"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    envs = [None, "100000", "200000", None, "100000"]
    for i in range(20):
        env = envs[i % len(envs)]
        if env is None:
            monkeypatch.delenv("QFCODES_BUDGET", raising=False)
        else:
            monkeypatch.setenv("QFCODES_BUDGET", env)
        assert cli.main(SPECTRUM) == 0
    capsys.readouterr()
    assert len(builds) == 3 and set(builds) == {None, "100000", "200000"}


def test_budget_env_changed_between_main_calls(capsys, monkeypatch):
    argv = SPECTRUM + ["--method", "brute"]
    monkeypatch.delenv("QFCODES_BUDGET", raising=False)
    assert run(argv, capsys)[0] == cli.EXIT_OK
    monkeypatch.setenv("QFCODES_BUDGET", "10")
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_BUDGET and out == "" and err.startswith("budget exceeded")
    for bad in ("abc", "-5"):
        monkeypatch.setenv("QFCODES_BUDGET", bad)
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and err.startswith("usage:")
    monkeypatch.setenv("QFCODES_BUDGET", "100000")
    assert run(argv, capsys)[0] == cli.EXIT_OK
    monkeypatch.delenv("QFCODES_BUDGET")
    assert run(argv, capsys)[0] == cli.EXIT_OK


def test_usage_error_then_spectrum_matches_fresh_process(capsys, monkeypatch):
    monkeypatch.delenv("QFCODES_BUDGET", raising=False)
    argv = ["spectrum", "--p", "3", "--m", "4", "--family", "mono:1",
            "--variant", "0", "--method", "both"]
    assert run(["spectrum", "--p", "3", "--family", "mono:1"], capsys)[0] == cli.EXIT_USAGE
    code, out, _ = run(argv, capsys)
    env = {k: v for k, v in os.environ.items() if k != "QFCODES_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "qfcodes.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert code == proc.returncode == cli.EXIT_OK
    assert out.encode() == proc.stdout


def test_package_runs_as_a_module(tmp_path):
    # `python -m qfcodes` from a checkout: verify exits 0 and writes the pinned report
    env = {k: v for k, v in os.environ.items() if k != "QFCODES_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    path = tmp_path / "verify.json"
    proc = subprocess.run([sys.executable, "-m", "qfcodes", "verify", "--json", str(path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    payload = path.read_bytes()
    assert hashlib.sha256(payload).hexdigest().startswith("0e947eae")


def test_benchmark_cli_configs_repeat_identically(capsys, monkeypatch):
    # the benchmark's distinct `spectrum` argv set, each run twice through one
    # cached parser: exit 0 and the same bytes both times
    monkeypatch.delenv("QFCODES_BUDGET", raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    configs = workloads._cli_configs()
    assert len(set(configs)) == 32
    for op, p, s, m, fam, variant in configs:
        if op == "cli_both":
            family, method = f"mono:{fam}", "both"
        else:
            family, method = fam, "predict"
        argv = [str(a) for a in workloads._spectrum_argv(p, s, m, family, variant, method)]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first[0] == second[0] == cli.EXIT_OK, argv
        assert first[1] == second[1] and first[1], argv
