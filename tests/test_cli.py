import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qfcodes import cli, spectra, verify


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
        return spectra.MonomialPrediction(params=pred.params, spectrum=broken,
                                          full_spectrum=pred.full_spectrum, D=pred.D)

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


@pytest.mark.parametrize("p,family,message", [
    (3, "span:0,2", "not an even-rank family (rank 0)"),
    (2, "span:0,1", "even rank only, got 1"),
    (3, "span:0,1", "even rank only, got 3"),
], ids=["3-span02-rank0", "2-span01-odd", "3-span01-odd"])
def test_spectrum_measured_span_not_even_rank_exit_1(capsys, p, family, message):
    code, out, err = run(["spectrum", "--p", str(p), "--m", "4", "--family", family,
                          "--method", "both"], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and message in err


def test_spectrum_span_not_even_rank_exits_before_brute(capsys):
    # the tally rejects the family before the 5^8-form brute enumeration runs
    argv = ["spectrum", "--p", "5", "--m", "4", "--family", "span:0,2", "--method", "both"]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE and out == ""
    assert "not an even-rank family (rank 0)" in err
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


def test_curves_scan(capsys):
    code, out, _ = run(["curves", "--p", "2", "--m", "4", "--ell", "1", "--scan"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["residue"]["minimal_betas"] == [1]
    assert payload["classes"]["residue"]["maximal_betas"] == [3]


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
    commands = (["spectrum", *field], ["cwe", *field],
                ["curves", "--p", "3", "--m", "4", "--ell", "1"], ["verify"])
    for argv in commands:
        for bad in ("-5", "abc"):
            code, out, err = run(argv + ["--budget", bad], capsys)
            assert code == cli.EXIT_USAGE and out == "" and err.startswith("usage:")
        assert cli.build_parser().parse_args(argv + ["--budget", "0"]).budget == 0
    monkeypatch.setenv("QFCODES_BUDGET", "abc")
    for argv in commands:
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and err.startswith("usage:")


def test_verify_budget_exit_3(capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True),
            verify.CriterionResult(3, "y", False, mode="skipped",
                                   details={"budget_exceeded": "too big"})]
    monkeypatch.setattr(cli.verify, "run_all",
                        lambda budget, log: (fake, verify.report_json(fake)))
    assert cli.main(["verify"]) == 3


def test_workers_validated_not_clamped():
    # parsing only: no command starts a process, so any value >= 1 is kept
    parser = cli.build_parser()
    field = ["--p", "2", "--m", "4", "--family", "mono:1"]
    for argv in (["spectrum", *field], ["cwe", *field], ["verify"]):
        assert parser.parse_args(argv).workers == 1
        assert parser.parse_args(argv + ["--workers", "2"]).workers == 2
        assert parser.parse_args(argv + ["--workers", "100000"]).workers == 100000
        for bad in ("0", "-4"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + ["--workers", bad])
            assert exc.value.code == cli.EXIT_USAGE


def test_curves_negative_pair_budget_exit_1(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a rejected budget must not start the search")

    monkeypatch.setattr(cli.curves, "l3l_optimal_witness", no_search)
    argv = ["curves", "--p", "3", "--m", "8", "--ell", "1", "--witness"]
    for bad in ("-5", "-1"):
        code, out, err = run(argv + ["--pair-budget", bad], capsys)
        assert code == cli.EXIT_USAGE and out == "" and "pair-budget" in err
    assert cli.build_parser().parse_args(argv + ["--pair-budget", "0"]).pair_budget == 0


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
