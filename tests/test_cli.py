import json

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


def test_curves_scan(capsys):
    code, out, _ = run(["curves", "--p", "2", "--m", "4", "--ell", "1", "--scan"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["residue"]["minimal_betas"] == [1]
    assert payload["classes"]["residue"]["maximal_betas"] == [3]


def test_verify_exit_codes(capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True), verify.CriterionResult(2, "y", False)]

    def fake_run_all(budget, workers, log):
        return fake, verify.report_json(fake)

    monkeypatch.setattr(cli.verify, "run_all", fake_run_all)
    assert cli.main(["verify"]) == 2
    fake[1].passed = True
    assert cli.main(["verify"]) == 0


def test_verify_json_written(tmp_path, capsys, monkeypatch):
    fake = [verify.CriterionResult(1, "x", True)]
    monkeypatch.setattr(cli.verify, "run_all",
                        lambda budget, workers, log: (fake, verify.report_json(fake)))
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
                        lambda budget, workers, log: (fake, verify.report_json(fake)))
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
