import json

import numpy as np
import pytest

from qfcodes import verify
from qfcodes.gf import get_field


def test_single_criterion_shape():
    r = verify.criterion_1(1 << 32)
    assert r.passed and r.cid == 1 and r.mode == "full"
    assert r.details["variant_base"]["params"] == [85, 8, 40]
    assert "PASS" in r.line()


def test_budget_limited_run_is_marked_sampled():
    r = verify.criterion_6(budget=10_000_000)
    assert r.mode == "sampled"
    assert r.passed
    assert "note" in r.details
    assert r.details["sampled_codewords"]["count"] > 0


@pytest.mark.parametrize("p,m,ell", [(3, 4, 1), (5, 4, 1), (3, 6, 2), (7, 2, 1)])
def test_bordered_weights_equal_the_words(p, m, ell):
    # zero coefficients, beta = 0 and b = 0 included
    ctx = get_field(p, m)
    rng = np.random.default_rng(p * 100 + m * 10 + ell)
    pairs = rng.integers(0, ctx.order, (60, 2)) * rng.integers(0, 2, (60, 2))
    draws = np.stack([rng.integers(0, ctx.order, (60, 4)) * rng.integers(0, 2, (60, 4)),
                      rng.integers(0, p, (60, 4))], axis=2)
    assert np.array_equal(verify._bordered_weights(ctx, ell, pairs, draws),
                          verify._sampled_weights(ctx, ell, pairs, draws))


@pytest.mark.parametrize("mutation", [None, "trace_rows_zeroed", "b_dropped", "g1_g2_swapped"])
def test_criterion_6_sees_every_part_of_a_word(monkeypatch, mutation):
    measure = verify._sampled_weights

    def mutated(ctx, ell, pairs, draws):
        draws = draws.copy()
        if mutation == "trace_rows_zeroed":
            draws[:, :, 0] = 0
        if mutation == "b_dropped":
            draws[:, :, 1] = 0
        if mutation == "g1_g2_swapped":
            pairs = pairs[:, ::-1]
        return measure(ctx, ell, pairs, draws)

    monkeypatch.setattr(verify, "_sampled_weights", mutated)
    r = verify.criterion_6(2100 * 5 * 3 ** 8)  # every sampled pair, short of the exhaustive tally
    assert r.mode == "sampled" and r.details["sampled_codewords"]["count"] == 10500
    assert r.passed == r.details["sampled_codewords"]["ok"] == (mutation is None)


def test_report_json_is_canonical():
    fake = [verify.CriterionResult(1, "a", True, details={"z": 1, "a": [2, 3]}),
            verify.CriterionResult(2, "b", False)]
    blob = verify.report_json(fake)
    assert blob == verify.report_json(fake)
    payload = json.loads(blob)
    assert payload["all_pass"] is False
    assert [c["id"] for c in payload["criteria"]] == [1, 2]


def test_time_limit_enforced():
    import time

    def slow():
        time.sleep(0.05)
        return True, "full", {}

    r = verify._timed(99, "slow", 0.01, slow)
    assert not r.passed and r.details["time_limit_exceeded"]


def test_exceptions_become_failures():
    def boom():
        raise ValueError("broken")

    r = verify._timed(98, "boom", None, boom)
    assert not r.passed and "broken" in r.details["error"]


def test_budget_exhaustion_marks_skipped():
    r = verify.criterion_3(budget=1_000_000)
    assert not r.passed and r.mode == "skipped"
    assert "budget_exceeded" in r.details
