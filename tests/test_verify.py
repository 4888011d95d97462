import json

from qfcodes import verify


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
