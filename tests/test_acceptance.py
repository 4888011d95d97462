"""The acceptance grid, one pass/fail line per criterion.

Runs the full verification suite once (which internally executes the
criteria grid twice to decide the byte-identity criterion), then asserts
each criterion individually so the report reads one line per criterion.
"""

import hashlib
import json

import pytest

from qfcodes import verify

N_CRITERIA = 12
# sha256 of the canonical report bytes (also what `qfcodes verify --json` writes);
# any change to the report has to change this pin on purpose
REPORT_SHA256 = "0e947eae3a32c4b26041a385d23c5da15b5b774788b0cd1c7b76114c027234d4"


@pytest.fixture(scope="module")
def results():
    res, payload = verify.run_all(workers=2, log=lambda line: None)
    report = json.loads(payload)
    assert report["criteria"][-1]["id"] == N_CRITERIA
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == (4058, REPORT_SHA256)
    return res


@pytest.mark.parametrize("cid", range(1, N_CRITERIA + 1))
def test_criterion(results, cid, capsys):
    r = next(r for r in results if r.cid == cid)
    with capsys.disabled():
        print(f"\n{r.line()}", end="")
    assert r.passed, f"criterion {cid} failed: {r.name}: {r.details}"
    if r.time_limit is not None:
        assert r.elapsed <= r.time_limit, \
            f"criterion {cid} exceeded its {r.time_limit}s budget ({r.elapsed:.1f}s)"
