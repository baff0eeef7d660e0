"""The self-check suites behind ``trotterlab verify``."""

import pytest

from trotterlab import verification
from trotterlab.errors import InvalidStateError
from trotterlab.verification import closed_form_n2_suite, closed_form_n3_suite, run_all_suites


def test_every_suite_passes_and_reports_a_plain_float():
    reports = run_all_suites()
    assert [r.name for r in reports] == [
        "closed-form-n2",
        "closed-form-n3",
        "backend-equivalence",
        "continuous-oracle",
        "trotter-convergence",
    ]
    for r in reports:
        assert r.ok and r.passed > 0, r
        assert type(r.worst) is float
    # 5 theta sections x 21 x 21 (phi, alpha) circuits per closed form
    assert reports[0].passed == reports[1].passed == 5 * 21 * 21


@pytest.mark.parametrize("suite", [closed_form_n2_suite, closed_form_n3_suite])
def test_closed_form_suite_raises_on_norm_drift(monkeypatch, suite):
    real = verification.iterate_stack

    def drifting(spec, phis):
        for eta, amps in real(spec, phis):
            amps[-1] *= 1 + 1e-9
            yield eta, amps

    monkeypatch.setattr(verification, "iterate_stack", drifting)
    with pytest.raises(InvalidStateError, match="norm drifted"):
        suite()
