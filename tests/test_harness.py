import math

import numpy as np
import pytest

from crowdflow1d.corridor import fig3_preset
from crowdflow1d.errors import FeasibilityError
from crowdflow1d.harness import (
    MACHINE_ERROR_FLOOR,
    CampaignReport,
    convergence_study,
    fit_order,
    momentum_rate_study,
    property_campaign,
)


def test_fit_order_recovers_synthetic_slopes():
    taus = np.array([0.1, 0.05, 0.025, 0.0125])
    for p, c in [(1.0, 2.0), (0.5, 0.3), (2.0, 7.0)]:
        slope, r2 = fit_order(taus, c * taus**p)
        assert slope == pytest.approx(p, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_order_is_scale_invariant():
    taus = np.array([0.2, 0.1, 0.05, 0.025])
    errs = np.array([3e-2, 1.4e-2, 6.1e-3, 3.2e-3])
    s1, _ = fit_order(taus, errs)
    s2, _ = fit_order(taus, 10.0 * errs)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_fit_order_refuses_exact_schemes():
    taus = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = np.array([1e-3, 1e-4, 0.5 * MACHINE_ERROR_FLOOR, 1e-5])
    slope, r2 = fit_order(taus, errs)
    assert math.isnan(slope) and math.isnan(r2)


def test_sweep_validation():
    p = fig3_preset()
    with pytest.raises(FeasibilityError):
        convergence_study(p, [0.1, 0.05, 0.025], 1.0)  # too short
    with pytest.raises(FeasibilityError):
        convergence_study(p, [0.1, 0.07, 0.05, 0.025], 1.0)  # not halving
    with pytest.raises(FeasibilityError):
        convergence_study(p, [0.1, 0.05, 0.025, 0.0125], 0.98)  # misaligned
    for taus in ([0.0] * 4, [float("nan")] * 4):
        with pytest.raises(FeasibilityError, match="positive"):
            convergence_study(p, taus, 1.0)
    with pytest.raises(FeasibilityError, match="one step"):
        convergence_study(p, [0.1, 0.05, 0.025, 0.0125], 1e-320)


def test_closed_corridor_study_is_exact():
    report = convergence_study(fig3_preset(), [0.2, 0.1, 0.05, 0.025], 1.0)
    assert max(report.err_b) <= MACHINE_ERROR_FLOOR
    assert math.isnan(report.fitted_order)
    assert report.summary() == "order=n/a r2=n/a"
    # the rendered-profile distance sits at the sampling floor too
    assert max(report.err_w2) <= 1e-6


def test_sweep_report_csv_round_trip():
    report = convergence_study(fig3_preset(), [0.2, 0.1, 0.05, 0.025], 0.4)
    text = report.to_csv_string()
    lines = text.strip().splitlines()
    assert lines[0] == "tau,err_b,err_w2"
    assert len(lines) == 5
    again = convergence_study(fig3_preset(), [0.2, 0.1, 0.05, 0.025], 0.4)
    assert again.to_csv_string() == text
    for line, tau, eb in zip(lines[1:], report.taus, report.err_b):
        cols = line.split(",")
        assert float(cols[0]) == tau
        assert float(cols[1]) == eb


def test_momentum_sweep_decays_with_tau():
    report = momentum_rate_study(
        taus=(0.1, 0.05, 0.025, 0.0125), T=0.5, n_samples=512, n_cells=256
    )
    gaps = np.array(report.discrepancies)
    assert np.all(gaps > 0.0)
    assert np.all(np.diff(gaps) < 0.0)
    assert report.fitted_order > 0.0
    assert "order=" in report.summary()


def test_campaign_trivial_and_small():
    empty = property_campaign(seed=3, n_cases=0)
    assert isinstance(empty, CampaignReport)
    assert empty.passed
    assert "campaign: pass" in empty.summary()

    small = property_campaign(seed=11, n_cases=2)
    assert small.passed, small.summary()
    assert all(c.n_cases == 2 and c.n_failed == 0 for c in small.checks)
    names = {c.name for c in small.checks}
    assert len(names) == len(small.checks) >= 8


def test_campaign_is_deterministic():
    a = property_campaign(seed=7, n_cases=2)
    b = property_campaign(seed=7, n_cases=2)
    assert a.summary() == b.summary()
    assert a.passed == b.passed
