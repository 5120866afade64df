"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance and runtime budget inline; the terminal
summary hook in conftest prints one PASS/FAIL line per criterion.
"""

import time

import numpy as np

from crowdflow1d.corridor import (
    closed_form_b,
    profile_no_exit,
    render,
    saturated_exit_preset,
    step_b_no_exit,
)
from crowdflow1d.harness import (
    convergence_study,
    fit_order,
    momentum_rate_study,
    property_campaign,
)
from crowdflow1d.jko import pressure_velocity_checks
from crowdflow1d.transport import w2_1d, w2_lp_oracle


def test_criterion_1_interface_recurrence_is_exact():
    # a = 0, R = 10, rho0 = 0.4, tau = 0.01: discrete interface equals
    # b(k tau) = k tau sqrt(rho0)/(1 - sqrt(rho0)) to rel 1e-10, T = 1
    start = time.perf_counter()
    tau, rho0 = 0.01, 0.4
    b = 0.0
    worst = 0.0
    for k in range(1, 101):
        b = step_b_no_exit(b, k, tau, rho0)
        exact = float(closed_form_b(k * tau, rho0))
        worst = max(worst, abs(b - exact) / exact)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst relative gap {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_solver_matches_analytic_profile(fig3_run):
    # fig3 preset at default resolutions: W2 gap to the analytic profile
    # at k = 100 (t = 1) within 1e-3, under 2 minutes
    preset, D, traj, elapsed = fig3_run
    ref = render(profile_no_exit(1.0, preset.rho0, preset.R), n_cells=2048,
                 has_exit=False)
    gap = w2_1d(traj.iterates[-1], ref, n_samples=4096).w2
    assert gap <= 1e-3, f"W2 gap {gap:.3e}"
    assert elapsed < 120.0, f"solve took {elapsed:.1f}s, budget 120s"


def test_criterion_3_convergence_order_of_the_drain():
    # saturated exit scenario, tau halving 0.1 -> 0.00625: fitted order
    # of the interface error and of the W2 error both in [0.85, 1.1]
    start = time.perf_counter()
    report = convergence_study(
        saturated_exit_preset(), [0.1, 0.05, 0.025, 0.0125, 0.00625], 1.0
    )
    elapsed = time.perf_counter() - start
    assert 0.85 <= report.fitted_order <= 1.1, report.summary()
    assert 0.85 <= report.fitted_order_w2 <= 1.1, (
        f"W2 order {report.fitted_order_w2:.4f}"
    )
    # the fit is not leaning on the coarsest point
    trimmed, _ = fit_order(report.taus[1:], report.err_b[1:])
    assert abs(trimmed - report.fitted_order) < 0.1
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s, budget 600s"


def test_criterion_4_energy_decay_and_squared_speed(fig3_run, fig4_run):
    # J nonincreasing along every acceptance run, and
    # sum W2^2/tau <= 2 (J(rho0) - J(rho_N)) + 1e-8
    for preset, D, traj, _ in (fig3_run, fig4_run):
        diffs = np.diff(traj.energy_series)
        assert diffs.max() <= 1e-12, f"{preset.name}: energy rose {diffs.max():.2e}"
        drop = traj.energy_series[0] - traj.energy_series[-1]
        total = traj.sum_sq_increments
        assert total <= 2.0 * drop + 1e-8, (
            f"{preset.name}: {total:.8f} > {2.0 * drop:.8f} + 1e-8"
        )


def test_criterion_5_decomposition_and_complementarity(fig3_run, fig4_run):
    # || U - v - p' ||_{L2(rho>0)} <= 1e-3 and |int p' v rho w| <= 1e-3
    # on every step of both preset runs at default resolutions
    for preset, D, traj, _ in (fig3_run, fig4_run):
        rng = np.random.default_rng(0)
        worst_dec = worst_comp = 0.0
        for step in traj.steps:
            diag = pressure_velocity_checks(step, D, rng=rng)
            worst_dec = max(worst_dec, diag.residual_decomposition)
            worst_comp = max(worst_comp, diag.residual_complementarity)
        assert worst_dec <= 1e-3, f"{preset.name}: decomposition {worst_dec:.3e}"
        assert worst_comp <= 1e-3, f"{preset.name}: complementarity {worst_comp:.3e}"


def test_criterion_6_monotone_solver_equals_lp_oracle():
    # 200 randomized small instances, absolute agreement 1e-9, under 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(200):
        nx, ny = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        x = rng.uniform(0.0, 5.0, nx)
        y = rng.uniform(0.0, 5.0, ny)
        p = rng.uniform(0.05, 1.0, nx)
        p /= p.sum()
        q = rng.uniform(0.05, 1.0, ny)
        q /= q.sum()
        src = list(zip(x, p))
        dst = list(zip(y, q))
        gap = abs(w2_1d(src, dst).w2 - w2_lp_oracle(src, dst))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst oracle gap {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_7_property_battery():
    # integral inequality, excess-mass bound, three-zone structure,
    # exit monotonicity, no-return: 200 cases each, zero failures
    start = time.perf_counter()
    report = property_campaign(seed=0, n_cases=200)
    elapsed = time.perf_counter() - start
    assert report.passed, "\n" + report.summary()
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_8_momentum_gap_decay_rate():
    # fig4 tau sweep: the momentum-interpolant gap decays with fitted
    # log-log slope >= 0.23, under 10 minutes
    start = time.perf_counter()
    report = momentum_rate_study()
    elapsed = time.perf_counter() - start
    assert report.fitted_order >= 0.23, report.summary()
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s, budget 600s"
