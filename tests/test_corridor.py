import numpy as np
import pytest

from crowdflow1d.corridor import (
    RadialProfile,
    analytic_pressure,
    candidate_step_objective,
    chain_interface,
    closed_form_b,
    fig3_preset,
    fig4_preset,
    no_exit_regime_end,
    ode_b_exit,
    ode_b_no_exit,
    onset_slope,
    profile_no_exit,
    render,
    saturated_exit_preset,
    saturation_onset,
    step_b_exit,
    step_b_no_exit,
)
from crowdflow1d.corridor import _profile_quantiles
from crowdflow1d.errors import FeasibilityError

# interface slope sqrt(0.4)/(1 - sqrt(0.4)), frozen to full precision
B_SLOPE_04 = 1.7207592200561265


def test_closed_form_interface_hand_values():
    assert closed_form_b(1.0, 0.4) == pytest.approx(B_SLOPE_04, rel=1e-14)
    assert closed_form_b(0.01, 0.4) == pytest.approx(0.017207592200561266, rel=1e-14)
    # rho0 = 1/4 gives slope 0.5/0.5 = 1
    assert closed_form_b(2.0, 0.25) == pytest.approx(2.0, rel=1e-14)
    assert closed_form_b(0.0, 0.7) == 0.0


def test_regime_end_hand_value():
    assert no_exit_regime_end(0.4, 10.0) == pytest.approx(
        10.0 * (1.0 - np.sqrt(0.4)), rel=1e-14
    )


@pytest.mark.parametrize("rho0", [0.1, 0.4, 0.7])
@pytest.mark.parametrize("tau", [0.1, 0.01])
def test_step_recurrence_reproduces_closed_form_exactly(rho0, tau):
    b = 0.0
    for k in range(1, 11):
        b = step_b_no_exit(b, k, tau, rho0)
        exact = float(closed_form_b(k * tau, rho0))
        assert b == pytest.approx(exact, rel=1e-12)
        # grown from rest the conserved quadratic is identically zero
        assert b * b == pytest.approx(rho0 * (b + k * tau) ** 2, rel=1e-12)


def test_step_recurrence_rejects_degenerate_density():
    with pytest.raises(FeasibilityError):
        step_b_no_exit(0.0, 1, 0.1, 1.0)
    with pytest.raises(FeasibilityError):
        step_b_no_exit(0.0, 1, 0.1, 0.0)


def test_interface_ode_matches_closed_form():
    for t in (0.5, 2.0):
        assert ode_b_no_exit(t, 0.4) == pytest.approx(
            float(closed_form_b(t, 0.4)), rel=1e-8
        )
    assert ode_b_no_exit(0.0, 0.4) == 0.0


def test_frozen_profile_past_regime_end():
    prof = profile_no_exit(10.0, 0.4, 10.0)
    t_end = no_exit_regime_end(0.4, 10.0)
    assert prof.t == pytest.approx(t_end)
    # the saturated block then fills [0, sqrt(rho0) R] and stops
    assert prof.b == pytest.approx(np.sqrt(0.4) * 10.0, rel=1e-12)
    assert prof.density(prof.b + prof.t + 1.0) == pytest.approx(0.0)


def test_density_inside_the_rarefaction_fan():
    """Between the saturated block and the front ``R - t`` the closed
    corridor's density is the fan ``rho0 * (1 + t/r)``."""
    prof = profile_no_exit(1.5, 0.4, 10.0)
    r = np.linspace(prof.b, prof.R - prof.t, 9)[1:-1]
    assert prof.b < r[0] and r[-1] < prof.R - prof.t
    assert prof.density(r) == pytest.approx(0.4 * (1.0 + 1.5 / r), rel=1e-15)


def test_profile_mass_accounting():
    prof = profile_no_exit(1.5, 0.4, 10.0)
    assert prof.interior_mass() == pytest.approx(1.0, abs=1e-12)
    assert prof.cummass(prof.a) == 0.0
    r = np.linspace(0.0, 10.0, 1001)
    cm = prof.cummass(r)
    assert np.all(np.diff(cm) >= -1e-15)


def test_render_conserves_mass_and_caps_density():
    prof = profile_no_exit(1.0, 0.4, 10.0)
    m = render(prof, n_cells=512)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert m.rho.max() <= 1.0


def test_saturation_onset_hand_value():
    assert saturation_onset(1.0, 0.4) == pytest.approx(1.5, rel=1e-14)


def test_onset_slope_hand_value():
    # admissible root of 2(1-r)m^2 - (4r-1)m - 2r at rho0 = 0.4
    m = onset_slope(0.4)
    assert m == pytest.approx(1.1039125638299667, rel=1e-12)
    r = 0.4
    assert 2 * (1 - r) * m * m - (4 * r - 1) * m - 2 * r == pytest.approx(
        0.0, abs=1e-12
    )


def test_draining_interface_ode_frozen_values():
    assert ode_b_exit(1.0, 1.0, 10.0, 1.0) == pytest.approx(
        9.606604848937884, rel=1e-10
    )
    assert ode_b_exit(2.0, 1.0, 10.0, 0.4) == pytest.approx(
        1.5685172950776776, rel=1e-8
    )
    assert ode_b_exit(2.5, 1.0, 10.0, 0.4) == pytest.approx(
        2.161569451489953, rel=1e-8
    )
    # before the onset the interface sits at the door
    assert ode_b_exit(1.0, 1.0, 10.0, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_draining_chain_frozen_endpoint():
    ts, bs, es = chain_interface(fig4_preset(), 3.0)
    assert ts[-1] == pytest.approx(3.0)
    assert bs[-1] == pytest.approx(2.7651264307853847, rel=1e-12)
    assert es[-1] == pytest.approx(0.1577966900744817, rel=1e-12)
    assert np.all(np.diff(es) >= 0.0)
    assert np.all((bs >= 1.0 - 1e-12) & (bs <= 10.0 + 1e-12))


def test_draining_chain_conserves_mass():
    preset = fig4_preset()
    ts, bs, es = chain_interface(preset, 2.0)
    for t, b, e in zip(ts[::50], bs[::50], es[::50]):
        prof = RadialProfile(t=t, a=1.0, R=10.0, rho0=0.4, b=b, exit_mass=e)
        assert prof.interior_mass() + e == pytest.approx(1.0, abs=1e-10)


def test_saturated_chain_drains_monotonically():
    preset = saturated_exit_preset(tau=0.025)
    ts, bs, es = chain_interface(preset, 0.2)
    assert bs[0] == pytest.approx(10.0)
    assert np.all(np.diff(bs) < 0.0)
    assert np.all(np.diff(es) > 0.0)
    prof = RadialProfile(t=ts[-1], a=1.0, R=10.0, rho0=1.0, b=bs[-1],
                         exit_mass=es[-1])
    assert prof.interior_mass() + es[-1] == pytest.approx(1.0, abs=1e-10)


def test_closed_chain_matches_recurrence():
    ts, bs, es = chain_interface(fig3_preset(), 1.0)
    assert es[-1] == 0.0
    b = 0.0
    for k in range(1, len(ts)):
        b = step_b_no_exit(b, k, 0.01, 0.4)
    assert bs[-1] == pytest.approx(b, rel=1e-14)


def test_chain_rejects_misaligned_horizon():
    for T in (1.005, -0.5, np.inf, np.nan):
        with pytest.raises(FeasibilityError, match="T="):
            chain_interface(fig3_preset(), T)
    for tau in (0.0, np.inf, np.nan):
        with pytest.raises(FeasibilityError, match="tau="):
            chain_interface(saturated_exit_preset(tau=tau), 1.0)
    ts, bs, es = chain_interface(fig4_preset(), 0.0)
    assert list(ts) == [0.0] and list(bs) == [1.0] and list(es) == [0.0]


def test_optimal_cut_minimizes_sampled_objective():
    # a mid-drain step of the saturated corridor: the closed-form root
    # must beat every probed alternative cut
    a, R, rho0, tau = 1.0, 10.0, 1.0, 0.05
    b_prev, e_prev = 10.0, 0.0
    for k in (1, 2):
        b, r_e, inc = step_b_exit(b_prev, k, tau, a, R, rho0, e_prev)
        obj_star = candidate_step_objective(
            b_prev, k, tau, a, R, rho0, e_prev, r_e, n_probe=65536
        )
        for alt in np.linspace(a * 1.0001, min(b_prev, a + 1.0), 17):
            obj_alt = candidate_step_objective(
                b_prev, k, tau, a, R, rho0, e_prev, float(alt), n_probe=65536
            )
            assert obj_star <= obj_alt + 1e-9
        b_prev, e_prev = b, e_prev + inc


def test_step_b_exit_requires_positive_door_radius():
    with pytest.raises(FeasibilityError):
        step_b_exit(5.0, 1, 0.05, 0.0, 10.0, 1.0)


def test_profile_quantiles_invert_cummass():
    ts, bs, es = chain_interface(fig4_preset(), 2.0)
    prof = RadialProfile(t=ts[-1], a=1.0, R=10.0, rho0=0.4, b=bs[-1],
                         exit_mass=es[-1])
    s = np.linspace(0.001, 0.999, 313)
    q = _profile_quantiles(prof, s)
    on_exit = s <= prof.exit_mass
    assert np.all(q[on_exit] == prof.a)
    back = prof.cummass(q[~on_exit]) + prof.exit_mass
    assert np.abs(back - s[~on_exit]).max() <= 1e-10


def test_pressure_shapes():
    closed = profile_no_exit(1.0, 0.4, 10.0)
    r = np.linspace(0.0, 10.0, 801)
    p = analytic_pressure(closed, r)
    assert np.allclose(p, np.clip(closed.b - r, 0.0, None))

    drain = RadialProfile(t=2.0, a=1.0, R=10.0, rho0=0.4, b=2.0, exit_mass=0.05)
    p = analytic_pressure(drain, r)
    inside = (r > 1.0) & (r < 2.0)
    assert np.all(p[inside] > 0.0)
    assert np.all(p[~inside] == 0.0)
    # Darcy profile hand value at r = 1.5
    expect = (2.0 - 1.0) * np.log(1.5) / np.log(2.0) - 0.5
    assert analytic_pressure(drain, np.array([1.5]))[0] == pytest.approx(
        expect, rel=1e-12
    )


def test_preset_geometry():
    p3, p4 = fig3_preset(), fig4_preset()
    assert not p3.has_exit and p4.has_exit
    assert p4.half_angle == pytest.approx(1.0 / (0.4 * 99.0), rel=1e-14)
    m = p4.initial(n_cells=256)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m.rho, 0.4)
    sat = saturated_exit_preset()
    assert sat.rho0 == 1.0 and sat.has_exit
    assert sat.initial(64).rho.max() == pytest.approx(1.0)
