import io

import numpy as np
import pytest

from crowdflow1d import jko
from crowdflow1d.cli import ScenarioConfig
from crowdflow1d.corridor import fig3_preset, fig4_preset
from crowdflow1d.errors import ConfigError, FeasibilityError, SolverFailureError
from crowdflow1d.jko import (
    PotentialD,
    energy,
    geodesic_interpolant,
    jko_step,
    momentum_discrepancy,
    momentum_fields,
    pressure_velocity_checks,
    run_flow,
    step_size_cap,
)
from crowdflow1d.measures import Domain1D, Measure1D, QuantileFn, density_of
from crowdflow1d.transport import w2_1d

FLAT3 = Domain1D(0.0, 3.0, "flat", None, False)


def _block(lo, hi, n_cells=30):
    edges = np.linspace(FLAT3.a, FLAT3.R, n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    rho = np.where((mids > lo) & (mids < hi), 1.0, 0.0)
    return Measure1D(FLAT3, edges, rho)


def _small_run(preset, tau=0.05, T=0.5, n_samples=1024, n_cells=512):
    dom = preset.domain()
    D = PotentialD.distance_to_exit(dom)
    return run_flow(preset.initial(n_cells), D, tau, T, n_samples, n_cells), D


def test_distance_potential_basics():
    dom = fig4_preset().domain()
    D = PotentialD.distance_to_exit(dom)
    assert np.asarray(D.fn(1.0)) == pytest.approx(0.0)
    assert np.asarray(D.fn(4.5)) == pytest.approx(3.5)
    assert np.all(np.asarray(D.grad(np.linspace(1, 10, 7))) == 1.0)
    assert step_size_cap(D) == np.inf
    D.validate_for(dom)


def test_table_potential_matches_interpolation():
    D = PotentialD.from_table([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    r = np.linspace(0.0, 2.0, 9)
    assert np.allclose(D.fn(r), np.interp(r, [0, 1, 2], [0, 1, 0]))
    assert np.asarray(D.grad(0.3)) == pytest.approx(1.0)
    assert np.asarray(D.grad(1.7)) == pytest.approx(-1.0)
    # kink of -2 across unit spacing bounds the curvature from below
    assert D.lam == pytest.approx(-2.0)
    assert step_size_cap(D) == pytest.approx(1.0 / 8.0)


def test_table_potential_validation():
    with pytest.raises(FeasibilityError):
        PotentialD.from_table([0.0, 1.0], [0.0])
    with pytest.raises(FeasibilityError):
        PotentialD.from_table([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    dipped = PotentialD.from_table([1.0, 2.0, 3.0], [1.0, 0.5, 2.0])
    with pytest.raises(FeasibilityError):
        dipped.validate_for(dom)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["radii", "values"])
def test_table_potential_rejects_non_finite_entries(column, bad):
    radii, values = [1.0, 5.0, 10.0], [0.0, 4.0, 9.0]
    (radii if column == "radii" else values)[1] = bad
    with pytest.raises(FeasibilityError, match=column):
        PotentialD.from_table(radii, values)
    cfg = ScenarioConfig(a=1.0, R=10.0, weight_kind="flat", has_exit=True, rho0_value=0.1,
                         potential_kind="table",
                         potential_table=tuple(zip(radii, values)))
    with pytest.raises(ConfigError, match=column) as err:
        cfg.potential()
    assert err.value.field == "potential table"


def test_energy_hand_values():
    preset = fig4_preset()
    dom = preset.domain()
    m = preset.initial(n_cells=256)
    D = PotentialD.distance_to_exit(dom)
    # rho0 alpha int_1^10 (r-1) 2r dr = (1/99) * 567
    assert energy(m, D) == pytest.approx(567.0 / 99.0, rel=1e-12)

    shifted = PotentialD.from_table([1.0, 10.0], [2.0, 11.0])
    e = 0.2
    withexit = Measure1D.uniform(dom, (1.0 - e) / dom.total_weight, 256,
                                 exit_mass=e)
    expect = 0.32 * 765.0 / 39.6 + e * 2.0
    assert energy(withexit, shifted) == pytest.approx(expect, rel=1e-12)


def test_step_guards():
    preset = fig4_preset()
    m = preset.initial(n_cells=64)
    D = PotentialD.distance_to_exit(preset.domain())
    with pytest.raises(FeasibilityError):
        jko_step(m, D, 0.0)
    concave = PotentialD.from_table([1.0, 5.5, 10.0], [0.0, 5.0, 0.5])
    with pytest.raises(FeasibilityError):
        jko_step(m, concave, 10.0 * step_size_cap(concave))
    with pytest.raises(FeasibilityError):
        run_flow(m, D, 0.1, 0.25, n_samples=128, n_cells=64)
    # a time grid with no finite step count
    for tau, T in ((1e-320, 1.0), (0.1, np.inf), (0.1, np.nan)):
        with pytest.raises(FeasibilityError, match="T="):
            run_flow(m, D, tau, T, n_samples=128, n_cells=64)


def test_energy_rise_is_a_solver_failure(monkeypatch):
    honest = jko.solve_step

    def outward(projector, q_prev, m_prev, D, tau):
        q, m, obj = honest(projector, q_prev, m_prev, D, tau)
        return q + 0.5, m, obj

    monkeypatch.setattr(jko, "solve_step", outward)
    block = _block(0.0, 1.0)
    D = PotentialD.distance_to_exit(FLAT3)
    with pytest.raises(SolverFailureError, match="at step 0") as err:
        run_flow(block, D, 0.1, 0.3, n_samples=128, n_cells=30)
    assert err.value.last_iterate is not None
    assert err.value.last_iterate.min() >= 0.5


def test_energy_rise_carries_the_absorbed_prefix(monkeypatch):
    honest_step, honest_assemble = jko.solve_step, jko._assemble
    prefixes = []

    def outward(projector, q_prev, m_prev, D, tau):
        q, m, obj = honest_step(projector, q_prev, m_prev, D, tau)
        q = q.copy()
        q[m:] += 0.5
        return q, m, obj

    def recorded(*args):
        res = honest_assemble(*args)
        prefixes.append(res.m_exit)
        return res

    monkeypatch.setattr(jko, "solve_step", outward)
    monkeypatch.setattr(jko, "_assemble", recorded)
    door = Domain1D(0.0, 3.0, "flat", None, True)
    block = Measure1D(door, np.linspace(0.0, 3.0, 31), np.where(np.arange(30) < 10, 1.0, 0.0))
    D = PotentialD.distance_to_exit(door)
    with pytest.raises(SolverFailureError, match="at step 0") as err:
        run_flow(block, D, 0.1, 0.3, n_samples=128, n_cells=30)
    assert prefixes[-1] > 0
    assert err.value.m == prefixes[-1]


def test_one_step_improves_on_staying():
    preset = fig4_preset()
    m = preset.initial(n_cells=512)
    D = PotentialD.distance_to_exit(preset.domain())
    res = jko_step(m, D, 0.05, n_samples=1024, n_cells=512)
    start = energy(m, D)
    assert res.objective_value <= start + 1e-9
    assert res.energy <= start + 1e-9
    assert res.w2_increment > 0.0
    assert res.rho_next.rho.max() <= 1.0 + 1e-9
    # total_mass already counts the exit atom
    assert res.rho_next.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_closed_flow_conserves_mass_and_tracks_interface():
    from crowdflow1d.corridor import step_b_no_exit

    traj, D = _small_run(fig3_preset())
    assert traj.exit_series[-1] == 0.0
    for m in traj.iterates[::4]:
        assert m.total_mass() == pytest.approx(1.0, abs=1e-9)
    # grid interface estimate vs the stepped recurrence, within two cells
    b = 0.0
    for k in range(1, 11):
        b = step_b_no_exit(b, k, 0.05, 0.4)
    cell = 10.0 / 512
    assert abs(traj.iterates[-1].interface_estimate() - b) <= 2.0 * cell


def test_closed_flow_matches_stepped_profile_in_w2():
    from crowdflow1d.corridor import RadialProfile, render, step_b_no_exit

    traj, D = _small_run(fig3_preset())
    b = 0.0
    for k in range(1, 11):
        b = step_b_no_exit(b, k, 0.05, 0.4)
    ref = render(RadialProfile(t=0.5, a=0.0, R=10.0, rho0=0.4, b=b),
                 n_cells=512, has_exit=False)
    gap = w2_1d(traj.iterates[-1], ref, n_samples=2048).w2
    assert gap <= 1e-4


def test_energy_and_speed_bounds_along_drain():
    traj, D = _small_run(fig4_preset())
    assert np.all(np.diff(traj.energy_series) <= 1e-12)
    drop = traj.energy_series[0] - traj.energy_series[-1]
    assert traj.sum_sq_increments <= 2.0 * drop + 1e-8
    assert np.all(np.diff(traj.exit_series) >= -1e-15)
    assert traj.exit_series[-1] > 0.0


def test_step_fields_structure():
    traj, D = _small_run(fig4_preset())
    step = traj.steps[-1]
    # the cells are built once per run: every iterate shares one read-only
    # edges array, and binning without the run's geometry gives the same bits
    edges = traj.iterates[1].edges
    assert all(m.edges is edges for m in traj.iterates[1:])
    with pytest.raises(ValueError):
        edges[1] = 0.0
    for res in traj.steps[::3]:
        alone = density_of(QuantileFn(traj.domain, res.q_next, res.m_exit), 512)
        assert np.array_equal(alone.edges, edges)
        assert np.array_equal(alone.rho, res.rho_next.rho)
        assert alone.exit_mass == res.rho_next.exit_mass
    assert np.all(step.pressure >= 0.0)
    # everything drifts toward the door under the distance potential
    assert np.all(step.velocity <= 1e-12)
    assert np.isfinite(step.level_l)
    diag = pressure_velocity_checks(step, D, rng=np.random.default_rng(5))
    assert diag.residual_decomposition <= 5e-3
    assert diag.residual_complementarity <= 5e-3
    assert diag.dual_violation <= 5e-3


def test_trajectory_csv_round_trip():
    traj, _ = _small_run(fig4_preset(), T=0.25)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,t,w2_increment,energy,exit_mass,b_estimate"
    assert len(lines) == len(traj.iterates) + 1
    last = lines[-1].split(",")
    assert float(last[3]) == pytest.approx(traj.energy_series[-1], rel=1e-15)
    assert float(last[4]) == pytest.approx(traj.exit_series[-1], rel=1e-15)


def test_geodesic_translation_keeps_cap():
    m0 = _block(0.0, 1.0, n_cells=12)
    m1 = _block(2.0, 3.0, n_cells=12)
    mid = geodesic_interpolant(m0, m1, 0.5, n_samples=4096, n_cells=12)
    grid = 0.5 * (mid.edges[:-1] + mid.edges[1:])
    inside = (grid > 1.0) & (grid < 2.0)
    assert np.allclose(mid.rho[inside], 1.0, atol=1e-3)
    assert np.allclose(mid.rho[~inside], 0.0, atol=1e-3)
    assert mid.in_K
    assert mid.max_density == pytest.approx(1.0, abs=1e-3)


def test_geodesic_can_leave_the_constraint_set():
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    edges = np.linspace(1.0, 3.0, 21)
    mids = 0.5 * (edges[:-1] + edges[1:])
    m0 = Measure1D.uniform(dom, 0.2, 20, exit_mass=0.6)
    m1 = Measure1D(dom, edges, np.where(mids < 2.0, 0.8, 0.2))
    mid = geodesic_interpolant(m0, m1, 0.5, n_samples=4096, n_cells=40)
    # the door atom fans out over half the target block: density 1.6
    assert not mid.in_K
    assert mid.max_density == pytest.approx(1.6, abs=0.05)


def test_geodesic_guards():
    m0 = _block(0.0, 1.0)
    with pytest.raises(FeasibilityError):
        geodesic_interpolant(m0, m0, 1.5)
    other = Measure1D.uniform(Domain1D(0.0, 2.0, "flat", None, False), 0.5, 8)
    with pytest.raises(FeasibilityError):
        geodesic_interpolant(m0, other, 0.5)


def test_momentum_gap_vanishes_without_exit():
    traj, _ = _small_run(fig3_preset(), T=0.25)
    assert momentum_discrepancy(traj) == 0.0
    grid, e_tilde, e_hat = momentum_fields(traj, 0.12, n_cells=128)
    assert np.array_equal(e_tilde, e_hat)
    assert np.all(np.isfinite(e_tilde))


def test_momentum_gap_positive_while_draining():
    traj, _ = _small_run(fig4_preset(), T=0.25)
    assert momentum_discrepancy(traj) > 0.0
    grid, e_tilde, e_hat = momentum_fields(traj, 0.12, n_cells=128)
    assert np.all(np.isfinite(e_tilde)) and np.all(np.isfinite(e_hat))
    assert not np.array_equal(e_tilde, e_hat)
