import io

import numpy as np
import pytest

from crowdflow1d import _solver, jko
from crowdflow1d.cli import ScenarioConfig
from crowdflow1d.corridor import fig3_preset, fig4_preset, saturated_exit_preset
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
from crowdflow1d.measures import (
    CellGeometry,
    Domain1D,
    Measure1D,
    QuantileFn,
    density_of,
    quantile_of,
)
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


def test_short_table_continues_its_end_segments():
    """A table that stops short of the domain continues along its end
    segments, in its value as in its slope, and keeps ``np.interp``'s
    bits inside: ``from_table([1, 5], [0, 4])`` reads 6 at r = 7, and a
    fig4 run under it gives the bits of the same run under the table
    extended to R = 10."""
    short = PotentialD.from_table([1.0, 5.0], [0.0, 4.0])
    assert (short.fn(7.0), short.grad(7.0), short.fn(0.5)) == (6.0, 1.0, -0.5)
    r = np.linspace(1.0, 5.0, 17)
    assert np.array_equal(short.fn(r), np.interp(r, [1.0, 5.0], [0.0, 4.0]))
    p = fig4_preset()
    full = PotentialD.from_table([1.0, 5.0, 10.0], [0.0, 4.0, 9.0])
    assert short.affine and full.affine
    runs = [run_flow(p.initial(64), D, 0.05, 1.5, n_samples=256, n_cells=64)
            for D in (short, full)]
    assert runs[0].steps[-1].m_exit > 0
    for a, b in zip(runs[0].steps, runs[1].steps):
        assert np.array_equal(a.q_next, b.q_next) and a.m_exit == b.m_exit
        assert (a.objective_value, a.energy) == (b.objective_value, b.energy)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["radii", "values"])
def test_table_potential_rejects_non_finite_entries(column, bad):
    radii, values = [1.0, 5.0, 10.0], [0.0, 4.0, 9.0]
    (radii if column == "radii" else values)[1] = bad
    with pytest.raises(FeasibilityError, match=column):
        PotentialD.from_table(radii, values)
    cfg = ScenarioConfig(a=1.0, R=10.0, weight_kind="flat", has_exit=True, rho0_value=0.1,
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
    # a time step that is not finite and positive, one step or a run
    for tau in (0.0, np.nan, np.inf):
        with pytest.raises(FeasibilityError, match="tau="):
            jko_step(m, D, tau)
        with pytest.raises(FeasibilityError, match="tau="):
            run_flow(m, D, tau, 1.0, n_samples=128, n_cells=64)
    concave = PotentialD.from_table([1.0, 5.5, 10.0], [0.0, 5.0, 0.5])
    with pytest.raises(FeasibilityError, match="tau="):
        jko_step(m, concave, 10.0 * step_size_cap(concave))
    with pytest.raises(FeasibilityError):
        run_flow(m, D, 0.1, 0.25, n_samples=128, n_cells=64)
    # a time grid with no finite step count, or a negative horizon
    for tau, T in ((1e-320, 1.0), (0.1, np.inf), (0.1, np.nan), (0.01, -0.5)):
        with pytest.raises(FeasibilityError, match="T="):
            run_flow(m, D, tau, T, n_samples=128, n_cells=64)
    # a zero horizon is the start alone
    still = run_flow(m, D, 0.01, 0.0, n_samples=128, n_cells=64)
    assert list(still.times) == [0.0] and len(still.iterates) == 1 and not still.steps
    buf = io.StringIO()
    still.to_csv(buf)
    assert buf.getvalue().splitlines()[1].startswith("0,0.0,")


def test_energy_rise_is_a_solver_failure(monkeypatch):
    honest = jko.solve_step

    def outward(projector, q_prev, m_prev, D, tau, lead):
        q, m, obj, after, lead = honest(projector, q_prev, m_prev, D, tau, lead)
        return q + 0.5, m, obj, after, lead

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

    def outward(projector, q_prev, m_prev, D, tau, lead):
        q, m, obj, after, lead = honest_step(projector, q_prev, m_prev, D, tau, lead)
        q = q.copy()
        q[m:] += 0.5
        return q, m, obj, after, lead

    def recorded(*args):
        res, lead = honest_assemble(*args)
        prefixes.append(res.m_exit)
        return res, lead

    monkeypatch.setattr(jko, "solve_step", outward)
    monkeypatch.setattr(jko, "_assemble", recorded)
    door = Domain1D(0.0, 3.0, "flat", None, True)
    block = Measure1D(door, np.linspace(0.0, 3.0, 31), np.where(np.arange(30) < 10, 1.0, 0.0))
    D = PotentialD.distance_to_exit(door)
    with pytest.raises(SolverFailureError, match="at step 0") as err:
        run_flow(block, D, 0.1, 0.3, n_samples=128, n_cells=30)
    assert prefixes[-1] > 0
    assert err.value.m == prefixes[-1]


def test_a_run_step_is_a_fresh_step_from_its_q_prev(monkeypatch):
    """``run_flow`` carries the prefix search's start from step to step
    (its lead), which changes what a step costs and never what it
    returns: every step of a saturated drain gives the bits of a fresh
    ``jko_step`` from the same ``q_prev`` and absorbed prefix, which
    starts with no lead and evaluates more candidates."""
    honest_step, honest_minimize = jko.solve_step, _solver.minimize_free
    calls, seen = [0], []

    def step(projector, q_prev, m_prev, D, tau, lead):
        calls[0] = 0
        out = honest_step(projector, q_prev, m_prev, D, tau, lead)
        seen.append((m_prev, lead, calls[0]))
        return out

    def minimize(*args, **kwargs):
        calls[0] += 1
        return honest_minimize(*args, **kwargs)

    monkeypatch.setattr(jko, "solve_step", step)
    monkeypatch.setattr(_solver, "minimize_free", minimize)
    p = saturated_exit_preset()
    D = PotentialD.distance_to_exit(p.domain())
    traj = run_flow(p.initial(64), D, 0.05, 1.0, n_samples=1024, n_cells=64)
    run, seen[:] = list(seen), []
    for (m_prev, _, _), res, rho in zip(run, traj.steps, traj.iterates):
        monkeypatch.setattr(jko, "quantile_of",
                            lambda mu, n, q=res.q_prev, m=m_prev: QuantileFn(mu.domain, q, m))
        fresh = jko_step(rho, D, 0.05, n_samples=1024, n_cells=64)
        for name in ("q_next", "m_exit", "objective_value", "energy", "level_l",
                     "pressure", "velocity", "w2_increment"):
            assert np.array_equal(getattr(fresh, name), getattr(res, name)), name
        assert np.array_equal(fresh.rho_next.rho, res.rho_next.rho)
    assert len(seen) == len(run) == 20 and not any(lead for _, lead, _ in seen), seen
    assert any(lead for _, lead, _ in run), run
    assert sum(c for *_, c in run) < sum(c for *_, c in seen), (run, seen)


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


@pytest.mark.xfail(strict=True, reason=(
    "convex table 1 0 / 5 3 / 10 9 on fig4 at default sizes, tau 0.01, T 0.05: "
    "steps 2 and 3 read decomposition residuals 3.06e-3 and 3.10e-3 (steps 0, 1, 4: "
    "9.3e-7, 1.6e-9, 9.2e-7); the affine table 1 0 / 10 6.75 with the same slope at "
    "the door reads at most 3.5e-14; suspected: projected gradient's stop rule"))
def test_convex_table_keeps_every_decomposition_residual():
    p = fig4_preset()
    D = PotentialD.from_table([1.0, 5.0, 10.0], [0.0, 3.0, 9.0])
    traj = run_flow(p.initial(2048), D, 0.01, 0.05, n_samples=4096, n_cells=2048)
    assert len(traj.steps) == 5
    worst = max(jko._decomposition_residuals(step, D)[0] for step in traj.steps)
    assert worst <= 1e-3, f"decomposition residual {worst:.3e}"


def test_fields_of_an_empty_interior():
    """A flat door domain [1, 3] at uniform density 0.5 is drained within
    four steps of tau = 0.5.  A step with no free sample left has the
    fields of the empty interior: the whole mass at the door, no
    pressure, the level at the door value ``D(a)`` and the free velocity
    ``-D'``."""
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    D = PotentialD.distance_to_exit(dom)
    traj = run_flow(Measure1D.uniform(dom, 0.5, 64), D, 0.5, 2.5, n_samples=64, n_cells=64)
    assert [step.m_exit for step in traj.steps] == [16, 32, 48, 64, 64]
    for step in traj.steps[3:]:
        assert step.rho_next.exit_mass == 1.0
        assert np.all(step.rho_next.rho == 0.0)
        assert np.all(step.pressure == 0.0)
        assert step.level_l == float(D.fn(dom.a))
        assert np.array_equal(step.velocity, -D.grad(step.grid))


def _grid_fields_reference(geom, tau, q_prev, q_next, m, exit_mass):
    """``jko._grid_fields`` as it read with ``np.where`` extrapolation,
    ``np.clip`` and concatenated running sums, kept as the bitwise
    reference of the sliced version."""
    domain, grid = geom.domain, geom.mids
    qi, pi = q_next[m:], q_prev[m:]
    keep = np.concatenate([np.diff(qi) > 1e-13 * max(1.0, domain.R), [True]])
    qk, pk = qi[keep], pi[keep]
    r_nodes = geom.r_nodes
    t_nodes = np.interp(r_nodes, qk, pk)
    t_nodes = np.where(r_nodes < qk[0], r_nodes + (pk[0] - qk[0]), t_nodes)
    t_nodes = np.where(r_nodes > qk[-1], r_nodes + (pk[-1] - qk[-1]), t_nodes)
    v_map = (grid - t_nodes[1:-1]) / tau
    dphi = np.clip(r_nodes - t_nodes, -domain.diameter, domain.diameter)
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (dphi[1:] + dphi[:-1]) * geom.dr)])
    phi -= phi[-1]
    big_f = geom.d_mids + phi[1:-1] / tau
    order = np.argsort(big_f, kind="stable")
    fs = big_f[order]
    cum = np.cumsum(geom.dW[order])
    k = min(int(np.searchsorted(cum, 1.0 - exit_mass - 1e-12)), len(order) - 1)
    level = float(0.5 * (fs[k] + fs[k + 1])) if k + 1 < len(order) else float(fs[k])
    door_level = geom.d_door + phi[0] / tau if domain.has_exit else np.inf
    return v_map, level, np.clip(level - big_f, 0.0, None), door_level


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _door_samples_on_nodes():
    """Flat door domain [0.7, 5.1] in 8 cells: two absorbed samples, the
    first kept free sample on the midpoint of cell 2 and the last, a
    repeated position, on that of cell 6.  At both nodes the map
    extrapolated from the end sample, ``q + (p - q)``, is not ``p`` in
    floats, though the fields read only ``q - t``, which is the same for
    both."""
    dom = Domain1D(0.7, 5.1, "flat", None, True)
    mids = CellGeometry(dom, 8).mids
    q_next = np.array([0.7, 0.7, mids[2], 2.5, 3.0, 3.0, 3.6, mids[6], mids[6]])
    q_prev = np.array([0.72, 0.8, 0.85, 1.0, 1.2, 1.3, 1.5, 1.7, 1.95])
    return dom, 8, q_prev, q_next, 2


def _apex_samples_off_nodes():
    """Radial apex domain [0, 4] in 16 cells, seeded free samples inside
    [0.5, 3.5] with repeats, no absorbed prefix."""
    dom = Domain1D(0.0, 4.0, "radial", 0.25, False)
    rng = np.random.default_rng(11)
    q_next = np.sort(np.repeat(rng.uniform(0.5, 3.5, 20), rng.integers(1, 3, 20)))
    q_prev = np.minimum(q_next + rng.uniform(0.0, 0.2, q_next.size), dom.R)
    return dom, 16, np.sort(q_prev), q_next, 0


@pytest.mark.parametrize("case", [_door_samples_on_nodes, _apex_samples_off_nodes])
def test_grid_fields_extrapolation_matches_the_masked_formula(case):
    """The map beyond the kept samples is extrapolated on the nodes below
    the first and above the last by slices at ``searchsorted``; every
    output equals the masked reference bit for bit, with nodes exactly
    at the end samples, nodes on both sides beyond them and an absorbed
    prefix."""
    dom, n_cells, q_prev, q_next, m = case()
    D = PotentialD.distance_to_exit(dom)
    geom = jko._RunGeometry(dom, n_cells, D)
    free = q_next[m:]
    first, last = free[0], free[-1]
    assert (geom.r_nodes < first).sum() >= 1 and (geom.r_nodes > last).sum() >= 1
    if m:
        assert first in geom.r_nodes and last in geom.r_nodes
        assert first + (q_prev[m] - first) != q_prev[m]
        assert last + (q_prev[-1] - last) != q_prev[-1]
    exit_mass = m / q_next.size
    for tau in (0.05, 0.3):
        got = jko._grid_fields(geom, tau, q_prev, q_next, m, exit_mass)
        want = _grid_fields_reference(geom, tau, q_prev, q_next, m, exit_mass)
        assert all(_same_bits(g, w) for g, w in zip(got, want)), (got, want)


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


def test_momentum_fields_reject_times_off_the_trajectory():
    traj, _ = _small_run(fig4_preset(), tau=0.01, T=0.05, n_samples=256, n_cells=128)
    # both ends of the horizon and a time a rounding off the grid are fine
    for t in (0.0, 0.05, 0.05 + 1e-12, -1e-12):
        grid, e_tilde, e_hat = momentum_fields(traj, t, n_cells=64)
        assert np.all(np.isfinite(e_tilde)) and np.all(np.isfinite(e_hat))
    for t in (-0.005, -0.5, 0.051, 0.5, np.nan, np.inf):
        with pytest.raises(FeasibilityError, match="t="):
            momentum_fields(traj, t, n_cells=64)
    still, _ = _small_run(fig4_preset(), tau=0.01, T=0.0, n_samples=256, n_cells=128)
    with pytest.raises(FeasibilityError, match="t=0.0 is not a time of the 0 steps"):
        momentum_fields(still, 0.0, n_cells=64)


def test_momentum_gap_positive_while_draining():
    traj, _ = _small_run(fig4_preset(), T=0.25)
    assert momentum_discrepancy(traj) > 0.0
    grid, e_tilde, e_hat = momentum_fields(traj, 0.12, n_cells=128)
    assert np.all(np.isfinite(e_tilde)) and np.all(np.isfinite(e_hat))
    assert not np.array_equal(e_tilde, e_hat)


def test_one_cell_run_has_no_dual_violation():
    """On a one-cell grid no saturated run is long enough to hold a bump,
    so the dual condition reads 0 without reading a cell width."""
    preset = saturated_exit_preset()
    D = PotentialD.distance_to_exit(preset.domain())
    traj = run_flow(preset.initial(1), D, 0.025, 0.05, n_samples=64, n_cells=1)
    assert pressure_velocity_checks(traj.steps[-1], D).dual_violation == 0.0


@pytest.mark.parametrize("n_cells", [0, -1, 2.5])
def test_cell_count_below_one_is_rejected(n_cells):
    """A grid needs an integer count of at least one cell; the count is
    rejected where the grid is built, before any step is solved."""
    preset = fig4_preset()
    m = preset.initial(n_cells=64)
    D = PotentialD.distance_to_exit(preset.domain())
    with pytest.raises(FeasibilityError, match="n_cells"):
        run_flow(m, D, 0.05, 0.1, n_samples=128, n_cells=n_cells)
    with pytest.raises(FeasibilityError, match="n_cells"):
        jko_step(m, D, 0.05, n_samples=128, n_cells=n_cells)
    with pytest.raises(FeasibilityError, match="n_cells"):
        density_of(quantile_of(m, 128), n_cells)


def test_solver_failure_names_its_step(third_step_fails):
    """A solver failure inside step ``k`` of a run leaves ``run_flow`` as
    the same exception, its message prefixed with the step and its
    iterate, gap and prefix kept."""
    p = fig4_preset()
    with pytest.raises(SolverFailureError) as info:
        run_flow(p.initial(64), PotentialD.distance_to_exit(p.domain()), p.tau, 5 * p.tau,
                 n_samples=256, n_cells=64)
    e = info.value
    assert str(e) == "step 2: projection certificate failed inside a block"
    assert e.last_iterate is third_step_fails and e.gap == -2e-7 and e.m == 7


@pytest.mark.parametrize("preset", [fig4_preset, fig3_preset], ids=["exit", "closed"])
def test_declared_affine_potential_must_have_one_slope(preset):
    """``PotentialD(fn, grad)`` without curvature bounds is declared affine;
    a slope that varies over the domain fails by name on exit and closed
    domains alike, before any step, and declared curved it runs."""
    p = preset()
    dom = p.domain()

    def grad(r):
        return np.asarray(r, dtype=float) - dom.a

    def fn(r):
        return 0.5 * grad(r) ** 2

    D = PotentialD(fn, grad)
    assert D.affine
    with pytest.raises(FeasibilityError, match="declared affine"):
        D.validate_for(dom)
    with pytest.raises(FeasibilityError, match="declared affine"):
        run_flow(p.initial(64), D, p.tau, p.tau, n_samples=256, n_cells=64)
    PotentialD(fn, grad, lam=1.0, curv_ub=1.0).validate_for(dom)


def test_potential_table_needs_two_rows():
    with pytest.raises(FeasibilityError, match="potential table needs at least two rows"):
        PotentialD.from_table([1.0], [0.0])
    with pytest.raises(FeasibilityError, match="matching 1d arrays"):
        PotentialD.from_table([1.0, 2.0], [0.0])
