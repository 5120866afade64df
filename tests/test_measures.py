import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crowdflow1d.corridor import saturated_exit_preset
from crowdflow1d.errors import (
    DomainMismatchError,
    FeasibilityError,
    MassMismatchError,
    MonotonicityError,
)
from crowdflow1d.measures import (
    CellGeometry,
    Domain1D,
    Measure1D,
    QuantileFn,
    _clip,
    _spill_excess,
    bin_quantiles_to_cells,
    density_of,
    quantile_of,
)


def test_radial_capacity_hand_values():
    dom = Domain1D(1.0, 3.0, "radial", 0.5, False)
    # W(r) = 0.5 (r^2 - 1): W(2) = 1.5, W(3) = 4
    assert dom.cumweight(2.0) == pytest.approx(1.5, abs=1e-15)
    assert dom.total_weight == pytest.approx(4.0, abs=1e-15)
    assert dom.weight(2.0) == pytest.approx(2.0, abs=1e-15)


def test_flat_capacity_is_length():
    dom = Domain1D(0.5, 2.5, "flat", None, True)
    assert dom.cumweight(1.5) == pytest.approx(1.0, abs=1e-15)
    assert dom.total_weight == pytest.approx(2.0, abs=1e-15)
    assert np.all(dom.weight(np.array([0.6, 2.0])) == 1.0)


@given(st.floats(0.0, 5.0), st.floats(0.1, 4.0), st.floats(0.05, 2.0))
def test_capacity_roundtrip(a, length, half_angle):
    dom = Domain1D(a, a + length, "radial", half_angle, False)
    r = np.linspace(dom.a, dom.R, 17)
    back = dom.inv_cumweight(dom.cumweight(r))
    assert np.allclose(back, r, rtol=0, atol=1e-9 * max(1.0, dom.R))


def test_domain_validation():
    with pytest.raises(FeasibilityError):
        Domain1D(-0.1, 1.0, "flat", None, False)
    with pytest.raises(FeasibilityError):
        Domain1D(1.0, 1.0, "flat", None, False)
    with pytest.raises(FeasibilityError):
        Domain1D(0.0, 1.0, "radial", None, False)  # needs half_angle
    with pytest.raises(FeasibilityError):
        Domain1D(0.0, 1.0, "flat", 0.3, False)  # half_angle forbidden
    with pytest.raises(FeasibilityError):
        Domain1D(0.0, 1.0, "sector", None, False)


@pytest.mark.parametrize("a, R, kind, half_angle", [
    (0.0, np.inf, "flat", None), (1.0, np.inf, "radial", 0.3), (0.0, 1.0, "radial", np.inf)])
def test_domain_rejects_infinite_bounds(a, R, kind, half_angle):
    with pytest.raises(FeasibilityError, match="finite"):
        Domain1D(a, R, kind, half_angle, False)


def test_uniform_measure_mass_and_cdf():
    dom = Domain1D(0.0, 2.0, "flat", None, False)
    m = Measure1D.uniform(dom, 0.5, 128)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
    # cdf at the midpoint of a uniform half-density segment
    assert float(m.cdf(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert float(m.cdf(2.0)) == pytest.approx(1.0, abs=1e-12)


def test_from_density_exact_for_linear_profile():
    dom = Domain1D(0.0, 2.0, "flat", None, False)
    m = Measure1D.from_density(dom, lambda r: r / 2.0, 16)
    lo, hi = m.edges[:-1], m.edges[1:]
    # cell average of r/2 is (lo + hi)/4, exactly integrated by the rule
    assert np.allclose(m.rho, (lo + hi) / 4.0, rtol=0, atol=1e-14)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_measure_validation():
    dom = Domain1D(0.0, 1.0, "flat", None, False)
    edges = np.linspace(0.0, 1.0, 5)
    with pytest.raises(FeasibilityError):
        Measure1D(dom, edges, np.array([0.5, 1.2, 0.5, 0.5]))
    with pytest.raises(MonotonicityError):
        Measure1D(dom, np.array([0.0, 0.5, 0.4, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DomainMismatchError):
        Measure1D(dom, np.linspace(0.1, 1.0, 5), np.full(4, 0.5))
    with pytest.raises(FeasibilityError):
        Measure1D(dom, edges, np.full(4, 0.5), exit_mass=0.1)  # no exit here


def test_measure_rejects_nan_cells_and_non_finite_exit_mass():
    dom = Domain1D(0.0, 1.0, "flat", None, True)
    edges = np.linspace(0.0, 1.0, 3)
    with pytest.raises(FeasibilityError, match="density outside"):
        Measure1D(dom, edges, [np.nan, 0.1])
    with pytest.raises(MonotonicityError):
        Measure1D(dom, [0.0, np.nan, 1.0], [0.5, 0.5])
    for exit_mass in (np.nan, np.inf):
        with pytest.raises(FeasibilityError, match="exit_mass"):
            Measure1D(dom, edges, [0.4, 0.4], exit_mass)


def test_random_feasible_is_feasible_and_deterministic(rng):
    dom = Domain1D(1.0, 4.0, "radial", 0.3, True)
    m1 = Measure1D.random_feasible(dom, 64, np.random.default_rng(5))
    m2 = Measure1D.random_feasible(dom, 64, np.random.default_rng(5))
    assert np.array_equal(m1.rho, m2.rho) and m1.exit_mass == m2.exit_mass
    assert m1.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert m1.rho.min() >= 0.0 and m1.rho.max() <= 1.0


def _random_feasible_200(domain, n_cells, rng):
    """``Measure1D.random_feasible`` with all 200 bisection steps (the oracle)."""
    exit_mass = float(rng.uniform(0.0, 0.3)) if domain.has_exit else 0.0
    target = 1.0 - exit_mass
    edges = np.linspace(domain.a, domain.R, n_cells + 1)
    dW = domain.cumweight(edges[1:]) - domain.cumweight(edges[:-1])
    raw = rng.uniform(0.05, 1.0, size=n_cells)

    def mass(c):
        return float(np.clip(raw * c, 0.0, 1.0) @ dW)

    c_lo, c_hi = 0.0, 1.0
    while mass(c_hi) < target:
        c_hi *= 2.0
    for _ in range(200):
        c = 0.5 * (c_lo + c_hi)
        if mass(c) < target:
            c_lo = c
        else:
            c_hi = c
    rho = np.clip(raw * 0.5 * (c_lo + c_hi), 0.0, 1.0)
    gap = target - float(rho @ dW)
    for i in np.argsort(dW)[::-1]:
        room = (1.0 - rho[i]) * dW[i] if gap > 0 else rho[i] * dW[i]
        take = np.clip(gap, -room, room)
        rho[i] += take / dW[i]
        gap -= take
        if abs(gap) < 1e-15:
            break
    return rho, exit_mass


def test_random_feasible_bisection_stops_early_with_the_same_result():
    """Scaling by the root of the mass curve's piece lands within rounding
    of the 200-step bisection, with the same exit mass and unit mass."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(0.0, 2.0))
        if seed % 2:
            dom = Domain1D(a, a + float(rng.uniform(1.5, 6.0)), "flat", None, bool(seed % 3))
        else:
            dom = Domain1D(a, a + float(rng.uniform(1.0, 4.0)), "radial",
                           float(rng.uniform(0.3, 2.0)), bool(seed % 3))
        if dom.total_weight <= 1.0:
            continue
        n_cells = int(rng.integers(8, 200))
        m = Measure1D.random_feasible(dom, n_cells, np.random.default_rng(seed + 1000))
        rho, exit_mass = _random_feasible_200(dom, n_cells, np.random.default_rng(seed + 1000))
        assert m.exit_mass == exit_mass
        assert abs(m.total_mass() - 1.0) <= 1e-15
        assert np.abs(m.rho - rho).max() <= 1e-13


@pytest.mark.parametrize("geometry", ["flat", "radial"])
def test_random_feasible_near_full_capacity(geometry):
    """Capacities a hair above unit mass fill almost every cell; the draw
    still stays in [0, 1] and carries unit mass."""
    for p in range(1, 15):
        cap = 1.0 + 10.0 ** -p
        if geometry == "flat":
            dom = Domain1D(0.5, 0.5 + cap, "flat", None, False)
        else:
            dom = Domain1D(0.0, float(np.sqrt(cap / 0.3)), "radial", 0.3, False)
        for seed in range(5):
            m = Measure1D.random_feasible(dom, 64, np.random.default_rng([p, seed]))
            assert m.rho.min() >= 0.0 and m.rho.max() <= 1.0
            assert abs(m.total_mass() - 1.0) <= 1e-15


@given(st.integers(0, 10**6))
def test_quantiles_monotone_within_domain(seed):
    rng = np.random.default_rng(seed)
    dom = Domain1D(0.5, 3.0, "flat", None, True)
    m = Measure1D.random_feasible(dom, 32, rng)
    qf = quantile_of(m, 256)
    assert np.all(np.diff(qf.q) >= -1e-12)
    assert qf.q.min() >= dom.a - 1e-12 and qf.q.max() <= dom.R + 1e-12
    # the plateau matches the exit atom up to one sample of mass
    assert abs(qf.exit_plateau / qf.n - m.exit_mass) <= 1.0 / qf.n + 1e-12


def test_quantile_density_roundtrip(rng):
    dom = Domain1D(1.0, 4.0, "radial", 0.25, True)
    m = Measure1D.random_feasible(dom, 64, np.random.default_rng(11))
    qf = quantile_of(m, 4096)
    back = density_of(qf, n_cells=64)
    assert back.total_mass() == pytest.approx(1.0, abs=1e-9)
    # one sample of mass is the quantization unit of the round trip
    assert abs(back.exit_mass - m.exit_mass) <= 1.0 / 4096 + 1e-12
    cell_gap = np.abs(back.cell_masses() - m.cell_masses()).max()
    assert cell_gap <= 2.0 / 4096


def test_quantile_of_rejects_non_probability():
    dom = Domain1D(0.0, 2.0, "flat", None, False)
    m = Measure1D.uniform(dom, 0.3, 16)  # mass 0.6
    with pytest.raises(MassMismatchError):
        quantile_of(m, 64)


def test_quantile_of_rejects_a_nan_total():
    m = Measure1D.uniform(Domain1D(0.0, 2.0, "flat", None, True), 0.5, 16)
    # a field set after construction skips the constructor's checks
    m.exit_mass = np.nan
    with pytest.raises(MassMismatchError):
        quantile_of(m, 64)


def test_exit_atom_enters_cdf_and_quantiles():
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    m = Measure1D.uniform(dom, 0.375, 16, exit_mass=0.25)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert float(m.cdf(1.0)) >= 0.25
    qf = quantile_of(m, 128)
    plateau = qf.q[qf.q <= dom.a + 1e-12]
    assert plateau.size == qf.exit_plateau == 32  # 0.25 * 128


def test_one_free_sample_bins_as_a_saturated_slice():
    """With every sample but the last pinned on the door, the exit holds
    all but ``1/n`` of the mass and the free sample's ``1/n`` fills the
    slice ``[z - ds/2, z + ds/2]`` at density one, as if its neighbours
    were saturated: here the two cells that the slice covers, at
    densities 0.1 and 0.9."""
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    cells = CellGeometry(dom, 16)
    q = np.full(8, dom.a)
    q[-1] = 2.3
    edges, mass, exit_mass = bin_quantiles_to_cells(q, 7, cells)
    assert exit_mass == 7 / 8
    assert edges[9] < 2.3 - 1 / 16 and 2.3 + 1 / 16 < edges[11]
    assert mass[9] == pytest.approx(0.0125, abs=1e-15)
    assert mass[10] == pytest.approx(0.1125, abs=1e-15)
    assert np.count_nonzero(mass) == 2


@pytest.mark.parametrize("n_cells", [16, 512, 4096])
def test_lowest_lone_sample_fills_one_sample_of_capacity(n_cells):
    """One interior sample at its lowest position ``z = ds/2`` on the
    saturated corridor: its mass fills ``[0, ds]`` at density one,
    however fine the cells, where the door's cells hold less than ``ds``."""
    dom = saturated_exit_preset().domain()
    n = 64
    ds = 1.0 / n
    q = np.full(n, dom.a)
    q[-1] = float(dom.inv_cumweight(0.5 * ds))
    m = density_of(QuantileFn(dom, q, n - 1), n_cells)
    assert m.exit_mass == (n - 1) / n
    assert m.total_mass() == pytest.approx(1.0, abs=1e-15)
    assert m.rho.max() <= 1.0
    z_lo = CellGeometry(dom, n_cells).z_edges[:-1]
    assert np.all(m.cell_masses()[z_lo >= ds] == 0.0)


def test_interface_estimate_block_edge():
    dom = Domain1D(0.0, 2.0, "flat", None, False)
    rho = np.where(np.arange(20) < 7, 1.0, 0.2)
    rho[7:] *= 0.3 / 0.2  # keep mass sane, still below threshold
    m = Measure1D(dom, np.linspace(0.0, 2.0, 21), np.clip(rho, 0.0, 1.0))
    assert m.interface_estimate() == pytest.approx(m.edges[7], abs=1e-15)
    flat = Measure1D.uniform(dom, 0.5, 20)
    assert flat.interface_estimate() == pytest.approx(dom.a, abs=1e-15)


def test_interface_estimate_skips_boundary_cut_cell():
    # a saturated block whose outer cell is only partially covered still
    # reports the outermost saturated edge, not the first dip
    dom = Domain1D(0.0, 2.0, "flat", None, False)
    rho = np.array([0.4] + [1.0] * 5 + [0.55] + [1.0] * 2 + [0.0] * 11)
    m = Measure1D(dom, np.linspace(0.0, 2.0, 21), rho)
    assert m.interface_estimate() == pytest.approx(m.edges[9], abs=1e-15)


def test_csv_roundtrip_bit_exact():
    dom = Domain1D(1.0, 3.0, "radial", 1.0 / 3.0, True)
    m = Measure1D.random_feasible(dom, 32, np.random.default_rng(3))
    buf = io.StringIO(m.to_csv_string())
    back = Measure1D.from_csv(buf, dom)
    assert np.array_equal(back.edges, m.edges)
    assert np.array_equal(back.rho, m.rho)
    assert back.exit_mass == m.exit_mass
    assert back.to_csv_string() == m.to_csv_string()


def test_csv_accepts_path_objects(tmp_path):
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    m = Measure1D.random_feasible(dom, 16, np.random.default_rng(4))
    path = tmp_path / "m.csv"
    m.to_csv(path)
    back = Measure1D.from_csv(path, dom)
    assert back.to_csv_string() == m.to_csv_string()


def test_csv_without_cells_is_rejected():
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    with pytest.raises(FeasibilityError):
        Measure1D.from_csv(io.StringIO("r_left,r_right,rho\n"), dom)


@pytest.mark.parametrize("row", ["1,2", "exit_mass,x,", "exit_mass", "0.5,1.0,abc"])
def test_csv_malformed_row_names_its_line(row):
    dom = Domain1D(0.0, 1.0, "flat", None, True)
    text = f"r_left,r_right,rho\n0.0,0.5,0.5\n{row}\n0.5,1.0,0.5\n"
    with pytest.raises(FeasibilityError, match="line 3"):
        Measure1D.from_csv(io.StringIO(text), dom)


def test_spill_excess_conserves_mass_and_caps():
    dW = np.full(8, 0.25)
    rho = np.array([1.2, 1.0, 0.9, 0.3, 0.0, 1.1, 0.8, 0.2])
    out = _spill_excess(rho.copy(), dW)
    assert out.max() <= 1.0 + 1e-12
    assert float(out @ dW) == pytest.approx(float(rho @ dW), abs=1e-12)
    # overflow lands in the nearest cells with room
    assert out[2] == pytest.approx(1.0, abs=1e-12)


def _walk_spill(rho, dW):
    """Nearest-room spill walk (the oracle): each cell's excess fills the
    nearest cells with room, in any run, ties toward the door."""
    rho = rho.copy()
    excess = np.clip(rho - 1.0, 0.0, None) * dW
    rho = np.minimum(rho, 1.0)
    room = (1.0 - rho) * dW
    roomy = np.nonzero(room > 0.0)[0]
    for i in np.nonzero(excess > 0.0)[0]:
        need = excess[i]
        lt = int(np.searchsorted(roomy, i)) - 1
        rt = lt + 1
        while need > 1e-18 and (lt >= 0 or rt < len(roomy)):
            if rt >= len(roomy) or (lt >= 0 and i - roomy[lt] <= roomy[rt] - i):
                j, lt = roomy[lt], lt - 1
            else:
                j, rt = roomy[rt], rt + 1
            take = min(need, room[j])
            rho[j] += take / dW[j]
            room[j] -= take
            need -= take
    return rho


def _binned_runs(rng, slack):
    """Runs of saturated cells, each value off by up to ``slack``, with a
    few partly filled cells on one side, separated by empty cells; cell
    capacities grow outward as on a radial domain."""
    cells, runs = [], []
    while len(cells) < 300:
        sat = list(1.0 + slack * rng.uniform(-1.0, 1.0, int(rng.integers(0, 60))))
        part = list(rng.uniform(0.05, 0.95, int(rng.integers(1, 5))))
        run = sat + part if rng.uniform() < 0.5 else part + sat
        runs.append((len(cells), len(cells) + len(run)))
        cells += run + [0.0] * int(rng.integers(1, 4))
    if rng.uniform() < 0.5:  # let the last run end at R
        cells = cells[: runs[-1][1]]
    if rng.uniform() < 0.5:  # or the first one start at a
        cells, runs = cells[runs[1][0]:], [(s - runs[1][0], e - runs[1][0]) for s, e in runs[1:]]
    dW = np.diff(np.linspace(1.0, float(rng.uniform(1.5, 10.0)), len(cells) + 1) ** 2)
    return np.array(cells), dW, runs


@pytest.mark.parametrize("slack", [1e-15, 5e-13, 1e-9, 1e-6])
def test_spill_excess_is_a_capped_envelope_within_each_run(slack):
    for seed in range(25):
        rho, dW, runs = _binned_runs(np.random.default_rng(seed), slack)
        out = _spill_excess(rho, dW)
        assert out.max() <= 1.0  # exactly, before Measure1D clips anything
        assert np.array_equal(out > 0.0, rho > 0.0)
        total = math.fsum(rho * dW)
        assert math.fsum(out * dW) == pytest.approx(total, rel=1e-15, abs=0.0)
        for s, e in runs:
            run_mass = math.fsum(rho[s:e] * dW[s:e])
            assert math.fsum(out[s:e] * dW[s:e]) == pytest.approx(run_mass, rel=1e-15, abs=0.0)
        # no cell moves by more than all the excess the walk moves
        excess = math.fsum(np.clip(rho - 1.0, 0.0, None) * dW)
        assert np.abs((out - _walk_spill(rho, dW)) * dW).max() <= excess
        # cells below the cap only gain
        assert np.all(out[rho <= 1.0] >= rho[rho <= 1.0])


def _spill_reference(rho, dW):
    """``_spill_excess`` as it read with ``np.clip``, concatenated running
    sums and run starts, kept as the bitwise reference."""
    gap = rho * dW - dW
    occupied = rho > 0.0
    wall = 2.0 * np.clip(gap, 0.0, None).sum()
    g = np.concatenate([[0.0], np.cumsum(np.where(occupied, np.maximum(gap, -wall), -wall))])
    start = np.append(occupied & ~np.concatenate([[False], occupied[:-1]]), False)
    pin = np.minimum.accumulate(np.where(start, g, np.inf))
    capped = np.minimum(np.maximum.accumulate(g[::-1])[::-1], pin)
    shift = np.maximum(capped, g[-1]) - g
    return np.minimum(rho + np.diff(shift) / dW, 1.0)


@pytest.mark.parametrize("slack", [1e-15, 1e-9, 1e-6])
def test_spill_excess_matches_the_concatenated_formula(slack):
    for seed in range(25):
        rho, dW, _ = _binned_runs(np.random.default_rng(seed), slack)
        out, want = _spill_excess(rho, dW), _spill_reference(rho, dW)
        assert np.array_equal(out.view(np.int64), want.view(np.int64))


def test_clip_matches_np_clip_bit_for_bit():
    """Signed zeros, NaN and values on a bound come out of ``_clip`` as
    out of ``np.clip``."""
    rng = np.random.default_rng(3)
    pool = np.array([-0.0, 0.0, -1.0, 1.0, 0.5, 2.0, np.nan, np.inf, -np.inf])
    for lo, hi in [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (0.5, 2.0)]:
        for n in (1, 3, 8, 17, 64):
            x = rng.choice(pool, n)
            assert np.array_equal(_clip(x, lo, hi).view(np.int64), np.clip(x, lo, hi).view(np.int64))


def test_spill_excess_passes_a_full_runs_rest_past_it():
    dW = np.full(6, 0.25)
    # cells 2-4 have no room: they end full, their rest (1e-12) fills cell 5
    rho = np.array([0.5, 0.0, 1.0 + 2e-12, 1.0, 1.0 + 2e-12, 0.0])
    out = _spill_excess(rho, dW)
    assert np.array_equal(out[:5], [0.5, 0.0, 1.0, 1.0, 1.0])
    assert out[5] * 0.25 == pytest.approx(1e-12, rel=1e-3)
    assert math.fsum(out * dW) == pytest.approx(math.fsum(rho * dW), rel=1e-15)
    # a run that ends at R passes its rest to the empty cell before it
    out = _spill_excess(rho[:5], dW[:5])
    assert np.array_equal(out[2:], [1.0, 1.0, 1.0]) and out[0] == 0.5
    assert out[1] * 0.25 == pytest.approx(1e-12, rel=1e-3)
    # with no empty cell on either side, or one too small, nothing can take it
    with pytest.raises(FeasibilityError):
        _spill_excess(rho[2:5], dW[2:5])
    with pytest.raises(FeasibilityError):
        _spill_excess(rho, np.array([0.25, 0.25, 0.25, 0.25, 0.25, 1e-13]))


def test_measure_arrays_are_frozen():
    dom = Domain1D(0.0, 1.0, "flat", None, False)
    m = Measure1D.uniform(dom, 1.0, 8)
    with pytest.raises(ValueError):
        m.rho[0] = 0.5
    # the measure freezes copies: the caller's arrays stay writeable
    edges, rho = np.linspace(0.0, 1.0, 5), np.full(4, 1.0)
    m = Measure1D(dom, edges, rho)
    edges[1], rho[0] = 0.3, 0.5
    assert m.edges[1] == 0.25 and m.rho[0] == 1.0
    for arr in (m.edges, m.rho):
        with pytest.raises(ValueError):
            arr[0] = 0.5


FLAT2 = Domain1D(0.0, 2.0, "flat", None, False)


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: Measure1D(FLAT2, [0.0, 1.0, 2.0], [0.5]), FeasibilityError,
                 "edges must be (n+1,) and rho (n,)", id="rho-shape"),
    pytest.param(lambda: Measure1D.random_feasible(Domain1D(0.0, 0.5, "flat", None, False), 8,
                                                   np.random.default_rng(0)),
                 FeasibilityError, "domain capacity too small", id="random-capacity"),
    pytest.param(lambda: Measure1D.from_csv(io.StringIO("a,b,c\n"), FLAT2), FeasibilityError,
                 "bad header", id="csv-header"),
    pytest.param(lambda: Measure1D.from_csv(io.StringIO("r_left,r_right,rho\n0,1,0.5\n1.5,2,0.5\n"),
                                            FLAT2),
                 FeasibilityError, "not contiguous", id="csv-gap"),
    pytest.param(lambda: QuantileFn(FLAT2, np.array([0.5, 0.4])), MonotonicityError,
                 "nondecreasing", id="quantiles-decrease"),
    pytest.param(lambda: quantile_of(Measure1D.uniform(FLAT2, 0.5, 4), 1), FeasibilityError,
                 "at least 2 quantile samples", id="one-sample"),
    pytest.param(lambda: density_of(QuantileFn(FLAT2, np.full(64, 1.0)), 8), FeasibilityError,
                 "overfill cells", id="cells-overfilled"),
])
def test_every_input_check_raises_its_class(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert message in str(info.value)
