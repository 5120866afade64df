import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crowdflow1d.errors import FeasibilityError, MassMismatchError
from crowdflow1d.measures import Domain1D, Measure1D, quantile_of
from crowdflow1d.transport import (
    c_transform,
    dual_value,
    exit_mass_stability_constant,
    kantorovich_potential,
    w2_1d,
    w2_lp_oracle,
)

FLAT3 = Domain1D(0.0, 3.0, "flat", None, False)


def _block_measure(lo, hi, n_cells=30):
    edges = np.linspace(FLAT3.a, FLAT3.R, n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    rho = np.where((mids > lo) & (mids < hi), 1.0, 0.0)
    return Measure1D(FLAT3, edges, rho)


def test_identical_measures_have_zero_distance():
    m = _block_measure(0.0, 1.0)
    plan = w2_1d(m, m)
    assert plan.w2 == 0.0 and plan.w1 == 0.0
    assert np.allclose(plan.map_samples[:, 0], plan.map_samples[:, 1])
    assert plan.stay_on_exit


def test_translated_block_distance_is_the_shift():
    src = _block_measure(0.0, 1.0)
    dst = _block_measure(2.0, 3.0)
    plan = w2_1d(src, dst)
    assert plan.w2 == pytest.approx(2.0, abs=1e-12)
    assert plan.w1 == pytest.approx(2.0, abs=1e-12)


def test_lp_oracle_hand_values():
    assert w2_lp_oracle([(0.0, 1.0)], [(0.7, 1.0)]) == pytest.approx(0.7, abs=1e-9)
    assert w2_lp_oracle([(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.5), (1.0, 0.5)]) == (
        pytest.approx(0.0, abs=1e-9)
    )
    # both half-masses travel 1/2: sqrt(0.5*0.25 + 0.5*0.25) = 0.5
    assert w2_lp_oracle([(0.0, 0.5), (1.0, 0.5)], [(0.5, 1.0)]) == pytest.approx(
        0.5, abs=1e-9
    )


def test_lp_oracle_rejects_unbalanced_and_large():
    with pytest.raises(MassMismatchError):
        w2_lp_oracle([(0.0, 1.0)], [(1.0, 0.5)])
    big = [(float(i), 1.0) for i in range(200)]
    with pytest.raises(FeasibilityError):
        w2_lp_oracle(big, big)


@pytest.mark.parametrize("src, dst", [
    ([(np.nan, 1.0)], [(1.0, 1.0)]),
    ([(0.0, 1.0)], [(np.inf, 1.0)]),
    ([(0.0, np.nan)], [(1.0, 1.0)]),
    (np.zeros((0, 2)), [(1.0, 1.0)]),
    ([(0.0, 1.0)], np.zeros((0, 2))),
])
def test_non_finite_or_empty_atoms_are_rejected(src, dst):
    with pytest.raises(FeasibilityError, match="atom"):
        w2_1d(src, dst)
    with pytest.raises(FeasibilityError, match="atom"):
        w2_lp_oracle(src, dst)


def test_atoms_pair_only_with_atoms():
    m = _block_measure(0.0, 1.0)
    atoms = [(0.5, 1.0)]
    for src, dst in ((m, atoms), (atoms, m), (quantile_of(m, 64), atoms)):
        with pytest.raises(FeasibilityError, match="atom lists"):
            w2_1d(src, dst)


@given(st.integers(0, 10**6))
def test_monotone_matches_lp_oracle(seed):
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    x = rng.uniform(0.0, 3.0, nx)
    y = rng.uniform(0.0, 3.0, ny)
    p = rng.uniform(0.1, 1.0, nx)
    p /= p.sum()
    q = rng.uniform(0.1, 1.0, ny)
    q /= q.sum()
    fast = w2_1d(list(zip(x, p)), list(zip(y, q))).w2
    assert abs(fast - w2_lp_oracle(list(zip(x, p)), list(zip(y, q)))) <= 1e-9


def test_local_exchange_never_improves(rng):
    # optimality of the monotone plan under pairwise swaps
    r = np.random.default_rng(23)
    for _ in range(25):
        x = np.sort(r.uniform(0, 3, 6))
        y = np.sort(r.uniform(0, 3, 6))
        p = r.uniform(0.1, 1, 6)
        p /= p.sum()
        plan = w2_1d(list(zip(x, p)), list(zip(y, p)))
        xs, ys = plan.map_samples[:, 0], plan.map_samples[:, 1]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                swap = (xs[i] - ys[j]) ** 2 + (xs[j] - ys[i]) ** 2
                keep = (xs[i] - ys[i]) ** 2 + (xs[j] - ys[j]) ** 2
                assert swap >= keep - 1e-12


@given(st.integers(0, 10**6))
def test_metric_inequalities(seed):
    rng = np.random.default_rng(seed)
    dom = Domain1D(0.5, 3.5, "radial", 0.3, True)
    ms = [Measure1D.random_feasible(dom, 24, rng) for _ in range(3)]
    d01 = w2_1d(ms[0], ms[1], n_samples=1024)
    d12 = w2_1d(ms[1], ms[2], n_samples=1024)
    d02 = w2_1d(ms[0], ms[2], n_samples=1024)
    assert d02.w2 <= d01.w2 + d12.w2 + 1e-9
    assert d02.w1 <= d01.w1 + d12.w1 + 1e-9
    for d in (d01, d12, d02):
        assert 0.0 <= d.w1 <= d.w2 + 1e-12
        assert d.w2**2 <= dom.diameter * d.w1 + 1e-12


def test_symmetry_of_distances():
    r = np.random.default_rng(4)
    dom = Domain1D(0.0, 2.0, "flat", None, False)
    m1 = Measure1D.random_feasible(dom, 32, r)
    m2 = Measure1D.random_feasible(dom, 32, r)
    fwd = w2_1d(m1, m2, n_samples=512)
    bwd = w2_1d(m2, m1, n_samples=512)
    assert fwd.w2 == pytest.approx(bwd.w2, abs=1e-14)
    assert fwd.w1 == pytest.approx(bwd.w1, abs=1e-14)


def test_potential_of_identity_is_flat_on_support():
    m = _block_measure(0.5, 1.5)
    pot = kantorovich_potential(m, m, n_samples=8192)
    inside = (pot.r > 0.55) & (pot.r < 1.45)
    # the dual chain accumulates one half squared sample gap per step
    assert pot.phi[inside].max() - pot.phi[inside].min() <= 1e-4
    assert np.abs(pot.phi_prime[inside]).max() <= 1e-3
    assert pot(FLAT3.R) == pytest.approx(0.0, abs=1e-15)


def test_potential_of_translation_has_constant_slope():
    src = _block_measure(0.2, 1.2)
    dst = _block_measure(1.6, 2.6)
    pot = kantorovich_potential(src, dst, n_samples=4096)
    inside = (pot.r > 0.3) & (pot.r < 1.1)
    # phi'(r) = r - t(r) = -shift on the support, up to half a sample gap
    assert np.allclose(pot.phi_prime[inside], -1.4, rtol=0, atol=5e-4)
    assert np.abs(pot.phi_prime).max() <= FLAT3.diameter + 1e-12


def test_duality_gap_vanishes(rng):
    dom = Domain1D(1.0, 4.0, "radial", 0.2, True)
    r = np.random.default_rng(8)
    for _ in range(5):
        src = Measure1D.random_feasible(dom, 32, r)
        dst = Measure1D.random_feasible(dom, 32, r)
        dual, half = dual_value(src, dst)
        if half > 1e-12:
            assert dual == pytest.approx(half, rel=1e-6)


def test_c_transform_is_tight_on_the_map():
    src = _block_measure(0.0, 1.0)
    dst = _block_measure(1.0, 2.0)
    qs = quantile_of(src, 512)
    qd = quantile_of(dst, 512)
    pot = kantorovich_potential(qs, qd)
    psi = c_transform(pot, qd.q)
    lhs = np.interp(qs.q, pot.r, pot.phi) + psi
    rhs = 0.5 * (qs.q - qd.q) ** 2
    # phi(x) + psi(t(x)) = c(x, t(x)) along the plan
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_stay_on_exit_flags_returning_mass():
    dom = Domain1D(1.0, 3.0, "flat", None, True)
    src = Measure1D.uniform(dom, 0.35, 20, exit_mass=0.3)
    dst = Measure1D.uniform(dom, 0.45, 20, exit_mass=0.1)
    # destination exit mass shrank: some door mass must re-enter
    assert not w2_1d(src, dst, n_samples=512).stay_on_exit
    grown = Measure1D.uniform(dom, 0.25, 20, exit_mass=0.5)
    assert w2_1d(src, grown, n_samples=512).stay_on_exit


def test_stability_constant_hand_values():
    flat = Domain1D(0.0, 2.0, "flat", None, True)
    assert exit_mass_stability_constant(flat) == pytest.approx(3.0 ** (1 / 3))
    rad = Domain1D(1.0, 3.0, "radial", 0.5, True)
    # strip capacity bound c = half_angle * (a + R) = 2
    assert exit_mass_stability_constant(rad) == pytest.approx(12.0 ** (1 / 3))


def test_domain_mismatch_raises():
    """Every sampled transport pair is checked for one domain before it
    is sampled, whether it is given as measures or as quantile functions."""
    m1 = Measure1D.uniform(Domain1D(0.0, 2.0, "flat", None, False), 0.5, 8)
    m2 = Measure1D.uniform(Domain1D(0.0, 3.0, "flat", None, False), 1.0 / 3.0, 8)
    with pytest.raises(FeasibilityError):
        w2_1d(m1, m2)
    m1 = Measure1D.uniform(Domain1D(1.0, 10.0, "flat", None, False), 1.0 / 9.0, 8)
    m2 = Measure1D.uniform(Domain1D(0.0, 5.0, "flat", None, False), 0.2, 8)
    for src, dst in ((m1, m2), (quantile_of(m1, 64), quantile_of(m2, 64)),
                     (m1, quantile_of(m2, 64))):
        for fn in (w2_1d, kantorovich_potential, dual_value):
            with pytest.raises(FeasibilityError, match="different domains"):
                fn(src, dst)


@pytest.mark.parametrize("src, dst, error, message", [
    pytest.param(quantile_of(_block_measure(0.5, 1.5), 64),
                 quantile_of(_block_measure(0.5, 1.5), 128), FeasibilityError,
                 "quantile sample counts differ", id="sample-counts"),
    pytest.param([(1.0, 1.0)], [(2.0, 0.5)], MassMismatchError, "masses differ: 1.0 vs 0.5",
                 id="atom-masses"),
])
def test_every_input_check_raises_its_class(src, dst, error, message):
    with pytest.raises(error) as info:
        w2_1d(src, dst)
    assert message in str(info.value)
