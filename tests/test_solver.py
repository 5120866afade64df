import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from crowdflow1d import _solver, jko
from crowdflow1d._solver import ChainProjector, minimize_free, solve_step, step_objective
from crowdflow1d.errors import SolverFailureError
from crowdflow1d.harness import _rand_domain
from crowdflow1d.jko import PotentialD, run_flow, step_size_cap
from crowdflow1d.measures import Domain1D, Measure1D, quantile_of

N_INSTANCES = 200
N_BLOCKS = 300
N_DISTANCE_FLOWS = 60
N_TABLE_FLOWS = 10
N_REPEATS = 400
N_AFFINE_FLOWS = 20
N_SEARCH_FLOWS = 24


def _instance(rng):
    """Small exit domain, pinned prefix and nonnegative targets.

    Capacities run from barely enough for the unpinned samples up to
    three times that; clustered targets force long pooled blocks.
    """
    n = int(rng.integers(1, 11))
    m = int(rng.integers(0, n))
    cap = (n - m) / n * float(rng.uniform(1.0, 3.0))
    if rng.uniform() < 0.5:
        a = float(rng.uniform(0.0, 2.0))
        dom = Domain1D(a, a + cap, "flat", None, True)
    else:
        al = float(rng.uniform(0.05, 0.5))
        a = float(rng.uniform(0.1, 1.5))
        dom = Domain1D(a, float(np.sqrt(a * a + cap / al)), "radial", al, True)
    span = dom.R - dom.a
    if rng.uniform() < 0.5:
        centre = rng.uniform(dom.a, dom.R)
        x = centre + 0.05 * span * rng.normal(size=n)
    else:
        x = rng.uniform(dom.a - 0.5 * span, dom.R + 0.5 * span, size=n)
    return dom, m, np.maximum(x, 0.0)


def _slsqp(dom, m, x):
    """The projection as a generic problem in ``z = W(Q)``; convex for ``x >= 0``."""
    n = x.size
    ds = 1.0 / n
    k = n - m
    xs = x[m:]
    cap = dom.total_weight

    def fun(z):
        return float(((dom.inv_cumweight(z) - xs) ** 2).sum())

    def jac(z):
        q = dom.inv_cumweight(z)
        return 2.0 * (q - xs) / dom.weight(q)

    diff = np.eye(k, k, 1)[:-1] - np.eye(k)[:-1]
    cons = {"type": "ineq", "fun": lambda z: diff @ z - ds, "jac": lambda z: diff}
    z0 = 0.5 * ds + ds * np.arange(k) + 0.5 * (cap - k * ds)
    res = minimize(fun, z0, jac=jac, method="SLSQP", constraints=[cons] if k > 1 else [],
                   bounds=[(0.5 * ds, cap - 0.5 * ds)] * k,
                   options={"ftol": 1e-14, "maxiter": 1000})
    return res.success, dom.inv_cumweight(res.x), res.fun


def test_projection_matches_a_generic_constrained_solver():
    problems, compared = [], 0
    for i in range(N_INSTANCES):
        dom, m, x = _instance(np.random.default_rng([11, i]))
        n = x.size
        ds = 1.0 / n
        q = ChainProjector(dom, n).project(x, m)
        z = dom.cumweight(q[m:])
        tol = 1e-12 * max(1.0, dom.total_weight)
        feasible = (
            np.all(q[:m] == dom.a)
            and np.all(np.diff(z) >= ds - tol)
            and z.min() >= 0.5 * ds - tol
            and z.max() <= dom.total_weight - 0.5 * ds + tol
        )
        if not feasible:
            problems.append(f"instance {i}: projection infeasible")
            continue
        ok, q_ref, obj_ref = _slsqp(dom, m, x)
        if not ok:
            continue
        compared += 1
        obj = float(((q[m:] - x[m:]) ** 2).sum())
        if obj > obj_ref * (1.0 + 1e-12) + 1e-24:
            problems.append(f"instance {i}: objective {obj!r} above SLSQP's {obj_ref!r}")
        gap = float(np.abs(q[m:] - q_ref).max())
        if gap > 1e-6:
            problems.append(f"instance {i}: positions differ by {gap:.2e}")
    assert not problems, problems
    assert compared >= 0.9 * N_INSTANCES


def _on_lower_bound(self, t, m, solve):
    """A wrong trial partition: every sample in one block on its lower bound."""
    return np.array([m]), np.array([self.n - 1]), np.array([self.lb[m]])


def test_projection_falls_back_when_the_trial_is_wrong(monkeypatch):
    """A trial partition that puts every sample in one block on its
    lower bound is wrong on most instances; the certificate must reject
    it and exact pooling must still give the projection."""
    expected = []
    for i in range(N_INSTANCES):
        dom, m, x = _instance(np.random.default_rng([11, i]))
        expected.append(ChainProjector(dom, x.size).project(x, m))
    honest_pool = ChainProjector._pool
    pools = []

    def counted(self, singles, m, solve):
        pools[-1] += 1
        return honest_pool(self, singles, m, solve)

    monkeypatch.setattr(ChainProjector, "_trial", _on_lower_bound)
    monkeypatch.setattr(ChainProjector, "_pool", counted)
    problems, fallbacks = [], 0
    for i in range(N_INSTANCES):
        dom, m, x = _instance(np.random.default_rng([11, i]))
        pools.append(0)
        q = ChainProjector(dom, x.size).project(x, m)
        gap = float(np.abs(q - expected[i]).max())
        if gap > 1e-12 * max(1.0, dom.R):
            problems.append(f"instance {i}: {gap:.2e} from the exact projection")
        if not pools[-1]:
            continue
        fallbacks += 1
        ok, q_ref, _ = _slsqp(dom, m, x)
        if ok and float(np.abs(q[m:] - q_ref).max()) > 1e-6:
            problems.append(f"instance {i}: fallback differs from SLSQP")
    assert not problems, problems
    assert fallbacks >= 10


def _reference_block(projector, lo, hi, x):
    """The radial block solve by endpoint tests and ``brentq``."""
    ylo, yhi = projector.lb[lo], projector.ub[hi]

    def grad(y):
        return projector._grad_sum(y, lo, hi, x)

    if grad(ylo) >= 0.0:
        return ylo
    if grad(yhi) <= 0.0:
        return yhi
    return brentq(grad, ylo, yhi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)


def _radial_block(rng):
    """Radial domain (apex or not), block ``lo..hi`` and its targets."""
    n = int(rng.integers(2, 41))
    al = float(rng.uniform(0.05, 0.5))
    a = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.1, 2.0))
    cap = float(rng.uniform(1.0, 3.0))
    dom = Domain1D(a, float(np.sqrt(a * a + cap / al)), "radial", al, True)
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo, n))
    kind = rng.uniform()
    if kind < 0.2:  # near the door: clamps at the lower bound
        x = rng.uniform(0.0, dom.a + 0.01, size=n)
    elif kind < 0.4:  # past the far wall: clamps at the upper bound
        x = rng.uniform(dom.R, 2.0 * dom.R, size=n)
    else:
        x = np.sort(rng.uniform(dom.a, dom.R, size=n))[::-1].copy()
    return ChainProjector(dom, n), lo, hi, x


def test_newton_block_solve_matches_brentq(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return brentq(*args, **kwargs)

    monkeypatch.setattr(_solver, "brentq", counting)
    problems, where = [], {"lower": 0, "upper": 0, "inside": 0}
    for i in range(N_BLOCKS):
        projector, lo, hi, x = _radial_block(np.random.default_rng([13, i]))
        y = projector._solve_block(lo, hi, x, None)
        ref = _reference_block(projector, lo, hi, x)
        if abs(y - ref) > 1e-13 * max(1.0, abs(ref)):
            problems.append(f"block {i}: {y!r} against brentq's {ref!r}")
        if ref == projector.lb[lo]:
            where["lower"] += 1
        elif ref == projector.ub[hi]:
            where["upper"] += 1
        else:
            where["inside"] += 1
    assert not problems, problems
    assert min(where.values()) >= 30, where
    assert not calls
    # a negative target breaks concavity; that block goes to brentq
    dom = Domain1D(0.0, 3.0, "radial", 0.3, False)
    projector = ChainProjector(dom, 4)
    x = np.array([-0.1, 2.5, 2.5, 2.5])
    y = projector._solve_block(0, 3, x, None)
    assert calls
    assert projector.lb[0] < y < projector.ub[3]
    assert y == _reference_block(projector, 0, 3, x)


def test_certificate_checks_chain_order():
    """Singletons at their own targets have zero gradient, so only the
    order check can reject them when the targets violate the chain."""
    dom = Domain1D(1.0, 4.0, "radial", 0.3, True)
    n, m = 6, 1
    projector = ChainProjector(dom, n)
    x = np.array([1.0, 3.0, 2.9, 2.8, 3.5, 3.6])
    y_s = (dom.cumweight(x) - projector.offs)[m:]
    assert np.all((y_s > projector.lb[m:]) & (y_s < projector.ub[m:]))
    assert np.any(np.diff(y_s) < 0.0)
    idx = np.arange(m, n)
    t = projector._target(x)
    assert projector._certified(t, m, idx, idx, y_s) is None
    with pytest.raises(SolverFailureError, match="chain order") as err:
        projector._certified(t, m, idx, idx, y_s, strict=True)
    assert err.value.m == m


def _suffix_sum_certificate(projector, q, x, m, lo_s, hi_s, y_s):
    """The multiplier certificate from reversed suffix sums, sample by sample."""
    sizes = hi_s - lo_s + 1
    tol = _solver.KKT_TOL * max(1.0, float(np.max(np.abs(x))))
    g = 2.0 * (q[m:] - x[m:]) / projector.domain.weight(q[m:])
    totals = np.add.reduceat(g, lo_s - m) if len(lo_s) else np.zeros(0)
    at_lb = y_s <= projector.lb[lo_s] + _solver.GAP_TOL
    at_ub = y_s >= projector.ub[hi_s] - _solver.GAP_TOL
    ok_end = ((at_lb & (totals >= -tol)) | (at_ub & (totals <= tol))
              | (np.abs(totals) <= tol))
    if not ok_end.all():
        bad = int(np.argmin(ok_end))
        return ("projection certificate failed at a block boundary", float(totals[bad]))
    if (sizes > 1).any():
        rev = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
        suffix = rev[: len(g)] - rev[np.repeat(hi_s, sizes) - m + 1]
        beta = np.repeat(np.where(at_ub, np.maximum(-totals, 0.0), 0.0), sizes)
        interior = np.arange(len(g)) > np.repeat(lo_s, sizes) - m
        worst = float((suffix + beta)[interior].min()) if interior.any() else 0.0
        if worst < -tol:
            return ("projection certificate failed inside a block", worst)
    return None


@pytest.mark.parametrize("trial", ["honest", "on lower bound"])
def test_certificate_matches_the_suffix_sum_reference(monkeypatch, trial):
    """The running-sum certificate gives the verdict of the suffix-sum
    one on every partition that projections of the oracle and repeat
    instances certify, and its gap on a failure agrees to rounding.  The
    trial that puts every sample in one block on its lower bound fails
    both at a block boundary and inside a block."""
    honest = ChainProjector._kkt_violation
    problems, verdicts = [], Counter()

    def checked(self, q, t, m, lo_s, hi_s, y_s):
        got = honest(self, q, t, m, lo_s, hi_s, y_s)
        ref = _suffix_sum_certificate(self, q, t.x, m, lo_s, hi_s, y_s)
        verdicts[ref and ref[0]] += 1
        if (got and got[0]) != (ref and ref[0]):
            problems.append(f"instance {instance}: {got} against the reference's {ref}")
        elif got and abs(got[1] - ref[1]) > 1e-12 * t.scale:
            problems.append(f"instance {instance}: gap {got[1]!r} against {ref[1]!r}")
        return got

    monkeypatch.setattr(ChainProjector, "_kkt_violation", checked)
    if trial != "honest":
        monkeypatch.setattr(ChainProjector, "_trial", _on_lower_bound)
    for seed, count, make in ((11, N_INSTANCES, _instance), (23, N_REPEATS, _repeat_instance)):
        for i in range(count):
            instance = (seed, i)
            dom, m, *targets = make(np.random.default_rng([seed, i]))
            for x in targets:
                ChainProjector(dom, x.size).project(x, m)
    assert not problems, problems
    assert verdicts[None] >= 1000, verdicts
    if trial != "honest":
        assert verdicts["projection certificate failed at a block boundary"] >= 50, verdicts
        assert verdicts["projection certificate failed inside a block"] >= 20, verdicts


def _every_candidate(projector, q_prev, m_prev, D, tau):
    """Objective of every prefix ``m_prev..n`` along the scan's warm chain."""
    n = projector.n
    vals, warm = [], None
    for m in range(m_prev, n + 1):
        if m == n:
            q = np.full(n, projector.domain.a)
            val = step_objective(q, q_prev, D, tau, projector.ds)
        else:
            q, val = minimize_free(projector, q_prev, m, D, tau, warm=warm)
        vals.append(val)
        warm = q
    return np.array(vals)


def _convex_table(rng, dom):
    """Random convex piecewise-linear potential, minimal on the door."""
    k = int(rng.integers(2, 6))
    radii = np.concatenate([[dom.a], np.sort(rng.uniform(dom.a, dom.R, k - 1)), [dom.R]])
    slopes = np.sort(rng.uniform(0.1, 3.0, k))
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(radii))])
    return PotentialD.from_table(radii, values)


def test_exit_prefix_objective_is_unimodal(monkeypatch):
    """The prefix search returns the first candidate that does not lower
    the objective; that is the minimizer, and the search may skip
    candidates, only if no later pair of candidates drops either.  Every
    candidate of every step is evaluated here, each from the warm start
    of a scan, and every pair past the returned prefix is checked with
    the search's tie rule (280 steps, 26,369 such pairs, none drops)."""
    honest = jko.solve_step
    problems, steps = [], []

    def checked(projector, q_prev, m_prev, D, tau):
        q, m, val = honest(projector, q_prev, m_prev, D, tau)
        vals = _every_candidate(projector, q_prev, m_prev, D, tau)
        k = m - m_prev
        where = f"flow {len(steps) - 1}, m_prev={m_prev}, m={m}"
        if val != step_objective(q, q_prev, D, tau, projector.ds):
            problems.append(f"{where}: returned value is not the objective of q")
        if not (k + 1 == len(vals) or not vals[k + 1] < vals[k] - 1e-15):
            problems.append(f"{where}: the search stopped before a lower candidate")
        if not np.all(vals[1 : k + 1] < vals[:k] - 1e-15):
            problems.append(f"{where}: the search passed a non-improving candidate")
        if np.any(vals[k + 1 :] < vals[k:-1] - 1e-15):
            problems.append(f"{where}: a candidate pair past the prefix drops")
        if vals[k:].min() < vals[k] - 1e-15:
            problems.append(f"{where}: a later candidate is lower by "
                            f"{vals[k] - vals[k:].min():.2e}")
        steps[-1] += 1
        return q, m, val

    monkeypatch.setattr(jko, "solve_step", checked)
    cases = [(i, False, 128) for i in range(N_DISTANCE_FLOWS)]
    cases += [(i, True, 64) for i in range(N_TABLE_FLOWS)]
    for i, table, n in cases:
        rng = np.random.default_rng([17, int(table), i])
        dom = _rand_domain(rng, has_exit=True)
        rho0 = Measure1D.random_feasible(dom, 64, rng, exit_mass=float(rng.uniform(0.02, 0.3)))
        D = _convex_table(rng, dom) if table else PotentialD.distance_to_exit(dom)
        tau = float(rng.uniform(0.04, 0.15))
        steps.append(0)
        run_flow(rho0, D, tau, 4 * tau, n_samples=n, n_cells=64)
    assert not problems, problems
    assert sum(steps) == 4 * len(cases)


def _repeat_instance(rng):
    """Instance with a warm-up target projected before the target.

    Exit domains pin a prefix; domains without one start at a wall or
    at the apex, where targets may be negative.  The warm-up target is
    the target perturbed slightly (its blocks are usually the same) or
    shuffled (they usually are not).
    """
    n = int(rng.integers(2, 41))
    has_exit = bool(rng.uniform() < 0.5)
    m = int(rng.integers(0, n)) if has_exit else 0
    cap = (n - m) / n * float(rng.uniform(1.0, 3.0))
    if rng.uniform() < 0.5:
        a = float(rng.uniform(0.0, 2.0)) if has_exit else 0.0
        dom = Domain1D(a, a + cap, "flat", None, has_exit)
    else:
        al = float(rng.uniform(0.05, 0.5))
        a = float(rng.uniform(0.1, 1.5)) if has_exit else 0.0
        dom = Domain1D(a, float(np.sqrt(a * a + cap / al)), "radial", al, has_exit)
    span = dom.R - dom.a
    if rng.uniform() < 0.5:
        x = rng.uniform(dom.a, dom.R) + 0.05 * span * rng.normal(size=n)
    else:
        x = rng.uniform(dom.a - 0.5 * span, dom.R + 0.5 * span, size=n)
    if has_exit:
        x = np.maximum(x, 0.0)
    if rng.uniform() < 0.5:
        warm_up = x + 1e-6 * span * rng.normal(size=n)
    else:
        warm_up = rng.permutation(x)
    return dom, m, x, warm_up


@pytest.mark.parametrize("trial", ["honest", "on lower bound"])
def test_projection_depends_only_on_target_and_prefix(monkeypatch, trial):
    """Projecting a target after a warm-up target returns the same bits
    as a fresh projector, and so does projecting it again at other
    prefixes in shuffled order, which reuses the projector's memo of the
    target's arrays.  Projected gradient stops on a repeated target
    because projecting it again could only give the same projection.
    The trial that puts every sample in one block on its lower bound
    forces the exact fallback."""
    events = []
    honest_certified = ChainProjector._certified
    honest_pool = ChainProjector._pool

    def certified(self, t, m, lo_s, hi_s, y_s, strict=False):
        q = honest_certified(self, t, m, lo_s, hi_s, y_s, strict=strict)
        if q is not None:
            events.append("strict" if strict else "trial")
        return q

    def pool(self, singles, m, solve):
        events.append("pool")
        return honest_pool(self, singles, m, solve)

    monkeypatch.setattr(ChainProjector, "_certified", certified)
    monkeypatch.setattr(ChainProjector, "_pool", pool)
    if trial != "honest":
        monkeypatch.setattr(ChainProjector, "_trial", _on_lower_bound)
    problems, paths, kinds, hits = [], Counter(), Counter(), 0
    for i in range(N_REPEATS):
        dom, m, x, warm_up = _repeat_instance(np.random.default_rng([23, i]))
        fresh = ChainProjector(dom, x.size).project(x, m)
        projector = ChainProjector(dom, x.size)
        projector.project(warm_up, m)
        events.clear()
        warmed = projector.project(x, m)
        if "pool" in events:
            path = "fallback"
        else:
            path = "trial" if events == ["trial"] else "in order"
        paths[path, dom.weight_kind] += 1
        kinds[dom.weight_kind, dom.has_exit] += 1
        if not np.array_equal(warmed, fresh):
            problems.append(f"instance {i} ({path}): projection depends on the warm-up")
        # the target's arrays are kept for the next call and must not change
        memo = projector._memo
        for arr in (memo.x, memo.singles, memo.trial, memo.psum, *memo.fits.values()):
            if arr is not None:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        # nor may the caller's array, which it may overwrite for the next call
        scratch = warm_up.copy()
        projector.project(scratch, m)
        scratch[:] = x
        if not np.array_equal(projector.project(scratch, m), fresh):
            problems.append(f"instance {i}: the memo follows the caller's array")
        memo = projector._memo
        if not dom.has_exit:
            continue
        # the same target at other prefixes, as the candidates of one step
        # project it: every call reuses the memo and matches a fresh projector
        for k in np.random.default_rng([23, i, 1]).permutation(np.arange(m, x.size))[:4]:
            again = projector.project(x, int(k))
            if projector._memo is not memo:
                problems.append(f"instance {i}, prefix {k}: the memo was not reused")
            if not np.array_equal(again, ChainProjector(dom, x.size).project(x, int(k))):
                problems.append(f"instance {i}, prefix {k}: projection depends on the memo")
            hits += 1
    assert not problems, problems
    assert hits >= 400, hits
    assert min(kinds[kind] for kind in product(("flat", "radial"), (False, True))) >= 50, kinds
    if trial == "honest":
        assert min(paths["trial", kind] for kind in ("flat", "radial")) >= 50, paths
        assert paths["fallback", "radial"] >= 10, paths
    else:
        assert min(paths["fallback", kind] for kind in ("flat", "radial")) >= 20, paths


def test_flat_projections_never_fall_back(monkeypatch):
    """On flat domains the clipped isotonic regression is the exact
    projection, so its partition always passes the certificate."""
    pools, trials = [0], [0]
    honest_pool = ChainProjector._pool
    honest_trial = ChainProjector._trial

    def pool(self, singles, m, solve):
        pools[0] += 1
        return honest_pool(self, singles, m, solve)

    def trial(self, t, m, solve):
        trials[0] += 1
        return honest_trial(self, t, m, solve)

    monkeypatch.setattr(ChainProjector, "_pool", pool)
    monkeypatch.setattr(ChainProjector, "_trial", trial)
    for seed, count, make in ((11, N_INSTANCES, _instance), (23, N_REPEATS, _repeat_instance)):
        for i in range(count):
            dom, m, x = make(np.random.default_rng([seed, i]))[:3]
            if dom.weight_kind == "flat":
                ChainProjector(dom, x.size).project(x, m)
    assert pools[0] == 0
    assert trials[0] >= 200


def _dyadic_exit_domain(rng):
    """Exit domain whose door sits on a multiple of 1/4."""
    if rng.uniform() < 0.5:
        a = float(rng.integers(0, 9)) / 4.0
        return Domain1D(a, a + float(rng.uniform(1.5, 4.0)), "flat", None, True)
    al = float(rng.uniform(0.05, 0.5))
    a = float(rng.integers(1, 7)) / 4.0
    return Domain1D(a, float(np.sqrt(a * a + rng.uniform(1.5, 3.0) / al)), "radial", al, True)


def _equal_slope_table(rng, dom):
    """Table with 2-6 knots and one slope over the domain.

    Knots are spaced by a power of two from a door on a multiple of 1/4
    and the slope is a multiple of 1/4, so every knot, value and slope is
    exact: the table is affine with curvature bounds 0.
    """
    k = int(rng.integers(1, 6))
    h = 2.0 ** np.ceil(np.log2((dom.R - dom.a) / k))
    radii = dom.a + h * np.arange(k + 1)
    return PotentialD.from_table(radii, float(rng.integers(1, 13)) / 4.0 * (radii - dom.a))


def test_affine_potential_costs_one_projection(monkeypatch):
    """For an affine ``D`` the step objective is a squared distance to
    ``q_prev - tau*D'``, so one projection is the exact minimizer, and
    it is the same bits from any warm start."""
    honest_project = ChainProjector.project
    honest_minimize = _solver.minimize_free
    projections, problems, calls = [0], [], [0]

    def counted(self, x, m=0):
        projections[0] += 1
        return honest_project(self, x, m)

    def checked(projector, q_prev, m, D, tau, *, warm=None):
        expected = projector.project(q_prev - tau * D.grad(q_prev), m)
        projections[0] = 0
        q, val = honest_minimize(projector, q_prev, m, D, tau, warm=warm)
        where = f"flow {flow}, m={m}"
        if projections[0] != 1:
            problems.append(f"{where}: {projections[0]} projections")
        if not np.array_equal(q, expected):
            problems.append(f"{where}: not the projection of q_prev - tau*D'")
        wall = np.full_like(q_prev, projector.domain.R)
        if not np.array_equal(honest_minimize(projector, q_prev, m, D, tau, warm=wall)[0], q):
            problems.append(f"{where}: the warm start changes the minimizer")
        calls[0] += 1
        return q, val

    monkeypatch.setattr(ChainProjector, "project", counted)
    monkeypatch.setattr(_solver, "minimize_free", checked)
    monkeypatch.setattr(jko, "minimize_free", checked)
    for flow in range(N_AFFINE_FLOWS):
        rng = np.random.default_rng([29, flow])
        dom = _dyadic_exit_domain(rng)
        if flow % 2:
            D = _equal_slope_table(rng, dom)
            assert D.lam == 0.0 and D.curv_ub == 0.0
        else:
            D = PotentialD.distance_to_exit(dom)
        rho0 = Measure1D.random_feasible(dom, 64, rng, exit_mass=float(rng.uniform(0.02, 0.3)))
        tau = float(rng.uniform(0.04, 0.15))
        run_flow(rho0, D, tau, 6 * tau, n_samples=128, n_cells=64)
    assert not problems, problems
    assert calls[0] >= 10 * N_AFFINE_FLOWS


def _linear_scan(projector, q_prev, m_prev, D, tau, minimize):
    """The prefix choice as a scan ``m = m_prev, m_prev + 1, ...``: each
    candidate warm-started from the last, stopping at the first that
    does not lower the objective."""
    n = projector.n
    best = None
    for m in range(m_prev, n + 1):
        if m == n:
            q = np.full(n, projector.domain.a)
            val = step_objective(q, q_prev, D, tau, projector.ds)
        else:
            warm = None if best is None else best[0]
            q, val = minimize(projector, q_prev, m, D, tau, warm=warm)
        if best is not None and not val < best[2] - 1e-15:
            break
        best = (q, m, val)
    return best


def _affine_exit_flows(tau_hi=0.15):
    """Affine exit flows as ``(label, rho0, D, tau, n_samples)``; the random
    ones draw ``tau`` from ``[0.04, tau_hi)``."""
    for i in range(N_SEARCH_FLOWS):
        rng = np.random.default_rng([37, i])
        dom = _dyadic_exit_domain(rng)
        D = _equal_slope_table(rng, dom) if i % 2 else PotentialD.distance_to_exit(dom)
        rho0 = Measure1D.random_feasible(dom, 64, rng, exit_mass=float(rng.uniform(0.02, 0.3)))
        n = 64 * 2 ** int(rng.integers(0, 4))
        yield f"flow {i}", rho0, D, float(rng.uniform(0.04, tau_hi)), n
    # a saturated column drains at unit speed, about 0.15*512 samples a step
    dom = Domain1D(0.25, 1.25, "flat", None, True)
    yield "saturated", Measure1D.uniform(dom, 1.0, 64), PotentialD.distance_to_exit(dom), 0.15, 512
    # free flight carries every sample past the door in the first step
    dom = Domain1D(0.0, 1.25, "flat", None, True)
    rho0 = Measure1D.random_feasible(dom, 64, np.random.default_rng(41), exit_mass=0.1)
    yield "absorbed", rho0, PotentialD.from_table([0.0, 2.0], [0.0, 6.0]), 0.5, 256
    # a thin queue ahead of a block: about 3 samples a step reach the
    # door, and pinning one is certain to lower the objective by only
    # ds^3/(8 tau) ~ 9e-16, below the tie threshold (_door_gain_clears)
    dom = Domain1D(0.0, 4.0, "flat", None, True)
    cells = np.arange(64) / 16.0
    rho = np.where(cells < 2.0, 1e-4, np.where((cells >= 2.25) & (cells < 3.25), 0.9998, 0.0))
    rho0 = Measure1D(dom, np.linspace(0.0, 4.0, 65), rho)
    yield "below the tie", rho0, PotentialD.distance_to_exit(dom), 0.5, 65536


def test_prefix_search_matches_the_linear_scan(monkeypatch):
    """The prefix search (a prediction verified on the candidates next to
    it) returns the scan's prefix, positions and value bit for bit, in at
    most ``2*(2 + ceil(log2(dm + 1)))`` candidates a step, and a saturated
    drain costs it fewer candidates than the scan.  The per-step bound is
    a target, not a guarantee: a prediction that misses by more than one
    sample gallops on and bisects.  These flows meet it also with ``tau``
    drawn up to 0.5."""
    honest_step, honest_minimize = jko.solve_step, _solver.minimize_free
    calls, problems, used, jumps, emptied = [0], [], Counter(), Counter(), set()

    def counted(*args, **kwargs):
        calls[0] += 1
        return honest_minimize(*args, **kwargs)

    def scanned(*args, **kwargs):
        used[label, "scan"] += 1
        return honest_minimize(*args, **kwargs)

    def checked(projector, q_prev, m_prev, D, tau):
        calls[0] = 0
        q, m, val = honest_step(projector, q_prev, m_prev, D, tau)
        used[label, "search"] += calls[0]
        q_ref, m_ref, val_ref = _linear_scan(projector, q_prev, m_prev, D, tau, scanned)
        where = f"{label}, m_prev={m_prev}"
        if m != m_ref:
            problems.append(f"{where}: prefix {m}, the scan takes {m_ref}")
        elif not (np.array_equal(q, q_ref) and val == val_ref):
            problems.append(f"{where}: positions or value differ from the scan")
        bound = 2 * (2 + math.ceil(math.log2(m - m_prev + 1)))
        if calls[0] > bound:
            problems.append(f"{where}: {calls[0]} candidates for dm={m - m_prev}")
        jumps[label] = max(jumps[label], m - m_prev)
        if m == projector.n:
            emptied.add(label)
        return q, m, val

    monkeypatch.setattr(_solver, "minimize_free", counted)
    monkeypatch.setattr(jko, "solve_step", checked)
    for label, rho0, D, tau, n in _affine_exit_flows():
        assert D.lam == 0.0 and D.curv_ub == 0.0
        run_flow(rho0, D, tau, 4 * tau, n_samples=n, n_cells=64)
    assert not problems, problems
    assert jumps["saturated"] >= 50 and "absorbed" in emptied, (jumps, emptied)
    assert used["saturated", "search"] < used["saturated", "scan"], used


@pytest.mark.parametrize("tau_hi, prediction", [
    (0.15, "honest"), (0.5, "honest"), (0.15, "first inside"), (0.15, "at n")])
def test_predicted_prefix_is_verified_with_three_candidates(monkeypatch, tau_hi, prediction):
    """The prefix predicted from the suffix regressions is verified on
    the candidates next to it.  Every step returns the scan's prefix,
    positions and value bit for bit.  A step where the prediction is the
    chosen prefix costs at most 3 candidates, and the steps average at
    most 3.5, also with ``tau`` drawn up to 0.5, where a step absorbs
    more samples.  A prediction that is wrong on purpose (the first
    sample inside the domain, or ``n``) costs candidates but never
    changes the step.  Where pinning a sample whose target is at or past
    the door is certain to lower the objective by more than the tie
    threshold, no candidate below those samples is evaluated; the thin
    queue, where it is not, still matches the scan."""
    honest_step, honest_minimize, honest_stop = jko.solve_step, _solver.minimize_free, _solver._first_stop
    calls, stops, problems, steps, prefixes = [0], [], [], Counter(), []

    def counted(projector, q_prev, m, D, tau, *, warm=None):
        calls[0] += 1
        prefixes.append(m)
        return honest_minimize(projector, q_prev, m, D, tau, warm=warm)

    def first_stop(*args):
        # the first search of a step is the prediction's
        stops.append(honest_stop(*args))
        return stops[-1]

    def checked(projector, q_prev, m_prev, D, tau):
        calls[0] = 0
        stops.clear()
        prefixes.clear()
        q, m, val = honest_step(projector, q_prev, m_prev, D, tau)
        # a fresh projector, so the scan shares no memo with the search
        fresh = ChainProjector(projector.domain, projector.n)
        q_ref, m_ref, val_ref = _linear_scan(fresh, q_prev, m_prev, D, tau, honest_minimize)
        where = f"{label}, m_prev={m_prev}"
        x = q_prev - tau * D.grad(q_prev)
        past = m_prev + np.count_nonzero(x[m_prev:] <= projector.domain.a)
        if not _solver._door_gain_clears(projector, D, tau):
            steps["below the tie"] += 1
            # the verification then starts from m_prev, as before the bound
            if stops[0] == past > m_prev and min(prefixes) >= past:
                problems.append(f"{where}: no candidate below {past} below the tie")
        elif min(prefixes, default=past) < past:
            problems.append(f"{where}: candidate {min(prefixes)} below {past}")
        if m != m_ref:
            problems.append(f"{where}: prefix {m}, the scan takes {m_ref}")
        elif not (np.array_equal(q, q_ref) and val == val_ref):
            problems.append(f"{where}: positions or value differ from the scan")
        if stops[0] == m and calls[0] > 3:
            problems.append(f"{where}: {calls[0]} candidates after a hit at {m}")
        steps["hits"] += stops[0] == m
        steps["steps"] += 1
        steps["candidates"] += calls[0]
        return q, m, val

    if prediction != "honest":
        slope = 1.0 if prediction == "first inside" else -1.0
        monkeypatch.setattr(ChainProjector, "suffix_slope", lambda self, x, m: slope)
    monkeypatch.setattr(_solver, "minimize_free", counted)
    monkeypatch.setattr(_solver, "_first_stop", first_stop)
    monkeypatch.setattr(jko, "solve_step", checked)
    for label, rho0, D, tau, n in _affine_exit_flows(tau_hi):
        run_flow(rho0, D, tau, 4 * tau, n_samples=n, n_cells=64)
    assert not problems, problems
    assert steps["steps"] == 4 * (N_SEARCH_FLOWS + 3), steps
    assert steps["below the tie"] == 4, steps
    if prediction == "honest":
        assert steps["candidates"] <= 3.5 * steps["steps"], steps
        assert steps["hits"] >= 0.9 * steps["steps"], steps
    else:
        assert steps["hits"] < 0.9 * steps["steps"], steps


def test_prediction_runs_no_projection(monkeypatch):
    """The prefix prediction reads the suffix regressions and nothing
    else: on a saturated drain step (the study's corridor, where the
    queue at the door lets more samples out than the targets past the
    door) it runs neither a projection nor a candidate minimization, so
    the projections counted on ``ChainProjector.project`` are the
    candidates' own, one each."""
    honest_project, honest_minimize = ChainProjector.project, _solver.minimize_free
    honest_slope = ChainProjector.suffix_slope
    inside, counts = [False], Counter()

    def project(self, x, m=0):
        counts["project", inside[0]] += 1
        return honest_project(self, x, m)

    def minimize(*args, **kwargs):
        counts["minimize_free", inside[0]] += 1
        return honest_minimize(*args, **kwargs)

    def slope(self, x, m):
        counts["suffix_slope"] += 1
        inside[0] = True
        try:
            return honest_slope(self, x, m)
        finally:
            inside[0] = False

    monkeypatch.setattr(ChainProjector, "project", project)
    monkeypatch.setattr(ChainProjector, "suffix_slope", slope)
    monkeypatch.setattr(_solver, "minimize_free", minimize)
    dom = Domain1D(1.0, 10.0, "radial", 1.0 / 99.0, True)
    q_prev = quantile_of(Measure1D.uniform(dom, 1.0, 64), 1024).q
    q, m, val = solve_step(ChainProjector(dom, 1024), q_prev, 0, PotentialD.distance_to_exit(dom), 0.1)
    assert m >= 5 + np.count_nonzero(q_prev <= 1.1), m
    assert counts["suffix_slope"] >= 4, counts
    assert counts["project", True] == counts["minimize_free", True] == 0, counts
    assert counts["project", False] == counts["minimize_free", False] <= 3, counts


def _saturated_study_step(n, tau):
    """The study's corridor, saturated, one step from an empty door: the
    projector, ``q_prev``, the potential and the first sample whose target
    lies inside the domain."""
    dom = Domain1D(1.0, 10.0, "radial", 1.0 / 99.0, True)
    D = PotentialD.distance_to_exit(dom)
    q_prev = quantile_of(Measure1D.uniform(dom, 1.0, 64), n).q
    past = int(np.count_nonzero(q_prev - tau * D.grad(q_prev) <= dom.a))
    return ChainProjector(dom, n), q_prev, D, past


@pytest.mark.parametrize("n, tau, fits", [(16384, 0.1, 9), (16384, 0.00625, 7), (1024, 0.1, 7)])
def test_secant_seed_bounds_the_suffix_regressions(n, tau, fits):
    """On a saturated drain the predicted slope is almost linear from the
    first sample inside the domain up to its jump at the chosen prefix, so
    the prediction starts at the root of the line through its first two
    probes.  One step then leaves at most ``fits`` suffix regressions in
    the target memo, the prediction's and the candidates' together (a
    gallop from that sample leaves 26, 10 and 10)."""
    projector, q_prev, D, past = _saturated_study_step(n, tau)
    q, m, val = solve_step(projector, q_prev, 0, D, tau)
    assert m > past + 1, (m, past)
    assert len(projector._memo.fits) <= fits, sorted(projector._memo.fits)


@pytest.mark.parametrize("dm", [1, 2, 5, 30, 200])
def test_secant_seed_survives_a_tangential_slope(monkeypatch, dm):
    """A predicted slope ``-(m0 - m)^3`` meets zero tangentially at ``m0``,
    so the secant root undershoots it.  The prediction still stops at
    ``m0`` with at most 2 probes more than a gallop from the first sample
    inside the domain, and the step, verified on the exact objective,
    returns the scan's prefix, positions and value bit for bit."""
    n, tau = 1024, 0.1
    projector, q_prev, D, past = _saturated_study_step(n, tau)
    m0 = past + dm
    probes, stops, honest_stop = [], [], _solver._first_stop

    def fake(m):
        return -float(m0 - m) ** 3

    def slope(self, x, m):
        probes.append(m)
        return fake(m)

    def first_stop(*args):
        stops.append(honest_stop(*args))
        return stops[-1]

    monkeypatch.setattr(ChainProjector, "suffix_slope", slope)
    monkeypatch.setattr(_solver, "_first_stop", first_stop)
    q, m, val = solve_step(projector, q_prev, 0, D, tau)
    galloped = set()
    assert honest_stop(lambda k: galloped.add(k) or fake(k) < 0.0, past - 1, n, past) == m0
    assert stops[0] == m0, stops
    assert len(probes) == len(set(probes)) <= len(galloped) + 2, (sorted(probes), sorted(galloped))
    fresh = ChainProjector(projector.domain, n)
    q_ref, m_ref, val_ref = _linear_scan(fresh, q_prev, 0, D, tau, minimize_free)
    assert m == m_ref and np.array_equal(q, q_ref) and val == val_ref, (m, m_ref)


def _concave_table(rng, dom):
    """Random concave piecewise-linear potential, minimal on the door."""
    k = int(rng.integers(2, 6))
    radii = np.concatenate([[dom.a], np.sort(rng.uniform(dom.a, dom.R, k - 1)), [dom.R]])
    slopes = np.sort(rng.uniform(0.1, 3.0, k))[::-1]
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(radii))])
    return PotentialD.from_table(radii, values)


def test_table_potentials_stop_on_a_fixed_point(monkeypatch):
    """One more projected-gradient step from what ``minimize_free``
    returns either gives the same bits or does not lower the objective."""
    honest = _solver.minimize_free
    problems, outcomes = [], {"same": 0, "not lower": 0}

    def checked(projector, q_prev, m, D, tau, *, warm=None):
        q, val = honest(projector, q_prev, m, D, tau, warm=warm)
        # the step as minimize_free takes it, operation for operation
        theta = 1.0 / (1.0 + tau * max(D.curv_ub, 0.0, -min(D.lam, 0.0)))
        target = q_prev + (1.0 - theta) * (q - q_prev) - theta * tau * D.grad(q)
        q_next = projector.project(target, m)
        if np.array_equal(q_next, q):
            outcomes["same"] += 1
        elif not step_objective(q_next, q_prev, D, tau, projector.ds) < val:
            outcomes["not lower"] += 1
        else:
            problems.append(f"flow {flow}, m={m}: one more step lowers the objective")
        return q, val

    monkeypatch.setattr(_solver, "minimize_free", checked)
    monkeypatch.setattr(jko, "minimize_free", checked)
    for flow in range(2 * N_TABLE_FLOWS):
        rng = np.random.default_rng([31, flow])
        dom = _rand_domain(rng, has_exit=bool(flow % 4 < 2))
        rho0 = Measure1D.random_feasible(
            dom, 64, rng, exit_mass=float(rng.uniform(0.02, 0.3)) if dom.has_exit else None
        )
        D = _convex_table(rng, dom) if flow % 2 else _concave_table(rng, dom)
        tau = min(float(rng.uniform(0.04, 0.15)), 0.9 * step_size_cap(D))
        run_flow(rho0, D, tau, 4 * tau, n_samples=64, n_cells=64)
    assert not problems, problems
    assert sum(outcomes.values()) >= 200, outcomes
