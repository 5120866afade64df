import dataclasses
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy.optimize import brentq, isotonic_regression, minimize

from crowdflow1d import _solver, jko
from crowdflow1d._solver import ChainProjector, minimize_free, solve_step, step_objective
from crowdflow1d.corridor import fig4_preset, saturated_exit_preset
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
N_FALLING = 60


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


def _project(dom, x, m=0):
    """The projection of ``x`` with ``m`` samples pinned, by a fresh projector."""
    projector = ChainProjector(dom, x.size)
    return projector.project(projector.target(x), m)


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
        q = _project(dom, x, m)
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


def _on_lower_bound(self, t, m):
    """A wrong trial partition: every sample in one block on its lower bound."""
    return np.array([m]), np.array([self.n - 1]), np.array([self.lb[m]])


def test_projection_falls_back_when_the_trial_is_wrong(monkeypatch):
    """A trial partition that puts every sample in one block on its
    lower bound is wrong on most instances; the certificate must reject
    it and exact pooling must still give the projection."""
    expected = []
    for i in range(N_INSTANCES):
        dom, m, x = _instance(np.random.default_rng([11, i]))
        expected.append(_project(dom, x, m))
    honest_pool = ChainProjector._pool
    pools = []

    def counted(self, t, m):
        pools[-1] += 1
        return honest_pool(self, t, m)

    monkeypatch.setattr(ChainProjector, "_trial", _on_lower_bound)
    monkeypatch.setattr(ChainProjector, "_pool", counted)
    problems, fallbacks = [], 0
    for i in range(N_INSTANCES):
        dom, m, x = _instance(np.random.default_rng([11, i]))
        pools.append(0)
        q = _project(dom, x, m)
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
    t = projector.target(x)

    def grad(y):
        return projector._grad_sum(t, y, lo, hi)

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
        ref = _reference_block(projector, lo, hi, x)
        ylo, yhi = projector.lb[lo], projector.ub[hi]
        # from the lower bound, then warm-started below it, left of the
        # root, at it, right of it and past the upper bound
        for start in (None, ylo - 1.0, 0.5 * (ylo + ref), ref, 0.5 * (ref + yhi), yhi + 1.0):
            y = projector._solve_block(projector.target(x), lo, hi, start)
            if abs(y - ref) > 1e-13 * max(1.0, abs(ref)):
                problems.append(f"block {i} from {start!r}: {y!r} against brentq's {ref!r}")
        if ref == ylo:
            where["lower"] += 1
        elif ref == yhi:
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
    y = projector._solve_block(projector.target(x), 0, 3)
    assert calls
    assert projector.lb[0] < y < projector.ub[3]
    assert y == _reference_block(projector, 0, 3, x)
    # every target 0: the block equation is flat, and the block sits at its
    # lower bound from any start
    calls.clear()
    x = np.zeros(4)
    for start in (None, projector.lb[1], projector.ub[3]):
        assert projector._solve_block(projector.target(x), 2, 3, start) == projector.lb[2]
    assert not calls


def test_certificate_checks_chain_order():
    """Singletons at their own targets have zero gradient, so only the
    order check can reject them when the targets violate the chain.  A
    partition that lists no block has every sample from ``m`` on as a
    block of one at its target."""
    dom = Domain1D(1.0, 4.0, "radial", 0.3, True)
    n, m = 6, 1
    projector = ChainProjector(dom, n)
    x = np.array([1.0, 3.0, 2.9, 2.8, 3.5, 3.6])
    y_s = (dom.cumweight(x) - projector.offs)[m:]
    assert np.all((y_s > projector.lb[m:]) & (y_s < projector.ub[m:]))
    assert np.any(np.diff(y_s) < 0.0)
    t = projector.target(x)
    assert np.array_equal(t.singles[m:], y_s)
    none = np.zeros(0, dtype=int)
    assert projector._certified(t, m, none, none, np.zeros(0)) is None
    with pytest.raises(SolverFailureError, match="chain order") as err:
        projector._certified(t, m, none, none, np.zeros(0), strict=True)
    assert err.value.m == m


@pytest.mark.parametrize("path, x", [
    ("in order", [1.0, 2.0, 2.3, 2.6, 2.9, 3.2, 3.5, 3.8]),
    ("trial", [1.0, 2.0, 2.9, 2.8, 2.7, 3.2, 3.5, 3.8]),
])
def test_blocks_of_one_off_their_targets_fail_the_certificate(monkeypatch, path, x):
    """The verdicts of the blocks of one are kept with the target's
    record, and they are no bypass.  A domain map under which the clipped
    targets no longer map back onto the targets puts every block of one
    off its target; the certificate then rejects the partition at a block
    boundary, for the record's first candidate and for a later one that
    projects the same record, on the in-order path and on the trial path
    (whose exact pooling fails the same way).  The projections build no
    record of their own."""
    dom = Domain1D(1.0, 4.0, "radial", 0.3, True)
    x = np.array(x)
    events, verdicts, records = [], [], []
    honest_trial, honest_kkt = ChainProjector._trial, ChainProjector._kkt_violation
    honest_target = ChainProjector.target

    def trial(self, t, m):
        events.append("trial")
        return honest_trial(self, t, m)

    def kkt(self, *args):
        verdicts.append(honest_kkt(self, *args))
        return verdicts[-1]

    def target(self, x):
        records.append(honest_target(self, x))
        return records[-1]

    monkeypatch.setattr(ChainProjector, "_trial", trial)
    monkeypatch.setattr(ChainProjector, "_kkt_violation", kkt)
    monkeypatch.setattr(ChainProjector, "target", target)
    projector = ChainProjector(dom, x.size)
    t = projector.target(x)
    for m in (1, 2):
        projector.project(t, m)
    # the honest map: the path as labelled, every certificate passes and
    # no block of one fails
    assert ("trial" in events) == (path == "trial"), events
    assert records == [t] and verdicts == [None, None] and t.fails.size == 0
    honest_cumweight = Domain1D.cumweight
    monkeypatch.setattr(Domain1D, "cumweight", lambda self, r: honest_cumweight(self, r) + 0.01)
    t = projector.target(x)
    for m in (1, 2):
        verdicts.clear()
        with pytest.raises(SolverFailureError, match="at a block boundary"):
            projector.project(t, m)
        assert len(verdicts) == (2 if path == "trial" else 1), verdicts
        assert all(v and v[0].endswith("at a block boundary") for v in verdicts), verdicts
    assert len(records) == 2 and records[1] is t and t.fails.size, (records, t.fails)


def test_blocks_of_one_are_built_once_per_target(monkeypatch):
    """The arrays of the blocks of one are built at most once per target,
    whatever the number of candidates that project it, and never for a
    target whose partitions have none: a saturated drain pools every
    free sample into blocks of more than one."""
    # the targets are kept, so that no two of them share an id
    built, projected = [], Counter()
    honest_ones, honest_certified = ChainProjector._ones, ChainProjector._certified

    def ones(self, t):
        built.append(t)
        return honest_ones(self, t)

    def certified(self, t, m, lo_b, hi_b, y_b, strict=False):
        if int((hi_b - lo_b + 1).sum()) < self.n - m:
            projected[id(t)] += 1
        return honest_certified(self, t, m, lo_b, hi_b, y_b, strict=strict)

    monkeypatch.setattr(ChainProjector, "_ones", ones)
    monkeypatch.setattr(ChainProjector, "_certified", certified)
    p = fig4_preset()
    D = PotentialD.distance_to_exit(p.domain())
    projector = ChainProjector(p.domain(), 1024)
    q, m = quantile_of(p.initial(64), 1024).q, 0
    for _ in range(8):
        q, m, *_ = solve_step(projector, q, m, D, p.tau)
    ids = [id(t) for t in built]
    assert built and len(set(ids)) == len(ids), ids
    assert set(ids) == set(projected), (ids, projected)
    assert sum(projected.values()) > len(built), projected
    built.clear()
    projector, q_prev, D, _ = _saturated_study_step(1024, 0.1)
    solve_step(projector, q_prev, 0, D, 0.1)
    assert not built


def _same_bits(a, b):
    """Whether two arrays (or scalars) have the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _edge_target(rng, kind):
    """A projector and a target with signed zeros, entries on the door and
    on the far wall, entries past both, a run of ties and one NaN; on
    domains without an exit (flat from 0, or radial from the apex) the
    target may be negative."""
    n = int(rng.integers(8, 65))
    has_exit = bool(rng.uniform() < 0.5)
    a = float(rng.integers(0, 5)) / 4.0 if has_exit else 0.0
    cap = float(rng.uniform(1.0, 3.0))
    if kind == "flat":
        dom = Domain1D(a, a + cap, "flat", None, has_exit)
    else:
        al = float(rng.uniform(0.05, 0.5))
        dom = Domain1D(a, float(np.sqrt(a * a + cap / al)), "radial", al, has_exit)
    span = dom.R - dom.a
    x = rng.uniform(dom.a - 0.5 * span, dom.R + 0.5 * span, n)
    if rng.uniform() < 0.5:
        x = np.sort(x)
    k = rng.permutation(n)
    x[k[0]], x[k[1]], x[k[2]], x[k[3]] = -0.0, 0.0, dom.a, dom.R
    run = int(rng.integers(0, n - 3))
    x[run : run + 3] = x[run]
    if has_exit:
        x = np.maximum(x, 0.0)
        x[k[0]] = -0.0
    x[k[4]] = np.nan
    return ChainProjector(dom, n), x, int(k[4])


@pytest.mark.parametrize("kind", ["flat", "radial"])
@pytest.mark.parametrize("shift", [0.0, 0.01])
def test_target_record_matches_the_replaced_formulas(monkeypatch, kind, shift):
    """Every field of a target's record and the verdicts of its blocks of
    one are the bits of the formulas they replaced (``np.clip``,
    ``np.diff``, ``flatnonzero``, ``_ends_ok`` on every sample), on
    targets with signed zeros, entries on the domain's ends, ties and one
    NaN, whose sample is still listed as failing.
    The honest domain map leaves blocks of one with a gradient only where
    a box absorbs it; a shifted map puts them off their targets, so that
    many fail.  On the target without its NaN, the clipped suffix
    regressions and the trial's blocks are those of ``np.clip`` and of
    the concatenated run mask."""
    if shift:
        honest_cumweight = Domain1D.cumweight
        monkeypatch.setattr(Domain1D, "cumweight",
                            lambda self, r: honest_cumweight(self, r) + shift)
    problems, seen = [], Counter()
    for i in range(40):
        rng = np.random.default_rng([47, i])
        projector, x, nan_at = _edge_target(rng, kind)
        dom, lb, ub, offs = projector.domain, projector.lb, projector.ub, projector.offs
        clean = x.copy()
        clean[nan_at] = clean[nan_at - 1]
        for target in (x, clean):
            singles = np.clip(dom.cumweight(np.clip(target, dom.a, dom.R)) - offs, lb, ub)
            drops = np.flatnonzero(np.diff(singles) < 0.0)
            rises = np.flatnonzero(~(np.diff(singles) < 0.0))
            pos = dom.inv_cumweight(singles + offs)
            trial = target - dom.a - offs if projector.flat else dom.weight(pos) ** -2.0
            scale = max(1.0, float(np.max(np.abs(target))))
            grad = 2.0 * (pos - target) / dom.weight(pos)
            old = {
                "x": target, "singles": singles,
                "last_drop": int(drops[-1]) if drops.size else -1,
                "last_rise": int(rises[-1]) if rises.size else -1, "scale": scale,
                "trial": trial,
                "psum": np.concatenate([[0.0], np.cumsum(trial)]) if projector.flat else None,
                "pos": pos, "grad": grad,
                "fails": np.flatnonzero(~_solver._ends_ok(singles, lb, ub, grad,
                                                          _solver.KKT_TOL * scale)),
            }
            t = projector.target(target)
            projector._ones(t)
            for name, value in old.items():
                if not _same_bits(getattr(t, name), value):
                    problems.append(f"{kind} {i}: {name} differs")
            seen["drops"] += drops.size
            seen["fails"] += t.fails.size
            seen["off"] += np.count_nonzero(~(np.abs(grad) <= _solver.KKT_TOL * scale))
            if target is x and nan_at not in t.fails:
                problems.append(f"{kind} {i}: the NaN sample {nan_at} is not listed as failing")
        # t is now the record of the target without its NaN
        for m in (0, x.size // 2):
            fit = projector._fit(t, m)
            # a radial suffix that drops at every pair is its mean, not SciPy's
            if t.last_drop >= m and (projector.flat or not projector._falls(t, m)):
                if projector.flat:
                    ref = isotonic_regression(t.trial[m:]).x
                else:
                    ref = isotonic_regression(t.singles[m:], weights=t.trial[m:]).x
                if not _same_bits(fit, np.clip(ref, lb[m], ub[-1])):
                    problems.append(f"{kind} {i}: the regression from {m} differs")
                seen["regressions"] += 1
            same = np.concatenate(([False], fit[1:] == fit[:-1], [False]))
            edges = np.flatnonzero(same[1:] != same[:-1]) + m
            lo_b, hi_b, _ = projector._trial(t, m)
            if not (_same_bits(lo_b, edges[::2]) and _same_bits(hi_b, edges[1::2])):
                problems.append(f"{kind} {i}: the trial's blocks from {m} differ")
            seen["blocks"] += lo_b.size
    assert not problems, problems
    assert min(seen[key] for key in ("drops", "regressions", "blocks")) >= 40, seen
    # each of the 40 targets with a NaN fails there; under the honest map
    # no other block of one fails, though many have a gradient off the
    # tolerance, which a box absorbs
    if shift:
        assert seen["fails"] >= 40 + 200, seen
    else:
        assert seen["fails"] == 40 and seen["off"] >= 40 + 200, seen


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


def _full_partition(projector, t, m, lo_b, hi_b, y_b):
    """Every block of a partition that lists ``lo_b..hi_b`` at ``y_b``, as
    ``(lo, hi, value)`` arrays: each other sample from ``m`` on is a block
    of one at its clipped target."""
    y = t.singles.copy()
    inside = np.zeros(projector.n, dtype=bool)
    for lo, hi, value in zip(lo_b, hi_b, y_b):
        y[lo : hi + 1] = value
        inside[lo + 1 : hi + 1] = True
    lo_s = np.flatnonzero(~inside[m:]) + m
    return lo_s, np.append(lo_s[1:] - 1, projector.n - 1), y[lo_s]


@pytest.mark.parametrize("trial", ["honest", "on lower bound"])
def test_certificate_matches_the_suffix_sum_reference(monkeypatch, trial):
    """The certificate gives the verdict of the suffix-sum one, on the
    partition with every block written out, on every partition that
    projections of the oracle and repeat instances certify; its gap on a
    failure agrees to rounding, and its positions are those of the written
    out partition bit for bit.  The trial that puts every sample in one
    block on its lower bound fails both at a block boundary and inside a
    block."""
    honest = ChainProjector._certified
    problems, verdicts = [], Counter()

    def checked(self, t, m, lo_b, hi_b, y_b, strict=False):
        lo_s, hi_s, y_s = _full_partition(self, t, m, lo_b, hi_b, y_b)
        q_ref = np.full(self.n, self.domain.a)
        q_ref[m:] = self.domain.inv_cumweight(np.repeat(y_s, hi_s - lo_s + 1) + self.offs[m:])
        order = float(np.diff(y_s).min(initial=0.0))
        if order < -_solver.GAP_TOL:
            ref = ("projection certificate failed: block values out of chain order", order)
        else:
            ref = _suffix_sum_certificate(self, q_ref, t.x, m, lo_s, hi_s, y_s)
        try:
            q, got = honest(self, t, m, lo_b, hi_b, y_b, strict=True), None
        except SolverFailureError as err:
            q, got = err.last_iterate, (str(err), err.gap)
        verdicts[ref and ref[0]] += 1
        if (got and got[0]) != (ref and ref[0]):
            problems.append(f"instance {instance}: {got} against the reference's {ref}")
        elif got and abs(got[1] - ref[1]) > 1e-12 * t.scale:
            problems.append(f"instance {instance}: gap {got[1]!r} against {ref[1]!r}")
        if not np.array_equal(q, q_ref):
            problems.append(f"instance {instance}: positions differ from the written out partition")
        if got is None:
            return q
        return honest(self, t, m, lo_b, hi_b, y_b, strict=strict)

    monkeypatch.setattr(ChainProjector, "_certified", checked)
    if trial != "honest":
        monkeypatch.setattr(ChainProjector, "_trial", _on_lower_bound)
    for seed, count, make in ((11, N_INSTANCES, _instance), (23, N_REPEATS, _repeat_instance)):
        for i in range(count):
            instance = (seed, i)
            dom, m, *targets = make(np.random.default_rng([seed, i]))
            for x in targets:
                _project(dom, x, m)
    assert not problems, problems
    assert verdicts[None] >= 1000, verdicts
    if trial != "honest":
        assert verdicts["projection certificate failed at a block boundary"] >= 50, verdicts
        assert verdicts["projection certificate failed inside a block"] >= 20, verdicts


def _vectorized_kkt(projector, q, t, m, at, lo_b, hi_b, y_b, starts, ends):
    """The certificate with every verdict an array expression over the
    listed blocks, as it was written before the verdicts were read off
    block by block."""
    tol = _solver.KKT_TOL * t.scale
    gap_tol = _solver.GAP_TOL
    bad = []
    if t.fails is not None and t.fails.size:
        j = t.fails
        j = j[(j >= m) & (np.append(lo_b, projector.n)[hi_b.searchsorted(j)] > j)]
        bad += [(int(j[0]), float(t.grad[j[0]]))] if j.size else []
    if lo_b.size:
        qb = q[at]
        g = 2.0 * (qb - t.x[at]) / projector.domain.weight(qb)
        totals = np.add.reduceat(g, starts)
        ub = projector.ub[hi_b]
        ok_end = (((y_b <= projector.lb[lo_b] + gap_tol) & (totals >= -tol))
                  | ((y_b >= ub - gap_tol) & (totals <= tol)) | (np.abs(totals) <= tol))
        if not ok_end.all():
            k = int(ok_end.argmin())
            bad.append((int(lo_b[k]), float(totals[k])))
    if bad:
        return ("projection certificate failed at a block boundary", min(bad)[1])
    if not lo_b.size:
        return None
    c = g.cumsum()
    peak = np.maximum.reduceat(c, starts)
    beta = np.where(y_b >= ub - gap_tol, np.maximum(-totals, 0.0), 0.0)
    worst = float((c[ends - 1] + beta - peak).min())
    if worst < -tol:
        return ("projection certificate failed inside a block", worst)
    return None


def _listed(lo_b, hi_b):
    """``at``, ``starts`` and ``ends`` of the listed blocks, as the
    certificate gets them: a slice when the blocks are contiguous."""
    sizes = hi_b - lo_b + 1
    ends = sizes.cumsum()
    starts = ends - sizes
    if ends[-1] == hi_b[-1] + 1 - lo_b[0]:
        return slice(int(lo_b[0]), int(hi_b[-1]) + 1), starts, ends
    return np.arange(int(ends[-1])) + np.repeat(lo_b - starts, sizes), starts, ends


def _scale_for(total):
    """A certificate scale whose tolerance is ``|total|`` exactly, if one is near."""
    s = abs(total) / _solver.KKT_TOL
    for _ in range(8):
        if _solver.KKT_TOL * s == abs(total):
            return s
        s = np.nextafter(s, np.inf if _solver.KKT_TOL * s < abs(total) else 0.0)
    return None


def _verdict_case(rng, kind):
    """A projector, a target record, a prefix and a partition that lists
    1-20 blocks, or none, with the certificate's other arguments.

    The blocks are contiguous or not, their values on ``lb``, on ``ub``,
    exactly at either tie threshold, or inside; the targets of their
    samples lie off the positions by about the tolerance, so that totals
    and inner multipliers of either sign pass or fail.  ``kind`` adds a
    total at exactly plus or minus the tolerance, signed zero gradients,
    a NaN total, or a block with an infinite total on its lower bound
    (and the scale of the finite targets), after which every inner
    multiplier is NaN.  The blocks of one have no verdicts, their honest
    ones, or made-up failures, some inside listed blocks.
    """
    dom = _rand_domain(rng, has_exit=True)
    n = int(rng.integers(48, 97))
    m = int(rng.integers(0, 8))
    projector = ChainProjector(dom, n)
    lb, ub, offs, gap_tol = projector.lb, projector.ub, projector.offs, _solver.GAP_TOL
    lo_l, hi_l = [], []
    j = m + int(rng.integers(0, 3))
    contiguous = rng.uniform() < 0.5
    for _ in range(0 if kind == "empty" else int(rng.integers(1, 21))):
        size = int(rng.integers(2, 6))
        if j + size > n:
            break
        lo_l.append(j)
        hi_l.append(j + size - 1)
        j += size + (0 if contiguous else int(rng.integers(0, 4)))
    lo_b, hi_b = np.array(lo_l, dtype=int), np.array(hi_l, dtype=int)
    sizes = hi_b - lo_b + 1
    x = rng.uniform(dom.a, dom.R, n)
    exact = False
    if lo_b.size:
        y_b = np.array([(lb[lo], ub[hi], lb[lo] + gap_tol, ub[hi] - gap_tol,
                         rng.uniform(lb[lo], ub[hi]))[rng.integers(5)]
                        for lo, hi in zip(lo_b, hi_b)])
        at, starts, ends = _listed(lo_b, hi_b)
        q_at = dom.inv_cumweight(np.repeat(y_b, sizes) + offs[at])
        # gradients e, of zero sum over most blocks
        e = 1e-7 * max(1.0, dom.R) * float(rng.choice([0.3, 1.0, 3.0]))
        e *= rng.normal(size=q_at.size)
        balanced = rng.uniform(size=lo_b.size) < 0.9
        e -= np.repeat(np.where(balanced, np.add.reduceat(e, starts) / sizes, 0.0), sizes)
        x[at] = q_at - 0.5 * e * dom.weight(q_at)
        b = int(rng.integers(lo_b.size))
        block = slice(int(starts[b]), int(ends[b]))
        if kind == "zeros":
            x[at] = np.where(rng.uniform(size=q_at.size) < 0.5, q_at, x[at])
            if projector.flat:
                # -0.0 - 0.0 is a gradient of -0.0
                q_at[block], x[np.arange(n)[at][block]] = -0.0, 0.0
        elif kind == "nan total":
            x[np.arange(n)[at][block][0]] = np.nan
        elif kind == "infinite total":
            y_b[b] = lb[lo_b[b]]
            q_at[block] = dom.inv_cumweight(y_b[b] + offs[lo_b[b] : hi_b[b] + 1])
            x[lo_b[b]] = -np.inf
    else:
        y_b, at, starts, ends = np.zeros(0), None, None, None
    t = projector.target(x)
    if kind == "infinite total":
        t = dataclasses.replace(t, scale=max(1.0, float(np.abs(x[np.isfinite(x)]).max())))
    verdicts = rng.integers(3)
    if verdicts == 1:
        projector._ones(t)
    elif verdicts == 2:
        fails = np.sort(rng.choice(n, size=int(rng.integers(1, 6)), replace=False))
        grad = 1e-6 * rng.normal(size=n)
        t = dataclasses.replace(t, grad=grad, fails=fails)
    q = t.pos.copy()
    q[:m] = dom.a
    if lo_b.size:
        q[at] = q_at
        if kind == "at tol":
            qb = q[at]
            totals = np.add.reduceat(2.0 * (qb - t.x[at]) / dom.weight(qb), starts)
            s = _scale_for(float(totals[b]))
            if s is not None:
                t, exact = dataclasses.replace(t, scale=s), True
    return projector, (q, t, m, at, lo_b, hi_b, y_b, starts, ends), exact


VERDICT_CASES = ("honest", "at tol", "zeros", "nan total", "infinite total", "empty")


@pytest.mark.parametrize("kind", VERDICT_CASES)
def test_certificate_verdicts_match_the_vectorized_formula(kind):
    """The certificate reads its verdicts off the listed blocks one by
    one in Python floats; its verdict and its gap are those of the array
    expressions it replaced, bit for bit, on flat and radial domains
    with 1-20 listed blocks, contiguous or not, on either bound or at its
    tie threshold, with totals of either sign, at exactly the tolerance,
    signed zero gradients, a NaN total, an infinite one that makes the
    inner multipliers NaN, and on partitions that list no block, with
    and without failing blocks of one."""
    problems, seen = [], Counter()
    for i in range(300):
        rng = np.random.default_rng([61, i, VERDICT_CASES.index(kind)])
        projector, args, exact = _verdict_case(rng, kind)
        seen["exact"] += exact
        got = projector._kkt_violation(*args)
        with np.errstate(invalid="ignore"):
            ref = _vectorized_kkt(projector, *args)
        seen[ref and ref[0]] += 1
        if (got is None) != (ref is None) or got and (
                got[0] != ref[0] or not _same_bits(np.float64(got[1]), np.float64(ref[1]))):
            problems.append(f"{kind} {i}: {got} against {ref}")
    assert not problems, problems
    boundary, inside = (f"projection certificate failed {where}"
                        for where in ("at a block boundary", "inside a block"))
    if kind == "empty":
        assert seen[None] >= 100 and seen[boundary] >= 50, seen
    elif kind == "nan total":
        assert seen[boundary] == 300, seen
    elif kind == "infinite total":
        # the inner multipliers from the infinite total on are NaN, which passes
        assert seen[None] >= 100 and seen[boundary] >= 30, seen
    else:
        assert min(seen[None], seen[boundary], seen[inside]) >= 5, seen
        assert kind != "at tol" or seen["exact"] >= 200, seen


def _general_certified(projector, t, m, lo_b, hi_b, y_b, strict=False):
    """The certificate as it was written with the chain order read off a
    window around the listed blocks and off the gaps where the singles
    drop outside it, for any number of listed blocks."""
    n = projector.n
    drops = np.flatnonzero(t.singles[1:] < t.singles[:-1])
    gaps = t.singles[drops + 1] - t.singles[drops]
    sizes = hi_b - lo_b + 1
    ends = sizes.cumsum()
    starts = ends - sizes
    count = int(ends[-1]) if ends.size else 0
    if count < n - m and t.grad is None:
        projector._ones(t)
    s0, s1 = (int(lo_b[0]), int(hi_b[-1]) + 1) if count else (m, m)
    at, span = slice(s0, s1), y_b
    if count:
        y_at = np.repeat(y_b, sizes)
    if count < s1 - s0:
        at = np.arange(count) + np.repeat(lo_b - starts, sizes)
        span = t.singles[s0:s1].copy()
        span[at - s0] = y_at
    lo_v, hi_v = max(s0 - 1, m), min(s1 + 1, n)
    v = np.concatenate((t.singles[lo_v:s0], span, t.singles[s1:hi_v]))
    order = float((v[1:] - v[:-1]).min(initial=0.0))
    i, j, k = drops.searchsorted((m, lo_v, hi_v - 1))
    order = min(order, float(gaps[i:j].min(initial=0.0)), float(gaps[k:].min(initial=0.0)))
    if order < -_solver.GAP_TOL and not strict:
        return None
    q = t.pos.copy()
    q[:m] = projector.domain.a
    if count:
        q[at] = projector.domain.inv_cumweight(y_at + projector.offs[at])
    if order < -_solver.GAP_TOL:
        bad = ("projection certificate failed: block values out of chain order", order)
    else:
        bad = _vectorized_kkt(projector, q, t, m, at, lo_b, hi_b, y_b, starts, ends)
    if bad is not None:
        if strict:
            raise SolverFailureError(bad[0], last_iterate=q, gap=bad[1], m=m)
        return None
    return q


def _listed_partition(rng, projector, t, m, layout):
    """The exact pooling's blocks of ``t`` from ``m`` on, with the samples
    between them listed as blocks of one at their singles when
    ``layout`` is contiguous, and one value moved off: kept, nudged by a
    fraction of ``ds``, or raised past every single by ``ds`` or more.
    Returns the partition and the first sample of the block whose value
    may have moved; ``None`` when the pooling lists no block, or lists
    contiguous blocks for a gapped layout."""
    lo_b, hi_b, y_b = projector._pool(t, m)
    if not lo_b.size:
        return None
    s0, s1 = int(lo_b[0]), int(hi_b[-1]) + 1
    alone = np.setdiff1d(np.arange(s0, s1), np.concatenate(
        [np.arange(lo, hi + 1) for lo, hi in zip(lo_b, hi_b)]))
    if layout == "gapped" and not alone.size:
        return None
    if layout == "contiguous":
        order = np.argsort(np.concatenate([lo_b, alone]), kind="stable")
        lo_b = np.concatenate([lo_b, alone])[order]
        hi_b = np.concatenate([hi_b, alone])[order]
        y_b = np.concatenate([y_b, t.singles[alone]])[order]
    k = int(rng.integers(lo_b.size))
    move = rng.choice(["kept", "nudged", "raised"])
    if move == "nudged":
        y_b[k] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-5, 1e-3) * projector.ds
    elif move == "raised":
        y_b[k] = max(y_b.max(), t.singles.max()) + rng.uniform(1.0, 4.0) * projector.ds
    return (lo_b, hi_b, y_b), int(lo_b[k])


@pytest.mark.parametrize("order", ["in order", "drops", "contiguous", "gapped"])
def test_no_block_partition_matches_the_general_path(order):
    """The certificate's one chain-order formula gives the old windowed
    path's positions bit for bit, or fails with the same message, gap,
    prefix and last iterate, strict or not, on finite targets: partitions
    that list no block, for targets in order from the prefix on and for
    targets that drop at or past it, and partitions that list the exact
    pooling's blocks, contiguous or with blocks of one between them, with
    one block value kept, nudged or raised, so that some pass, some fail
    chain order and some fail the multiplier test; a NaN target inside a
    listed block is covered by the block's value in both.  With a NaN
    target at or past the prefix in a block of one the chain order is NaN
    and gives no verdict; that block fails at its boundary with a NaN gap,
    and the positions and prefix are the old path's."""
    problems, seen = [], Counter()
    none, no_values = np.zeros(0, dtype=int), np.zeros(0)
    listed = order in ("contiguous", "gapped")
    for i in range(200):
        rng = np.random.default_rng([71 if listed else 67, i, order in ("drops", "gapped")])
        dom = _rand_domain(rng, has_exit=True)
        n = int(rng.integers(4, 65))
        m = int(rng.choice([0, rng.integers(0, n), n - 1, n]))
        if order == "drops":
            x = rng.uniform(dom.a - 0.2, dom.R + 0.2, n)
        else:
            # cumulative weights at least ds apart
            ds = 1.0 / n
            slack = np.sort(rng.uniform(0.0, dom.total_weight - 1.0, n))
            x = dom.inv_cumweight((np.arange(n) + 0.5) * ds + slack)
        partition, last = (none, none, no_values), n - 1
        if listed:
            # a few neighbours swapped pool into short blocks
            m = int(rng.integers(0, n // 2))
            for j in rng.integers(m, n - 1, size=3):
                x[j], x[j + 1] = x[j + 1], x[j]
            projector = ChainProjector(dom, n)
            drawn = _listed_partition(rng, projector, projector.target(x), m, order)
            if drawn is None:
                continue
            # a NaN no later than the moved block is the first to fail
            partition, last = drawn
        nan_at = None
        if rng.uniform() < 0.25:
            nan_at = rng.integers(m, last + 1) if m < n else 0
            x[nan_at] = np.nan
        lo_b, hi_b, _ = partition
        nan_alone = nan_at is not None and nan_at >= m and not (
            (lo_b <= nan_at) & (nan_at <= hi_b)).any()
        seen["NaN in a block of one"] += nan_alone
        for strict in (False, True):
            out = []
            for certify in (_general_certified, ChainProjector._certified):
                projector = ChainProjector(dom, n)
                t = projector.target(x)
                try:
                    out.append((certify(projector, t, m, *partition, strict=strict), None))
                except SolverFailureError as err:
                    out.append((err.last_iterate, (str(err), np.float64(err.gap), err.m)))
            (q_ref, err_ref), (q, err) = out
            outcome = err[0] if err else "passes" if q is not None else None
            seen[outcome if listed else (t.last_drop < m, outcome)] += 1
            where = f"{order} {i} strict={strict}"
            if (q is None) != (q_ref is None) or q is not None and not _same_bits(q, q_ref):
                problems.append(f"{where}: positions differ")
            if nan_alone:
                boundary = "projection certificate failed at a block boundary"
                if strict and not (err and err[0] == boundary and np.isnan(err[1])
                                   and err[2] == m):
                    problems.append(f"{where}: {err} for a NaN target")
            elif (err is None) != (err_ref is None) or err and (
                    err[0] != err_ref[0] or err[2] != err_ref[2]
                    or not _same_bits(err[1], err_ref[1])):
                problems.append(f"{where}: {err} against {err_ref}")
    assert not problems, problems
    if listed:
        failed = "projection certificate failed"
        kkt = seen[f"{failed} at a block boundary"] + seen[f"{failed} inside a block"]
        out_of_order = seen[f"{failed}: block values out of chain order"]
        assert min(seen["passes"], out_of_order, kkt) >= 20, seen
        assert seen["NaN in a block of one"] >= 10, seen
        return
    assert seen[True, "passes"] >= 100, seen
    assert seen[True, "projection certificate failed at a block boundary"] >= 10, seen
    if order == "drops":
        out_of_order = "projection certificate failed: block values out of chain order"
        assert seen[False, out_of_order] >= 30, seen


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

    def checked(projector, q_prev, m_prev, D, tau, lead):
        q, m, val, after, lead = honest(projector, q_prev, m_prev, D, tau, lead)
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
        return q, m, val, after, lead

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


@pytest.mark.parametrize("potential", ["distance", "table"])
def test_door_loop_reuses_the_candidate_after_the_step(monkeypatch, potential):
    """``solve_step`` hands back candidate ``m + 1``, which its search
    has always evaluated, and it is what ``minimize_free`` returns for
    ``m + 1`` warm-started from the step's positions, bit for bit: for
    the distance potential, whose search may have warm-started it from
    another candidate, and for a curved table potential, whose scan
    warm-starts it from candidate ``m``.  The door loop of a draining
    corridor takes it as its first try, and minimizes only its later
    tries."""
    honest_step, honest_minimize = jko.solve_step, jko.minimize_free
    problems, seen, steps = [], Counter(), []

    class Handed(tuple):
        # counts the door loop's unpacking of the handed-back candidate
        def __iter__(self):
            seen["first tries"] += 1
            return tuple.__iter__(self)

    def checked(projector, q_prev, m_prev, D, tau, lead):
        q, m, val, after, lead = honest_step(projector, q_prev, m_prev, D, tau, lead)
        steps.append(m)
        if m == projector.n:
            if after is not None:
                problems.append(f"step {len(steps)}: a candidate after m = n")
            return q, m, val, after, lead
        fresh = ChainProjector(projector.domain, projector.n)
        q_ref, val_ref = honest_minimize(fresh, q_prev, m + 1, D, tau, warm=q)
        if not (_same_bits(after[0], q_ref) and after[1] == val_ref):
            problems.append(f"step {len(steps)}: candidate {m + 1} differs")
        return q, m, val, Handed(after), lead

    def door_try(projector, q_prev, m, D, tau, *, warm=None):
        if m <= steps[-1] + 1:
            problems.append(f"step {len(steps)}: the door loop minimizes candidate {m}")
        seen["later tries"] += 1
        return honest_minimize(projector, q_prev, m, D, tau, warm=warm)

    monkeypatch.setattr(jko, "solve_step", checked)
    monkeypatch.setattr(jko, "minimize_free", door_try)
    p = fig4_preset()
    dom = p.domain()
    rng = np.random.default_rng(73)
    D = _convex_table(rng, dom) if potential == "table" else PotentialD.distance_to_exit(dom)
    run_flow(p.initial(64), D, p.tau, 50 * p.tau, n_samples=128, n_cells=64)
    assert not problems, problems
    assert len(steps) == 50 and seen["first tries"] >= 10, (len(steps), seen)


def test_door_loop_minimizes_its_second_try(monkeypatch):
    """A door that stays unbalanced after the step's candidate ``m + 1``
    makes the door loop minimize candidate ``m + 2`` itself, warm-started
    from the accepted ``m + 1``; every try it accepts lies within
    ``DOOR_TIE_TOL`` of the objective it replaces.  Forced on one step of
    a saturated drain, where the candidates next to the stop are near
    ties, by fields that report an unbalanced door on their first two
    calls."""
    honest_fields, honest_step = jko._grid_fields, jko.solve_step
    honest_minimize = jko.minimize_free
    calls, tries, steps = [0], [], []

    def fields(*args):
        v, level, pressure, door_level = honest_fields(*args)
        calls[0] += 1
        return v, level, pressure, level - 1.0 if calls[0] <= 2 else door_level

    def step(*args):
        steps.append(honest_step(*args))
        return steps[-1]

    def minimize(projector, q_prev, m, D, tau, *, warm=None):
        q, val = honest_minimize(projector, q_prev, m, D, tau, warm=warm)
        tries.append((m, warm, val))
        return q, val

    monkeypatch.setattr(jko, "_grid_fields", fields)
    monkeypatch.setattr(jko, "solve_step", step)
    monkeypatch.setattr(jko, "minimize_free", minimize)
    p = saturated_exit_preset()
    res = jko.jko_step(p.initial(64), PotentialD.distance_to_exit(p.domain()), 0.05,
                       n_samples=16384, n_cells=64)
    (_, m, obj, after, _), = steps
    assert after is not None and calls[0] >= 3 and res.m_exit >= m + 2, (m, res.m_exit, calls)
    assert tries[0][0] == m + 2 and tries[0][1] is after[0], (m, tries)
    accepted = [obj, after[1]] + [val for _, _, val in tries[: res.m_exit - m - 1]]
    assert accepted[-1] == res.objective_value
    for before, val in zip(accepted, accepted[1:]):
        assert val <= before + jko.DOOR_TIE_TOL * max(1.0, abs(before)), accepted


def _repeat_instance(rng):
    """Instance with a second target next to the target.

    Exit domains pin a prefix; domains without one start at a wall or
    at the apex, where targets may be negative.  The second target is
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
        other = x + 1e-6 * span * rng.normal(size=n)
    else:
        other = rng.permutation(x)
    return dom, m, x, other


@pytest.mark.parametrize("trial", ["honest", "on lower bound"])
def test_projection_depends_only_on_target_and_prefix(monkeypatch, trial):
    """One record of a target, projected at several prefixes in shuffled
    order as the candidates of one step project it, gives at each prefix
    the bits of a fresh record, and every array the record keeps is
    read-only.  The trial that puts every sample in one block on its
    lower bound forces the exact fallback."""
    events = []
    honest_certified = ChainProjector._certified
    honest_pool = ChainProjector._pool

    def certified(self, t, m, lo_s, hi_s, y_s, strict=False):
        q = honest_certified(self, t, m, lo_s, hi_s, y_s, strict=strict)
        if q is not None:
            events.append("strict" if strict else "trial")
        return q

    def pool(self, t, m):
        events.append("pool")
        return honest_pool(self, t, m)

    monkeypatch.setattr(ChainProjector, "_certified", certified)
    monkeypatch.setattr(ChainProjector, "_pool", pool)
    if trial != "honest":
        monkeypatch.setattr(ChainProjector, "_trial", _on_lower_bound)
    problems, paths, kinds, hits = [], Counter(), Counter(), 0
    for i in range(N_REPEATS):
        dom, m, x, _ = _repeat_instance(np.random.default_rng([23, i]))
        projector = ChainProjector(dom, x.size)
        t = projector.target(x)
        events.clear()
        projector.project(t, m)
        if "pool" in events:
            path = "fallback"
        else:
            path = "trial" if events == ["trial"] else "in order"
        paths[path, dom.weight_kind] += 1
        kinds[dom.weight_kind, dom.has_exit] += 1
        if dom.has_exit:
            prefixes = np.random.default_rng([23, i, 1]).permutation(np.arange(m, x.size))[:4]
            for k in prefixes:
                again = projector.project(t, int(k))
                if not _same_bits(again, projector.project(projector.target(x), int(k))):
                    problems.append(f"instance {i}, prefix {k}: projection depends on the record")
                hits += 1
        for arr in (t.x, t.singles, t.trial, t.psum, t.pos, t.means, t.grad, t.fails):
            if arr is not None and arr.flags.writeable:
                problems.append(f"instance {i}: a record array is writeable")
    assert not problems, problems
    assert hits >= 400, hits
    assert min(kinds[kind] for kind in product(("flat", "radial"), (False, True))) >= 50, kinds
    if trial == "honest":
        assert min(paths["trial", kind] for kind in ("flat", "radial")) >= 50, paths
        assert paths["fallback", "radial"] >= 10, paths
    else:
        assert min(paths["fallback", kind] for kind in ("flat", "radial")) >= 20, paths


def _falling_suffix(rng, kind, where):
    """A projector and a target whose clipped singles drop at every pair
    from sample ``m`` on, with that suffix's weighted mean inside the box,
    below ``lb[m]`` or above ``ub[n-1]``; returns ``(projector, x, m)``."""
    n = int(rng.integers(5, 65))
    m = int(rng.integers(0, n - 4))
    cap = (n - m) / n * float(rng.uniform(1.5, 3.0))
    a = float(rng.uniform(0.5, 1.5))
    if kind == "flat":
        dom = Domain1D(a, a + cap, "flat", None, True)
    else:
        al = float(rng.uniform(0.05, 0.5))
        dom = Domain1D(a, float(np.sqrt(a * a + cap / al)), "radial", al, True)
    projector = ChainProjector(dom, n)
    lb, ub, ds = projector.lb, projector.ub, projector.ds
    u = rng.uniform(0.0, 1.0, n)
    if where == "inside":
        y = np.sort(rng.uniform(lb[m], ub[-1], n))[::-1]
    elif where == "below":
        # the boxes step down by ds, so these drop by more than 0.8*ds
        y = lb + 0.2 * ds * u
    else:
        y = ub - 0.2 * ds * u
    return projector, dom.inv_cumweight(y + projector.offs), m


@pytest.mark.parametrize("where", ["inside", "below", "above"])
def test_falling_suffix_regression_is_its_clipped_mean(where):
    """Pool adjacent violators merges singles that drop at every pair into
    one block at their weighted mean, so on a radial domain the clipped
    regression of such a suffix is that mean, clipped, and runs no
    regression: one run, within 1e-12 (relative to the singles) of
    SciPy's clipped weighted regression, whether the mean lies inside the
    box, below ``lb[m]`` or above ``ub[n-1]``.  With one pair rising
    instead, the suffix keeps SciPy's regression bit for bit, and so does
    every suffix on a flat domain."""
    problems = []
    for i in range(N_FALLING):
        rng = np.random.default_rng([43, i])
        projector, x, m = _falling_suffix(rng, "radial", where)
        lb, ub = projector.lb[m], projector.ub[-1]
        t = projector.target(x)
        ref = np.clip(isotonic_regression(t.singles[m:], weights=t.trial[m:]).x, lb, ub)
        fit = projector._fit(t, m)
        expected = {"inside": lb < ref[0] < ub, "below": ref[0] == lb, "above": ref[0] == ub}
        if not (projector._falls(t, m) and expected[where]):
            problems.append(f"instance {i}: not a falling suffix with its mean {where}")
        elif not np.all(fit == fit[0]):
            problems.append(f"instance {i}: more than one run")
        elif np.abs(fit - ref).max() > 1e-12 * np.abs(t.singles[m:]).max():
            problems.append(f"instance {i}: {np.abs(fit - ref).max():.2e} off SciPy's")
        # pair k rises, every other pair still drops
        y = t.singles.copy()
        k = int(rng.integers(m, projector.n - 1))
        y[k] = min(y[k], 0.5 * (projector.lb[k] + projector.ub[k + 1]))
        y[k + 1] = max(y[k + 1], 0.5 * (y[k] + projector.ub[k + 1]))
        t = projector.target(projector.domain.inv_cumweight(y + projector.offs))
        ref = np.clip(isotonic_regression(t.singles[m:], weights=t.trial[m:]).x, lb, ub)
        drops = np.count_nonzero(t.singles[m + 1:] < t.singles[m:-1])
        if drops != projector.n - 2 - m or projector._falls(t, m):
            problems.append(f"instance {i}: not one rise at {k}")
        elif not np.array_equal(projector._fit(t, m), ref):
            problems.append(f"instance {i}: a rise at {k} does not keep SciPy's regression")
        projector, x, m = _falling_suffix(rng, "flat", where)
        t = projector.target(x)
        ref = np.clip(isotonic_regression(t.trial[m:]).x, projector.lb[m], projector.ub[-1])
        if not (np.array_equal(projector._fit(t, m), ref) and t.means is None):
            problems.append(f"instance {i}: the flat regression changed")
    assert not problems, problems


def test_flat_projections_never_fall_back(monkeypatch):
    """On flat domains the clipped isotonic regression is the exact
    projection, so its partition always passes the certificate."""
    pools, trials = [0], [0]
    honest_pool = ChainProjector._pool
    honest_trial = ChainProjector._trial

    def pool(self, t, m):
        pools[0] += 1
        return honest_pool(self, t, m)

    def trial(self, t, m):
        trials[0] += 1
        return honest_trial(self, t, m)

    monkeypatch.setattr(ChainProjector, "_pool", pool)
    monkeypatch.setattr(ChainProjector, "_trial", trial)
    for seed, count, make in ((11, N_INSTANCES, _instance), (23, N_REPEATS, _repeat_instance)):
        for i in range(count):
            dom, m, x = make(np.random.default_rng([seed, i]))[:3]
            if dom.weight_kind == "flat":
                _project(dom, x, m)
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

    def counted(self, t, m=0):
        projections[0] += 1
        return honest_project(self, t, m)

    def checked(projector, q_prev, m, D, tau, *, warm=None, _x=None):
        expected = projector.project(projector.target(q_prev - tau * D.grad(q_prev)), m)
        projections[0] = 0
        q, val = honest_minimize(projector, q_prev, m, D, tau, warm=warm, _x=_x)
        where = f"flow {flow}, m={m}"
        if projections[0] != 1:
            problems.append(f"{where}: {projections[0]} projections")
        if not np.array_equal(q, expected):
            problems.append(f"{where}: not the projection of q_prev - tau*D'")
        wall = np.full_like(q_prev, projector.domain.R)
        if not np.array_equal(honest_minimize(projector, q_prev, m, D, tau, warm=wall, _x=_x)[0], q):
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
            assert D.affine
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
    """The prefix search (a start carried from the last step, or the root
    of the first two exact slopes, verified on the candidates next to it)
    returns the scan's prefix, positions and value bit for bit, in at
    most ``2*(2 + ceil(log2(dm + 1)))`` candidates a step, and a saturated
    drain costs it fewer candidates than the scan.  The per-step bound is
    a target, not a guarantee: a start that misses by more than one
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

    def checked(projector, q_prev, m_prev, D, tau, lead):
        calls[0] = 0
        q, m, val, after, lead = honest_step(projector, q_prev, m_prev, D, tau, lead)
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
        return q, m, val, after, lead

    monkeypatch.setattr(_solver, "minimize_free", counted)
    monkeypatch.setattr(jko, "solve_step", checked)
    for label, rho0, D, tau, n in _affine_exit_flows():
        assert D.affine
        run_flow(rho0, D, tau, 4 * tau, n_samples=n, n_cells=64)
    assert not problems, problems
    assert jumps["saturated"] >= 50 and "absorbed" in emptied, (jumps, emptied)
    assert used["saturated", "search"] < used["saturated", "scan"], used


@pytest.mark.parametrize("tau_hi, lead", [
    (0.15, "honest"), (0.5, "honest"), (0.15, "first inside"), (0.15, "at n")])
def test_predicted_prefix_is_verified_with_three_candidates(monkeypatch, tau_hi, lead):
    """The exact search of a step starts as far past the first sample
    whose target lies inside the domain (``past``) as the last step's
    prefix lay past its own: one search a step, from ``past + lead``.
    Every step returns the scan's prefix, positions and value bit for
    bit.  A step whose prefix lies as far past ``past`` as the last one
    did costs at most 3 candidates, and the steps average at most 3.5,
    also with ``tau`` drawn up to 0.5, where a step absorbs more samples.
    The share of such steps is the one measured on these flows.  A lead
    that is wrong on purpose (0, where each step first tests ``past``,
    or ``n``) costs candidates but never changes the step.  Where pinning
    a sample whose target is at or past the door is certain to lower the
    objective by more than the tie threshold, no candidate below those
    samples is evaluated; the thin queue, where it is not, still matches
    the scan."""
    honest_step, honest_minimize, honest_stop = jko.solve_step, _solver.minimize_free, _solver._first_stop
    calls, guesses, problems, steps, prefixes = [0], [], [], Counter(), []

    def counted(projector, q_prev, m, D, tau, *, warm=None, _x=None):
        calls[0] += 1
        prefixes.append(m)
        return honest_minimize(projector, q_prev, m, D, tau, warm=warm, _x=_x)

    def first_stop(lowers, lo, hi, guess):
        guesses.append(guess)
        return honest_stop(lowers, lo, hi, guess)

    def checked(projector, q_prev, m_prev, D, tau, lead_in):
        n = projector.n
        lead_in = {"honest": lead_in, "first inside": 0, "at n": n}[lead]
        calls[0] = 0
        guesses.clear()
        prefixes.clear()
        q, m, val, after, lead_out = honest_step(projector, q_prev, m_prev, D, tau, lead_in)
        q_ref, m_ref, val_ref = _linear_scan(projector, q_prev, m_prev, D, tau, honest_minimize)
        where = f"{label}, m_prev={m_prev}"
        x = q_prev - tau * D.grad(q_prev)
        past = m_prev + int(np.count_nonzero(x[m_prev:] <= projector.domain.a))
        if len(guesses) != 1 or lead_out != m - past:
            problems.append(f"{where}: {len(guesses)} searches, lead {lead_out} for {m - past}")
        if lead_in and guesses[0] != past + lead_in:
            problems.append(f"{where}: the search starts at {guesses[0]}, not {past + lead_in}")
        if not lead_in and past + 1 < n and prefixes[0] != past:
            problems.append(f"{where}: the first candidate is {prefixes[0]}, past={past}")
        if not _solver._door_gain_clears(projector, D, tau):
            steps["below the tie"] += 1
            # a stop at past is then verified on the candidate below it
            if m == past > m_prev and min(prefixes) >= past:
                problems.append(f"{where}: no candidate below {past} below the tie")
        elif min(prefixes, default=past) < past:
            problems.append(f"{where}: candidate {min(prefixes)} below {past}")
        if m != m_ref:
            problems.append(f"{where}: prefix {m}, the scan takes {m_ref}")
        elif not (np.array_equal(q, q_ref) and val == val_ref):
            problems.append(f"{where}: positions or value differ from the scan")
        hit = m - past == lead_in
        if hit and calls[0] > 3:
            problems.append(f"{where}: {calls[0]} candidates for a lead of {lead_in} that holds")
        steps["hits"] += hit
        steps["steps"] += 1
        steps["candidates"] += calls[0]
        return q, m, val, after, lead_out

    monkeypatch.setattr(_solver, "minimize_free", counted)
    monkeypatch.setattr(_solver, "_first_stop", first_stop)
    monkeypatch.setattr(jko, "solve_step", checked)
    for label, rho0, D, tau, n in _affine_exit_flows(tau_hi):
        run_flow(rho0, D, tau, 4 * tau, n_samples=n, n_cells=64)
    assert not problems, problems
    assert steps["steps"] == 4 * (N_SEARCH_FLOWS + 3), steps
    assert steps["below the tie"] == 4, steps
    if lead == "honest":
        assert steps["candidates"] <= 3.5 * steps["steps"], steps
        # measured: 83 and 79 of 108 steps, in 266 and 309 candidates
        assert steps["hits"] >= {0.15: 0.76, 0.5: 0.73}[tau_hi] * steps["steps"], steps


def test_affine_step_builds_one_target(monkeypatch):
    """An affine step derives its target ``q_prev - tau*D'`` once: on the
    exit steps of a fig4-like drain at 1024 samples, every step calls
    ``D.grad`` once and builds one target record, and every candidate
    gets that record."""
    records, grads, calls = [], [0], Counter()
    honest_target, honest_minimize = ChainProjector.target, _solver.minimize_free

    def target(self, x):
        records.append(honest_target(self, x))
        return records[-1]

    def minimize(projector, q_prev, m, D, tau, *, warm=None, _x=None):
        calls["candidates"] += 1
        calls["other records"] += _x is not records[-1]
        return honest_minimize(projector, q_prev, m, D, tau, warm=warm, _x=_x)

    monkeypatch.setattr(ChainProjector, "target", target)
    monkeypatch.setattr(_solver, "minimize_free", minimize)
    p = fig4_preset()
    distance = PotentialD.distance_to_exit(p.domain())

    def grad(r):
        grads[0] += 1
        return distance.grad(r)

    D = PotentialD(distance.fn, grad)
    assert D.affine
    projector = ChainProjector(p.domain(), 1024)
    q, m, lead = quantile_of(p.initial(64), 1024).q, 0, 0
    for step in range(40):
        records.clear()
        grads[0] = 0
        q, m, _, _, lead = solve_step(projector, q, m, D, p.tau, lead)
        assert (len(records), grads[0]) == (1, 1), (step, records, grads)
    assert m > 0 and calls["candidates"] >= 80, (m, calls)
    assert calls["other records"] == 0, calls


def test_projector_keeps_no_state_between_steps(monkeypatch):
    """A projector keeps nothing between calls: after each of a few steps
    of a fig4 drain, door loop included, and after one step of a curved
    table potential, its attributes are the objects ``__init__`` made,
    with the same bytes."""
    honest, made, steps = jko._assemble, {}, Counter()

    def checked(projector, *args):
        state = made.setdefault(id(projector), (projector, dict(vars(projector)), {
            k: v.tobytes() for k, v in vars(projector).items() if isinstance(v, np.ndarray)}))
        res = honest(projector, *args)
        _, attrs, data = state
        now = vars(projector)
        assert now.keys() == attrs.keys() and all(now[k] is v for k, v in attrs.items()), now
        assert all(now[k].tobytes() == b for k, b in data.items())
        steps[args[3].affine] += 1
        return res

    monkeypatch.setattr(jko, "_assemble", checked)
    p = fig4_preset()
    dom = p.domain()
    run_flow(p.initial(64), PotentialD.distance_to_exit(dom), p.tau, 5 * p.tau,
             n_samples=1024, n_cells=64)
    D = _convex_table(np.random.default_rng(79), dom)
    tau = min(p.tau, 0.9 * step_size_cap(D))
    run_flow(p.initial(64), D, tau, tau, n_samples=1024, n_cells=64)
    assert steps == {True: 5, False: 1} and len(made) == 2, (steps, made.keys())


def _saturated_study_step(n, tau):
    """The study's corridor, saturated, one step from an empty door: the
    projector, ``q_prev``, the potential and the first sample whose target
    lies inside the domain."""
    dom = Domain1D(1.0, 10.0, "radial", 1.0 / 99.0, True)
    D = PotentialD.distance_to_exit(dom)
    q_prev = quantile_of(Measure1D.uniform(dom, 1.0, 64), n).q
    past = int(np.count_nonzero(q_prev - tau * D.grad(q_prev) <= dom.a))
    return ChainProjector(dom, n), q_prev, D, past


@pytest.mark.parametrize("dm", [1, 2, 5, 30, 200])
def test_secant_seed_survives_a_tangential_slope(monkeypatch, dm):
    """An exact slope ``-(m0 - m)^3`` meets zero tangentially at ``m0``,
    so the root of the line through the slopes at ``past`` and
    ``past + 1`` undershoots it.  The step, with no lead, first tests
    ``past`` and ``past + 1``, which read both slopes off candidates
    ``past`` to ``past + 2``, and still returns the scan's prefix,
    positions and value bit for bit."""
    n, tau = 1024, 0.1
    projector, q_prev, D, past = _saturated_study_step(n, tau)
    m0 = past + dm
    prefixes = []

    def minimize(projector, q_prev, m, D, tau, *, warm=None, _x=None):
        prefixes.append(m)
        # f(m) - f(m - 1) = -(m0 - m + 1)^3, in whole numbers
        return np.full(n, float(m)), -float(sum((m0 - k) ** 3 for k in range(m)))

    monkeypatch.setattr(_solver, "minimize_free", minimize)
    q, m, val, _, lead = solve_step(projector, q_prev, 0, D, tau)
    assert prefixes[:3] == [past, past + 1, past + 2], (prefixes, past)
    q_ref, m_ref, val_ref = _linear_scan(projector, q_prev, 0, D, tau, minimize)
    assert (m, lead) == (m_ref, m0 - past) == (m0, dm), (m, m_ref, lead)
    assert np.array_equal(q, q_ref) and val == val_ref


@pytest.mark.parametrize("tau", [0.1, 0.05, 0.025, 0.0125, 0.00625])
def test_saturated_step_runs_no_regression(monkeypatch, tau):
    """On the study's saturated drain the singles of every suffix drop at
    every pair, so a step runs no isotonic regression, and it returns the
    scan's prefix, positions and value bit for bit."""
    n = 16384
    projector, q_prev, D, past = _saturated_study_step(n, tau)
    honest, runs = _solver.isotonic_regression, [0]

    def counted(*args, **kwargs):
        runs[0] += 1
        return honest(*args, **kwargs)

    monkeypatch.setattr(_solver, "isotonic_regression", counted)
    q, m, val, *_ = solve_step(projector, q_prev, 0, D, tau)
    assert runs[0] == 0 and m > past, (runs, m, past)
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

    def checked(projector, q_prev, m, D, tau, *, warm=None, _x=None):
        q, val = honest(projector, q_prev, m, D, tau, warm=warm, _x=_x)
        # the step as minimize_free takes it, operation for operation
        theta = 1.0 / (1.0 + tau * max(D.curv_ub, 0.0, -min(D.lam, 0.0)))
        target = q_prev + (1.0 - theta) * (q - q_prev) - theta * tau * D.grad(q)
        q_next = projector.project(projector.target(target), m)
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
