import numpy as np
from scipy.optimize import minimize

from crowdflow1d._solver import ChainProjector
from crowdflow1d.measures import Domain1D

N_INSTANCES = 200


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
