"""Optimal transport on the line: distances, maps and potentials.

All costs are powers of ``|x - y|`` in the radial coordinate, so the
monotone (quantile) coupling is optimal regardless of the integration
weight; the weight only enters through the quantile functions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import FeasibilityError, MassMismatchError
from .measures import Measure1D, quantile_of

EXIT_POS_TOL = 1e-9


@dataclass
class TransportPlanSummary:
    """Scalar summary of the optimal plan between two measures.

    Attributes
    ----------
    w2, w1 : float
        Quadratic and linear transport distances.
    map_samples : ndarray, shape (k, 3)
        Rows ``(source position, destination position, mass)`` of the
        monotone coupling.
    stay_on_exit : bool
        True iff the plan restricted to source mass on the exit is the
        identity.
    """

    w2: float
    w1: float
    map_samples: np.ndarray = field(repr=False)
    stay_on_exit: bool = True


@dataclass
class Potential1D:
    """Kantorovich potential sampled along the source support.

    ``phi`` is normalized to vanish at ``x0`` (the outer radius).  The
    values at interior sample positions come from the tight chain of dual
    constraints of the monotone coupling, so together with the transform
    :func:`c_transform` they reproduce half the squared distance exactly
    on the sampled pair.
    """

    r: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    x0: float = 0.0
    phi_prime: np.ndarray = field(repr=False, default=None)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.r, self.phi)


def _as_atoms(obj):
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or not arr.size:
        raise FeasibilityError("atoms must be a nonempty array-like of (position, mass)")
    pos, mass = arr[:, 0], arr[:, 1]
    if not (np.isfinite(arr).all() and (mass >= 0.0).all()):
        raise FeasibilityError("atom positions and masses must be finite, masses nonnegative")
    order = np.argsort(pos, kind="stable")
    return pos[order], mass[order]


def _monotone_segments(x, p, y, q):
    """Common refinement of two cumulative-mass partitions.

    Returns per-segment source position, destination position and mass of
    the monotone coupling between the two atom lists; exact.
    """
    cx = np.cumsum(p)
    cy = np.cumsum(q)
    cuts = np.union1d(cx, cy)
    cuts = np.concatenate([[0.0], cuts])
    seg = np.diff(cuts)
    keep = seg > 0
    mids = 0.5 * (cuts[:-1] + cuts[1:])[keep]
    i = np.clip(np.searchsorted(cx, mids, side="left"), 0, len(x) - 1)
    j = np.clip(np.searchsorted(cy, mids, side="left"), 0, len(y) - 1)
    return x[i], y[j], seg[keep]


def w2_lp_oracle(src_atoms, dst_atoms):
    """Quadratic distance by solving the full transport LP.

    Intended as an independent cross-check on small instances (tens of
    atoms); raises on problems large enough to be pointless here.
    """
    x, p = _as_atoms(src_atoms)
    y, q = _as_atoms(dst_atoms)
    if abs(p.sum() - q.sum()) > 1e-9 * max(1.0, p.sum()):
        raise MassMismatchError(f"masses differ: {p.sum()} vs {q.sum()}")
    kx, ky = len(x), len(y)
    if kx * ky > 20000:
        raise FeasibilityError("LP oracle is for small instances only")
    cost = ((x[:, None] - y[None, :]) ** 2).ravel()
    a_eq = np.zeros((kx + ky, kx * ky))
    for i in range(kx):
        a_eq[i, i * ky : (i + 1) * ky] = 1.0
    for j in range(ky):
        a_eq[kx + j, j::ky] = 1.0
    b_eq = np.concatenate([p, q])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise FeasibilityError(f"transport LP failed: {res.message}")
    return float(np.sqrt(max(res.fun, 0.0)))


def _pair_quantiles(src, dst, n_samples):
    if src.domain != dst.domain:
        raise FeasibilityError("measures live on different domains")
    qs = src if not isinstance(src, Measure1D) else quantile_of(src, n_samples)
    qd = dst if not isinstance(dst, Measure1D) else quantile_of(dst, n_samples)
    if qs.n != qd.n:
        raise FeasibilityError("quantile sample counts differ")
    return qs, qd


def w2_1d(src, dst, n_samples=4096):
    """Transport summary between two measures on a common domain.

    For a pair of :class:`~crowdflow1d.measures.Measure1D` the quantile
    functions are sampled on a shared midpoint grid and the distances are
    those of the sampled pair, which makes ``w2`` an exact metric on the
    sampled representation (triangle inequality holds to rounding).  Atom
    lists (arrays of ``(position, mass)``) are paired exactly instead.

    Returns
    -------
    TransportPlanSummary
    """
    atoms = [not isinstance(m, Measure1D) and not hasattr(m, "q") for m in (src, dst)]
    if atoms[0] != atoms[1]:
        raise FeasibilityError("w2_1d pairs atom lists only with atom lists")
    if atoms[0]:
        x, p = _as_atoms(src)
        y, q = _as_atoms(dst)
        if abs(p.sum() - q.sum()) > 1e-9 * max(1.0, p.sum()):
            raise MassMismatchError(f"masses differ: {p.sum()} vs {q.sum()}")
        xs, ys, m = _monotone_segments(x, p, y, q)
        w2 = float(np.sqrt(((xs - ys) ** 2 * m).sum()))
        w1 = float((np.abs(xs - ys) * m).sum())
        plan = np.column_stack([xs, ys, m])
        stay = _stay_on_exit(xs, ys, m, x.min())
        return TransportPlanSummary(w2, w1, plan, stay)
    qs, qd = _pair_quantiles(src, dst, n_samples)
    ds = 1.0 / qs.n
    diff = qs.q - qd.q
    w2 = float(np.sqrt((diff * diff).sum() * ds))
    w1 = float(np.abs(diff).sum() * ds)
    plan = np.column_stack([qs.q, qd.q, np.full(qs.n, ds)])
    a = qs.domain.a
    exit_like = qs.domain.has_exit and qs.exit_plateau > 0
    if exit_like:
        stay = bool(np.all(qd.q[: qs.exit_plateau] <= a + EXIT_POS_TOL))
    else:
        stay = True
    return TransportPlanSummary(w2, w1, plan, stay)


def _stay_on_exit(xs, ys, m, door):
    on_door = xs <= door + EXIT_POS_TOL
    if not on_door.any():
        return True
    return bool(np.all(ys[on_door] <= door + EXIT_POS_TOL))


def kantorovich_potential(src, dst, n_samples=8192):
    """Potential for the quadratic cost, vanishing at the outer radius.

    The gradient satisfies ``phi'(r) = r - t(r)`` along the source
    support, ``t`` being the monotone map; the returned sample positions
    are the source quantile samples extended to both domain endpoints.

    Returns
    -------
    Potential1D
    """
    qs, qd = _pair_quantiles(src, dst, n_samples)
    dom = qs.domain
    xs, ys = qs.q, qd.q
    # tight chain of dual constraints along consecutive source samples:
    # phi_j - phi_{j-1} = c(x_j, y_{j-1}) - c(x_{j-1}, y_{j-1})
    dphi = 0.5 * ((xs[1:] - ys[:-1]) ** 2 - (xs[:-1] - ys[:-1]) ** 2)
    phi = np.concatenate([[0.0], np.cumsum(dphi)])
    # extend to the endpoints with the frozen map value, then anchor at R
    r = xs
    if xs[0] > dom.a:
        r = np.concatenate([[dom.a], r])
        phi = np.concatenate(
            [phi[:1] - (0.5 * (xs[0] ** 2 - dom.a**2) - ys[0] * (xs[0] - dom.a)), phi]
        )
    if xs[-1] < dom.R:
        r = np.concatenate([r, [dom.R]])
        phi = np.concatenate(
            [phi, phi[-1:] + 0.5 * (dom.R**2 - xs[-1] ** 2) - ys[-1] * (dom.R - xs[-1])]
        )
    phi = phi - phi[-1]
    # collapse duplicate positions (plateaus carry a single value)
    keep = np.concatenate([np.diff(r) > 1e-14 * max(1.0, dom.R), [True]])
    r, phi = r[keep], phi[keep]
    grad = np.gradient(phi, r) if len(r) > 2 else np.zeros_like(r)
    grad = np.clip(grad, -dom.diameter, dom.diameter)
    return Potential1D(r=r, phi=phi, x0=dom.R, phi_prime=grad)


def c_transform(potential, eval_pts):
    """Transform ``psi(y) = min_x [ (x-y)^2/2 - phi(x) ]`` over samples.

    Uses the monotonicity of the argmin for a two-pointer sweep; exact on
    the sampled representation.
    """
    x, phi = potential.r, potential.phi
    y = np.asarray(eval_pts, dtype=float)
    psi = np.empty_like(y)
    j = 0
    n = len(x)
    for k in range(len(y)):
        best = 0.5 * (x[j] - y[k]) ** 2 - phi[j]
        jj = j
        while jj + 1 < n:
            cand = 0.5 * (x[jj + 1] - y[k]) ** 2 - phi[jj + 1]
            if cand <= best + 1e-18:
                best, jj = min(best, cand), jj + 1
            else:
                break
        psi[k] = best
        j = jj
    return psi


def dual_value(src, dst, n_samples=8192):
    """Kantorovich dual objective of the chain potential.

    Returns ``(dual, half_w2_sq)`` computed on the same sampled pair; the
    two agree to rounding, which is the zero-gap certificate.
    """
    qs, qd = _pair_quantiles(src, dst, n_samples)
    pot = kantorovich_potential(qs, qd)
    phi_src = np.interp(qs.q, pot.r, pot.phi)
    psi_dst = c_transform(pot, qd.q)
    ds = 1.0 / qs.n
    dual = float((phi_src.sum() + psi_dst.sum()) * ds)
    half = 0.5 * float(((qs.q - qd.q) ** 2).sum() * ds)
    return dual, half


def exit_mass_stability_constant(domain):
    """Constant ``C`` in ``|exit-mass difference| <= C * w2^(2/3)``.

    ``C = (3 c^2)^(1/3)`` where ``c`` bounds the capacity of the strip of
    width ``t`` next to the exit by ``c * t``.
    """
    if domain.weight_kind == "radial":
        c = domain.half_angle * (domain.a + domain.R)
    else:
        c = 1.0
    return float((3.0 * c * c) ** (1.0 / 3.0))
