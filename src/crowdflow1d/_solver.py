"""Inner minimization of one congested step in quantile coordinates.

A probability measure with density capped at one is encoded by ``n``
midpoint quantile samples ``Q_0 <= ... <= Q_{n-1}``.  Writing
``z_j = W(Q_j)`` for the cumulative weight, the cap is equivalent to the
chain

    z_{j+1} - z_j >= ds,      ds = 1/n,

together with the half-sample boxes ``ds/2 <= z_j <= W(R) - ds/2``.  On
exit domains a prefix of ``m`` samples may in addition be pinned on the
door at ``r = a`` (the absorbed mass); the pinned prefix may only grow.

The Euclidean projection onto the chain is computed exactly by pooling
adjacent violators on the shifted variables ``y_j = z_j - j*ds`` (the
chain becomes isotonicity of ``y``), with a one-dimensional solve per
pooled block.  The step objective

    sum_j [ D(Q_j) + (Q_j - p_j)^2 / (2 tau) ] * ds

is then minimized by projected gradient iterations; for potentials with
constant slope the iteration reaches its fixed point after one
projection.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import FeasibilityError, SolverFailureError

GAP_TOL = 1e-12
KKT_TOL = 1e-7
# projected gradient stops after STALL_STEPS iterations in a row that
# lower the objective by less than STALL_REL_TOL (relative); MAX_ITER
# only guards against a loop that never settles
STALL_REL_TOL = 1e-12
STALL_STEPS = 10
MAX_ITER = 1000000
PATIENCE = 6  # exit-prefix candidates past the best, see solve_step


class ChainProjector:
    """Exact projection onto capped monotone quantile configurations."""

    def __init__(self, domain, n):
        self.domain = domain
        self.n = n
        self.ds = 1.0 / n
        self.offs = np.arange(n) * self.ds
        self.cap = domain.total_weight
        # per-sample box in y = z - j*ds
        self.lb = 0.5 * self.ds - self.offs
        self.ub = (self.cap - 0.5 * self.ds) - self.offs
        self.flat = domain.weight_kind == "flat"
        # pooled blocks of the last projection, reused as a trial
        # partition (verified by the certificate before acceptance)
        self._hint = None

    # -- scalar helpers -------------------------------------------------

    def _positions(self, y, lo, hi):
        return self.domain.inv_cumweight(y + self.offs[lo : hi + 1])

    def _grad_sum(self, y, lo, hi, x):
        """d/dy of the block objective sum (Q_i(y) - x_i)^2."""
        q = self._positions(y, lo, hi)
        w = self.domain.weight(q)
        return float((2.0 * (q - x[lo : hi + 1]) / w).sum())

    def _solve_block(self, lo, hi, x, psum):
        ylo = self.lb[lo]
        yhi = self.ub[hi]
        if ylo > yhi + 1e-15:
            raise FeasibilityError("sample chain does not fit in the domain")
        if self.flat:
            # closed form: y* = mean of (x_i - a - i*ds)
            s = psum[hi + 1] - psum[lo]
            return min(max(s / (hi - lo + 1), ylo), yhi)
        glo = self._grad_sum(ylo, lo, hi, x)
        if glo >= 0.0:
            return ylo
        ghi = self._grad_sum(yhi, lo, hi, x)
        if ghi <= 0.0:
            return yhi
        return brentq(
            lambda y: self._grad_sum(y, lo, hi, x),
            ylo,
            yhi,
            xtol=1e-15,
            rtol=4.0 * np.finfo(float).eps,
            maxiter=200,
        )

    # -- projection ------------------------------------------------------

    def project(self, x, m=0):
        """Positions closest to ``x`` among admissible configurations.

        Samples ``0..m-1`` are pinned on the door and excluded; ``x`` is
        the full-length target array.  Returns the full position array.
        """
        n, ds = self.n, self.ds
        if (n - m) * ds > self.cap + 1e-12:
            raise FeasibilityError("interior mass exceeds domain capacity")
        a, R = self.domain.a, self.domain.R
        xc = np.clip(x, a, R)
        singles = np.clip(self.domain.cumweight(xc) - self.offs, self.lb, self.ub)
        if np.any(np.diff(singles[m:]) < 0.0):
            out = self._try_hint(singles, x, m)
            if out is not None:
                return out
            lo_s, hi_s, y_s = self._pool(singles, x, m)
        else:
            # box-clipped targets already satisfy the chain
            idx = np.arange(m, n)
            lo_s, hi_s, y_s = idx, idx, singles[m:]
        sizes = hi_s - lo_s + 1
        q = self._assemble_positions(y_s, sizes, m)
        bad = self._kkt_violation(q, x, m, lo_s, hi_s, y_s, sizes)
        if bad is not None:
            raise SolverFailureError(bad[0], last_iterate=q, gap=bad[1])
        multi = sizes > 1
        self._hint = (lo_s[multi].copy(), hi_s[multi].copy())
        return q

    def _assemble_positions(self, y_s, sizes, m):
        q = np.empty(self.n)
        q[:m] = self.domain.a
        q[m:] = self.domain.inv_cumweight(np.repeat(y_s, sizes) + self.offs[m:])
        return q

    def _try_hint(self, singles, x, m):
        """Re-solve the previous block partition and certify it.

        Consecutive projections almost always pool the same runs, so the
        last partition is solved block by block (one scalar solve per
        pooled block instead of one per merge) and accepted only if the
        resulting configuration passes the full multiplier certificate.
        The pinned prefix moves between projections, so a variant with
        the first block stretched down to ``m`` is tried as well.  Any
        failure falls back to pooling from scratch.
        """
        if self._hint is None:
            return None
        lo_h, hi_h = self._hint
        keep = hi_h >= m + 1
        lo_h = np.maximum(lo_h[keep], m)
        hi_h = hi_h[keep]
        keep = hi_h > lo_h
        lo_h, hi_h = lo_h[keep], hi_h[keep]
        if len(lo_h) == 0:
            return None
        out = self._certified_blocks(singles, x, m, lo_h, hi_h)
        if out is None and lo_h[0] > m:
            stretched = lo_h.copy()
            stretched[0] = m
            out = self._certified_blocks(singles, x, m, stretched, hi_h)
        return out

    def _certified_blocks(self, singles, x, m, lo_h, hi_h):
        if self.flat:
            psum = np.concatenate([[0.0], np.cumsum(x - self.domain.a - self.offs)])
        else:
            psum = None
        parts_lo, parts_hi, parts_y = [], [], []
        prev = m
        for lo, hi in zip(lo_h, hi_h):
            lo, hi = int(lo), int(hi)
            if lo > prev:
                idx = np.arange(prev, lo)
                parts_lo.append(idx)
                parts_hi.append(idx)
                parts_y.append(singles[prev:lo])
            parts_lo.append(np.array([lo]))
            parts_hi.append(np.array([hi]))
            parts_y.append(np.array([self._solve_block(lo, hi, x, psum)]))
            prev = hi + 1
        if prev < self.n:
            idx = np.arange(prev, self.n)
            parts_lo.append(idx)
            parts_hi.append(idx)
            parts_y.append(singles[prev:])
        lo_s = np.concatenate(parts_lo)
        hi_s = np.concatenate(parts_hi)
        y_s = np.concatenate(parts_y)
        if np.any(np.diff(y_s) < -GAP_TOL):
            return None
        sizes = hi_s - lo_s + 1
        q = self._assemble_positions(y_s, sizes, m)
        if self._kkt_violation(q, x, m, lo_s, hi_s, y_s, sizes) is not None:
            return None
        self._hint = (lo_h, hi_h)
        return q

    def _pool(self, singles, x, m):
        """Pool adjacent violators; returns block arrays (lo, hi, value).

        Pooling is order-online, so the clean run before the first
        violation stays on an implicit stack of singletons (popped only
        if a merge reaches back into it) and the loop stops early once
        the remaining targets are isotone above the stack top.
        """
        n = self.n
        if self.flat:
            psum = np.concatenate([[0.0], np.cumsum(x - self.domain.a - self.offs)])
        else:
            psum = None
        d = np.diff(singles[m:]) >= 0.0
        # iso[j - m] says singles[j:] is already in order
        iso = np.concatenate([d[::-1].cumprod()[::-1].astype(bool), [True]])
        j0 = m + int(np.argmin(d)) + 1  # first index needing a merge
        pre_end = j0  # implicit singleton blocks on [m, pre_end)
        lo_s, hi_s, y_s = [], [], []
        tail = n
        for j in range(j0, n):
            y = float(singles[j])
            top = y_s[-1] if lo_s else (singles[pre_end - 1] if pre_end > m else None)
            if iso[j - m] and (top is None or top <= y + GAP_TOL):
                tail = j
                break
            lo, hi = j, j
            while True:
                if lo_s and y_s[-1] > y + GAP_TOL:
                    lo = lo_s.pop()
                    hi_s.pop()
                    y_s.pop()
                elif pre_end > m and singles[pre_end - 1] > y + GAP_TOL:
                    pre_end -= 1
                    lo = pre_end
                else:
                    break
                y = self._solve_block(lo, hi, x, psum)
            lo_s.append(lo)
            hi_s.append(hi)
            y_s.append(y)
        pre = np.arange(m, pre_end)
        post = np.arange(tail, n)
        lo_arr = np.concatenate([pre, np.asarray(lo_s, dtype=int), post])
        hi_arr = np.concatenate([pre, np.asarray(hi_s, dtype=int), post])
        y_arr = np.concatenate([singles[m:pre_end], np.asarray(y_s, dtype=float),
                                singles[tail:]])
        return lo_arr, hi_arr, y_arr

    def _kkt_violation(self, q, x, m, lo_s, hi_s, y_s, sizes):
        """Multiplier nonnegativity certificate for the projection.

        Inside a pooled block the multiplier of the pair ``(j, j+1)`` is
        the suffix sum of the per-sample gradients beyond ``j`` (plus the
        upper-box multiplier when the block is clamped there); these must
        be nonnegative, and the block total must vanish unless a box
        bound absorbs it.  Returns ``None`` if the certificate holds,
        else a ``(message, gap)`` pair.
        """
        scale = max(1.0, float(np.max(np.abs(x))))
        tol = KKT_TOL * scale
        g = 2.0 * (q[m:] - x[m:]) / self.domain.weight(q[m:])
        totals = np.add.reduceat(g, lo_s - m) if len(lo_s) else np.zeros(0)
        at_lb = y_s <= self.lb[lo_s] + GAP_TOL
        at_ub = y_s >= self.ub[hi_s] - GAP_TOL
        ok_end = ((at_lb & (totals >= -tol)) | (at_ub & (totals <= tol))
                  | (np.abs(totals) <= tol))
        if not ok_end.all():
            bad = int(np.argmin(ok_end))
            return ("projection certificate failed at a block boundary",
                    float(totals[bad]))
        if (sizes > 1).any():
            rev = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
            hi_rep = np.repeat(hi_s, sizes) - m
            suffix = rev[: len(g)] - rev[hi_rep + 1]
            beta = np.repeat(np.where(at_ub, np.maximum(-totals, 0.0), 0.0), sizes)
            interior = np.arange(len(g)) > np.repeat(lo_s, sizes) - m
            worst = float((suffix + beta)[interior].min()) if interior.any() else 0.0
            if worst < -tol:
                return ("projection certificate failed inside a block", worst)
        return None


def step_objective(q, p, D, tau, ds):
    """Discrete step objective over the full sample set."""
    move = q - p
    return float(((D.fn(q) + move * move / (2.0 * tau)) * ds).sum())


def minimize_free(projector, q_prev, m, D, tau, *, warm=None):
    """Projected gradient minimization with the pinned prefix ``m``.

    Returns the full position array.  The start is the previous
    configuration (or ``warm``) with the new prefix pinned, which is
    always feasible.
    """
    a = projector.domain.a
    q = (warm if warm is not None else q_prev).copy()
    q[:m] = a
    lip = 1.0 / tau + max(D.curv_ub, 0.0, -min(D.lam, 0.0))
    eta = 1.0 / lip
    ds = projector.ds
    best = step_objective(q, q_prev, D, tau, ds)
    stalled = 0
    for _ in range(MAX_ITER):
        grad = D.grad(q) + (q - q_prev) / tau
        target = q - eta * grad
        q_new = projector.project(target, m)
        if np.array_equal(q_new[m:], q[m:]):
            return q_new
        val = step_objective(q_new, q_prev, D, tau, ds)
        if val > best - STALL_REL_TOL * max(1.0, abs(best)):
            stalled += 1
        else:
            stalled = 0
        if val < best:
            best, q = val, q_new
        if stalled >= STALL_STEPS:
            return q
    raise SolverFailureError(
        "projected gradient iteration did not converge",
        last_iterate=q,
        gap=float(np.max(np.abs(grad))),
    )


def solve_step(projector, q_prev, m_prev, D, tau):
    """One congested step: scan the exit prefix and minimize.

    On exit domains the absorbed prefix ``m`` is chosen by evaluating the
    full objective for each candidate ``m >= m_prev`` until it has
    increased ``PATIENCE`` times past the best value seen; pinning is
    irreversible, which makes the scan cheap and the no-return property
    structural.

    Returns ``(q, m, objective)``.
    """
    ds = projector.ds
    if not projector.domain.has_exit:
        q = minimize_free(projector, q_prev, 0, D, tau)
        return q, 0, step_objective(q, q_prev, D, tau, ds)
    n = projector.n
    best_q, best_m, best_val = None, m_prev, np.inf
    worse = 0
    warm = None
    for m in range(m_prev, n + 1):
        if m == n:
            q = np.full(n, projector.domain.a)
        else:
            q = minimize_free(projector, q_prev, m, D, tau, warm=warm)
        warm = q  # each candidate seeds the next, pinning one more sample
        val = step_objective(q, q_prev, D, tau, ds)
        if val < best_val - 1e-15:
            best_q, best_m, best_val = q, m, val
            worse = 0
        else:
            worse += 1
            if worse >= PATIENCE:
                break
    return best_q, best_m, best_val
