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
chain becomes isotonicity of ``y``).  A block partition is settled by
one scalar solve per pooled block: a closed form on flat domains and,
on radial ones, Newton's method (``brentq`` for a block with a negative
target, where the block equation loses its concavity).  Trial
partitions come first: the previous projection's blocks and, on radial
domains, a pooling on a closed-form weighted-mean surrogate, in O(1) per
merge (after Best, Chakravarti & Ubhaya, SIAM J. Optim. 10(3), 2000).
Every partition is accepted only if its block values are in chain order
and pass a multiplier (KKT) certificate; when no trial does, pooling runs
again with an exact solve per merge.  For a fixed prefix the step objective

    sum_j [ D(Q_j) + (Q_j - p_j)^2 / (2 tau) ] * ds

is minimized by projected gradient iterations that stop at an exact
fixed point.  For an affine potential, such as the distance to the door,
the objective is a squared distance to ``p - tau*D'``: the first
projection is the minimizer and the next target repeats the first bit
for bit, so a candidate prefix costs one projection.  Pinning makes the
admissible set non-convex, so the prefix itself is chosen by a scan over
candidates, see :func:`solve_step`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import FeasibilityError, SolverFailureError

GAP_TOL = 1e-12
KKT_TOL = 1e-7
# projected gradient stops on an exact fixed point; MAX_ITER only guards
# against a loop that never settles
MAX_ITER = 1000000


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
        """Value of the pooled block ``lo..hi``.

        The block value minimizes ``sum (Q_i(y) - x_i)^2`` over
        ``lb[lo] <= y <= ub[hi]``.  Flat domains have a closed form.  On
        radial domains with targets ``x_i >= 0`` stationarity reads
        ``f(y) = k - sum x_i / q_i(y) = 0`` with
        ``q_i(y) = sqrt(a^2 + (y + i*ds)/h)`` and ``h`` the half angle;
        ``f`` is increasing and concave, so Newton's method started at the
        lower bound climbs monotonically onto the root, and a tangent root
        past the upper bound means the root is past it too.  A negative
        target (apex domains) breaks concavity, so such a block is solved
        by ``brentq`` between the bounds.
        """
        ylo = self.lb[lo]
        yhi = self.ub[hi]
        if ylo > yhi + 1e-15:
            raise FeasibilityError("sample chain does not fit in the domain")
        if self.flat:
            # closed form: y* = mean of (x_i - a - i*ds)
            s = psum[hi + 1] - psum[lo]
            return min(max(s / (hi - lo + 1), ylo), yhi)
        xtol, rtol = 1e-15, 4.0 * np.finfo(float).eps
        xs = x[lo : hi + 1]
        if xs.min() >= 0.0:
            a, h = self.domain.a, self.domain.half_angle
            offs = self.offs[lo : hi + 1]
            y = ylo
            # converges quadratically; the cap only guards the loop,
            # brentq below takes over if it is ever reached
            for _ in range(100):
                q = np.sqrt(a * a + (y + offs) / h)
                r = xs / q
                f = (hi - lo + 1) - float(r.sum())
                if f >= 0.0:
                    return y
                step = -2.0 * h * f / float((r / (q * q)).sum())
                if y + step >= yhi:
                    return yhi
                y += step
                if step <= xtol + rtol * abs(y):
                    return y
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
            xtol=xtol,
            rtol=rtol,
            maxiter=200,
        )

    def _surrogate(self, singles):
        """Closed-form block values for pooling on radial domains.

        Near its own optimum ``s_j`` (the entry of ``singles``) a sample's
        term is ``(Q_j(y) - x_j)^2 ~ (y - s_j)^2 / w(Q_j(s_j))^2``, so a
        merged block takes the weighted mean of its singles, clamped to
        its box, in O(1) from prefix sums.  The partition this pooling
        yields is only a trial: its blocks are solved exactly and the
        result passes the certificate or is discarded.
        """
        wt = self.domain.weight(self.domain.inv_cumweight(singles + self.offs)) ** -2.0
        cw = np.concatenate([[0.0], np.cumsum(wt)])
        cs = np.concatenate([[0.0], np.cumsum(wt * singles)])
        lb, ub = self.lb, self.ub

        def merged(lo, hi):
            mean = (cs[hi + 1] - cs[lo]) / (cw[hi + 1] - cw[lo])
            return min(max(mean, lb[lo]), ub[hi])

        return merged

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
        if not np.any(np.diff(singles[m:]) < 0.0):
            # box-clipped targets already satisfy the chain
            idx = np.arange(m, n)
            return self._certified(x, m, idx, idx, singles[m:], strict=True)
        psum = np.concatenate([[0.0], np.cumsum(x - a - self.offs)]) if self.flat else None

        def solve(lo, hi):
            return self._solve_block(lo, hi, x, psum)

        for lo_t, hi_t in self._trials(singles, m):
            q = self._certified(x, m, *self._partition(singles, m, lo_t, hi_t, solve))
            if q is not None:
                return q
        return self._certified(x, m, *self._pool(singles, m, solve), strict=True)

    def _certified(self, x, m, lo_s, hi_s, y_s, strict=False):
        """Positions of a block partition that passes the certificate.

        The certificate asks for block values in chain order and for
        nonnegative multipliers (:meth:`_kkt_violation`).  A failed
        certificate returns ``None``, or raises when ``strict`` (targets
        already in order, or exact pooling: neither has a fallback).  The
        pooled blocks of an accepted partition become the next hint.
        """
        order = float(np.diff(y_s).min(initial=0.0))
        if order < -GAP_TOL and not strict:
            return None
        sizes = hi_s - lo_s + 1
        q = np.empty(self.n)
        q[:m] = self.domain.a
        q[m:] = self.domain.inv_cumweight(np.repeat(y_s, sizes) + self.offs[m:])
        if order < -GAP_TOL:
            bad = ("projection certificate failed: block values out of chain order", order)
        else:
            bad = self._kkt_violation(q, x, m, lo_s, hi_s, y_s, sizes)
        if bad is not None:
            if strict:
                raise SolverFailureError(bad[0], last_iterate=q, gap=bad[1], m=m)
            return None
        multi = sizes > 1
        self._hint = (lo_s[multi], hi_s[multi])
        return q

    def _trials(self, singles, m):
        """Trial partitions, each given by its pooled blocks ``(lo, hi)``.

        Consecutive projections almost always pool the same runs, so the
        previous projection's blocks come first.  The pinned prefix
        moves between projections, so they are trimmed to ``m``, then
        tried with the first block stretched down to ``m``.  On radial
        domains the last trial pools on the closed-form surrogate
        (:meth:`_surrogate`).  A trial costs one block solve per pooled
        block instead of one per merge.
        """
        if self._hint is not None:
            lo_h, hi_h = self._hint
            keep = hi_h >= m + 1
            lo_h = np.maximum(lo_h[keep], m)
            hi_h = hi_h[keep]
            keep = hi_h > lo_h
            lo_h, hi_h = lo_h[keep], hi_h[keep]
            if len(lo_h):
                yield lo_h, hi_h
                if lo_h[0] > m:
                    stretched = lo_h.copy()
                    stretched[0] = m
                    yield stretched, hi_h
        if not self.flat:
            lo_s, hi_s, _ = self._pool(singles, m, self._surrogate(singles))
            multi = hi_s > lo_s
            yield lo_s[multi], hi_s[multi]

    def _partition(self, singles, m, lo_b, hi_b, solve):
        """Partition with the blocks ``lo_b..hi_b`` and singletons elsewhere."""
        starts = np.ones(self.n - m, dtype=bool)
        for lo, hi in zip(lo_b, hi_b):
            starts[lo + 1 - m : hi + 1 - m] = False
        lo_s = np.flatnonzero(starts) + m
        hi_s = np.append(lo_s[1:] - 1, self.n - 1)
        y_s = singles[lo_s]
        y_s[np.searchsorted(lo_s, lo_b)] = [
            solve(int(lo), int(hi)) for lo, hi in zip(lo_b, hi_b)
        ]
        return lo_s, hi_s, y_s

    def _pool(self, singles, m, solve):
        """Pool adjacent violators; returns block arrays (lo, hi, value).

        ``solve(lo, hi)`` gives the value of a merged block.  On radial
        domains :meth:`project` pools first on :meth:`_surrogate`, then
        solves each pooled block once and certifies the partition; only
        if that fails does it pool again with an exact block solve per
        merge, whose partition must pass.  Pooling is order-online, so
        the clean run before the first violation stays on an implicit
        stack of singletons (popped only if a merge reaches back into
        it) and the loop stops early once the remaining targets are
        isotone above the stack top.
        """
        n = self.n
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
                y = solve(lo, hi)
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

    Returns ``(q, value)``: the full position array and its step
    objective.  The start is the previous configuration (or ``warm``)
    with the new prefix pinned, which is always feasible.  The loop stops
    when a projection returns its start or does not lower the objective,
    or when the next target equals the last one bit for bit: given the
    pooling hint it left, a projection repeats itself, so going on would
    only repeat it.  The step ``theta*tau`` is ``1/lip``; ``theta`` is
    exactly 1.0 for an affine ``D``, whose targets then do not move.
    """
    a = projector.domain.a
    q = (warm if warm is not None else q_prev).copy()
    q[:m] = a
    theta = 1.0 / (1.0 + tau * max(D.curv_ub, 0.0, -min(D.lam, 0.0)))
    eta = theta * tau
    ds = projector.ds
    best = step_objective(q, q_prev, D, tau, ds)
    target = None
    for _ in range(MAX_ITER):
        prev, target = target, q_prev + (1.0 - theta) * (q - q_prev) - eta * D.grad(q)
        if prev is not None and np.array_equal(target, prev):
            return q, best
        q_new = projector.project(target, m)
        if np.array_equal(q_new[m:], q[m:]):
            return q_new, best
        val = step_objective(q_new, q_prev, D, tau, ds)
        if not val < best:
            return q, best
        best, q = val, q_new
    raise SolverFailureError(
        "projected gradient iteration did not converge",
        last_iterate=q,
        gap=float(np.max(np.abs(D.grad(q) + (q - q_prev) / tau))),
        m=m,
    )


def solve_step(projector, q_prev, m_prev, D, tau):
    """One congested step: choose the absorbed prefix and minimize.

    With an exit the admissible set is not convex in quantile
    coordinates, so the absorbed prefix ``m`` is scanned rather than
    solved for: each candidate ``m = m_prev, m_prev + 1, ...`` is
    minimized with ``m`` samples pinned on the door, warm-started from
    the previous candidate, and the scan stops at the first candidate
    that does not lower the objective.  Pinning is irreversible, which
    makes the no-return property structural.

    Returns ``(q, m, objective)``.
    """
    if not projector.domain.has_exit:
        q, val = minimize_free(projector, q_prev, 0, D, tau)
        return q, 0, val
    n = projector.n
    best = None
    for m in range(m_prev, n + 1):
        if m == n:
            q = np.full(n, projector.domain.a)
            val = step_objective(q, q_prev, D, tau, projector.ds)
        else:
            # the previous candidate, with one more sample pinned, is the start
            warm = None if best is None else best[0]
            q, val = minimize_free(projector, q_prev, m, D, tau, warm=warm)
        if best is not None and not val < best[2] - 1e-15:
            break
        best = (q, m, val)
    return best
