"""Inner minimization of one congested step in quantile coordinates.

A probability measure with density capped at one is encoded by ``n``
midpoint quantile samples ``Q_0 <= ... <= Q_{n-1}``.  Writing
``z_j = W(Q_j)`` for the cumulative weight, the cap is equivalent to the
chain

    z_{j+1} - z_j >= ds,      ds = 1/n,

together with the half-sample boxes ``ds/2 <= z_j <= W(R) - ds/2``.  On
exit domains a prefix of ``m`` samples may in addition be pinned on the
door at ``r = a`` (the absorbed mass); the pinned prefix may only grow.

The Euclidean projection onto the chain is an isotonic regression on
the shifted variables ``y_j = z_j - j*ds`` (the chain becomes
isotonicity of ``y``).  A block partition is settled by one scalar
solve per pooled block: a closed form on flat domains and, on radial
ones, Newton's method (``brentq`` for a block with a negative target,
where the block equation loses its concavity).  The trial partition
comes from one weighted isotonic regression (SciPy's O(n) pool adjacent
violators) clipped to the two box bounds that an isotone ``y`` can meet
(after Best, Chakravarti & Ubhaya, SIAM J. Optim. 10(3), 2000); on flat
domains it is exact.  A partition is accepted only if its block values
are in chain order and pass a multiplier (KKT) certificate, read off one
running sum of the per-sample gradients; when the trial does not,
pooling runs again with an exact solve per merge.  The arrays that
depend on the target alone (clipped singles, the trial's input, the
certificate's scale) are kept in a one-entry memo, since every
candidate prefix of an affine step projects the same target.
For a fixed prefix the step objective

    sum_j [ D(Q_j) + (Q_j - p_j)^2 / (2 tau) ] * ds

is minimized by projected gradient iterations that stop at an exact
fixed point.  For an affine potential, such as the distance to the door,
the objective is a squared distance to ``p - tau*D'``, so a candidate
prefix is one projection of that target and one objective, whatever
the start.  Pinning makes the admissible set non-convex, so the prefix
itself is chosen among candidates: by a scan for a curved potential.
For an affine one the prefix is predicted from the trial regressions
of the suffixes of the one target (:meth:`ChainProjector.suffix_slope`,
no projection), starting at the root of the line through its first two
probes, and the candidates next to the prediction verify it,
starting no lower than the samples whose targets are at or past the
door when pinning those is certain to lower the objective, see
:func:`solve_step`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from scipy.optimize import brentq, isotonic_regression

from .errors import FeasibilityError, SolverFailureError

GAP_TOL = 1e-12
KKT_TOL = 1e-7
# projected gradient stops on an exact fixed point; MAX_ITER only guards
# against a loop that never settles
MAX_ITER = 1000000

# arrays of one target, read-only: the target itself, its clipped singles,
# the last index where the singles decrease (-1 if none), the certificate
# scale max(1, max|x|), the trial's input (x - a - j*ds on flat domains,
# the weights w(Q(single))**-2 on radial ones) and, on flat domains, the
# prefix sums of that input; then, by first sample, the clipped isotonic
# regressions of its suffixes, kept as the trials and the prefix
# prediction run them (:meth:`ChainProjector._fit`), and the prediction's
# squared distances of the suffixes (:meth:`ChainProjector.suffix_slope`)
_Target = namedtuple("_Target", "x singles last_drop scale trial psum fits dists")


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
        # the lowest position a free sample can take, W^-1(ds/2)
        self.lowest = float(domain.inv_cumweight(self.lb[0]))
        self._memo = None

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

    # -- projection ------------------------------------------------------

    def project(self, x, m=0):
        """Positions closest to ``x`` among admissible configurations.

        Samples ``0..m-1`` are pinned on the door and excluded; ``x`` is
        the full-length target array.  Returns the full position array,
        a function of ``(x, m)`` alone: the only state kept between calls
        is a one-entry memo of arrays that depend on the target alone
        (:meth:`_target`).
        """
        n, ds = self.n, self.ds
        if (n - m) * ds > self.cap + 1e-12:
            raise FeasibilityError("interior mass exceeds domain capacity")
        t = self._target(x)
        if t.last_drop < m:
            # box-clipped targets already satisfy the chain
            idx = np.arange(m, n)
            return self._certified(t, m, idx, idx, t.singles[m:], strict=True)

        def solve(lo, hi):
            return self._solve_block(lo, hi, t.x, t.psum)

        q = self._certified(t, m, *self._trial(t, m, solve))
        if q is None:
            q = self._certified(t, m, *self._pool(t.singles, m, solve), strict=True)
        return q

    def _target(self, x):
        """The :data:`_Target` arrays of ``x``, from the memo when it holds ``x``.

        The memo keeps the last target's arrays and is keyed by the
        target's contents, so a target equal to the last one bit for bit
        reuses them whatever the prefix.
        """
        t = self._memo
        if t is not None and t.x[-1] == x[-1] and np.array_equal(t.x, x):
            return t
        a, R = self.domain.a, self.domain.R
        x = np.array(x, dtype=float)
        singles = np.clip(self.domain.cumweight(np.clip(x, a, R)) - self.offs, self.lb, self.ub)
        drops = np.flatnonzero(np.diff(singles) < 0.0)
        scale = max(1.0, float(np.max(np.abs(x))))
        psum = None
        if self.flat:
            trial = x - a - self.offs
            psum = np.concatenate([[0.0], np.cumsum(trial)])
        else:
            trial = self.domain.weight(self.domain.inv_cumweight(singles + self.offs)) ** -2.0
        for arr in (x, singles, trial, psum):
            if arr is not None:
                arr.flags.writeable = False
        self._memo = _Target(x, singles, int(drops[-1]) if drops.size else -1, scale, trial, psum, {}, {})
        return self._memo

    def _certified(self, t, m, lo_s, hi_s, y_s, strict=False):
        """Positions of a block partition that passes the certificate.

        The certificate asks for block values in chain order and for
        nonnegative multipliers (:meth:`_kkt_violation`).  A failed
        certificate returns ``None``, or raises when ``strict`` (targets
        already in order, or exact pooling: neither has a fallback).
        """
        order = float(np.diff(y_s).min(initial=0.0))
        if order < -GAP_TOL and not strict:
            return None
        q = np.empty(self.n)
        q[:m] = self.domain.a
        q[m:] = self.domain.inv_cumweight(np.repeat(y_s, hi_s - lo_s + 1) + self.offs[m:])
        if order < -GAP_TOL:
            bad = ("projection certificate failed: block values out of chain order", order)
        else:
            bad = self._kkt_violation(q, t, m, lo_s, hi_s, y_s)
        if bad is not None:
            if strict:
                raise SolverFailureError(bad[0], last_iterate=q, gap=bad[1], m=m)
            return None
        return q

    def _fit(self, t, m):
        """Clipped isotonic regression of the trial's input from sample ``m`` on.

        In ``y`` both boxes decrease with the index, so an isotone ``y``
        can only meet ``lb[m]`` and ``ub[n-1]``, and the box-constrained
        regression is the unconstrained one clipped to them.  On flat
        domains the regression of ``x - a - j*ds`` is the projection
        itself.  On radial domains it runs on the singles with weights
        ``1/w(Q(single))^2``: near its optimum ``s_j`` a sample's term is
        ``(Q_j(y) - x_j)^2 ~ (y - s_j)^2 / w(Q_j(s_j))^2``.  Kept with the
        target, read-only, so a prefix that the prediction has looked at
        costs its trial no second regression.
        """
        fit = t.fits.get(m)
        if fit is None:
            if t.last_drop < m:
                # box-clipped targets in order are their own regression
                return t.singles[m:]
            if self.flat:
                fit = isotonic_regression(t.trial[m:]).x
            else:
                fit = isotonic_regression(t.singles[m:], weights=t.trial[m:]).x
            fit = t.fits[m] = np.clip(fit, self.lb[m], self.ub[-1])
            fit.flags.writeable = False
        return fit

    def _trial(self, t, m, solve):
        """Trial partition from one isotonic regression (:meth:`_fit`): (lo, hi, value) arrays.

        Runs of equal clipped values are the blocks (runs at a bound
        merged), each solved exactly once; the partition must still pass
        the certificate.
        """
        fit = self._fit(t, m)
        lo_s = np.flatnonzero(np.concatenate([[True], np.diff(fit) != 0.0])) + m
        hi_s = np.append(lo_s[1:] - 1, self.n - 1)
        y_s = t.singles[lo_s]
        for k in np.flatnonzero(hi_s > lo_s):
            y_s[k] = solve(int(lo_s[k]), int(hi_s[k]))
        return lo_s, hi_s, y_s

    def suffix_slope(self, x, m):
        """Predicted change of the squared distance to ``x`` when sample ``m`` is pinned too.

        A candidate with ``m`` pinned samples lies at squared distance
        ``sum_{j<m} (a - x_j)^2 + sum_{j>=m} (Q_j - x_j)^2`` from its
        target, with ``Q`` the projection of ``x[m:]``.  The prediction
        takes the trial's clipped isotonic regression (:meth:`_fit`) for
        ``Q``, before its blocks are solved: exact on flat domains, and
        the partition the projection starts from on radial ones.  Runs no
        projection; the suffix distances are kept with the target, so the
        probes of one step share them.
        """
        t = self._target(x)
        a, xm = self.domain.a, t.x[m]
        if t.last_drop < m:
            # the box-clipped targets are in order from m on: both suffix
            # regressions are the singles, which differ in sample m alone
            qm = float(self.domain.inv_cumweight(t.singles[m] + self.offs[m]))
            return (a - xm) ** 2 - (qm - xm) ** 2

        def dist(k):
            if k == self.n:
                return 0.0
            if k not in t.dists:
                q = self.domain.inv_cumweight(self._fit(t, k) + self.offs[k:])
                t.dists[k] = float(np.square(q - t.x[k:]).sum())
            return t.dists[k]

        return (a - xm) ** 2 + dist(m + 1) - dist(m)

    def _pool(self, singles, m, solve):
        """Exact pooling of adjacent violators; block arrays (lo, hi, value).

        ``solve(lo, hi)`` gives the value of a merged block and runs on
        every merge.  This is the fallback for a trial partition that
        fails the certificate; its own partition must pass.
        """
        lo_s, y_s = [], []
        for j in range(m, self.n):
            lo, y = j, float(singles[j])
            while y_s and y_s[-1] > y + GAP_TOL:
                lo = lo_s.pop()
                y_s.pop()
                y = solve(lo, j)
            lo_s.append(lo)
            y_s.append(y)
        lo_s = np.asarray(lo_s, dtype=int)
        return lo_s, np.append(lo_s[1:] - 1, self.n - 1), np.asarray(y_s, dtype=float)

    def _kkt_violation(self, q, t, m, lo_s, hi_s, y_s):
        """Multiplier nonnegativity certificate for the projection.

        With ``c`` the running sum of the per-sample gradients, a block
        total is the step of ``c`` across the block.  Inside a pooled
        block ``lo..hi`` the multiplier of the pair ``(j, j+1)`` is the sum
        of the gradients over ``j+1..hi``, ``c[hi] - c[j]`` (plus the
        upper-box multiplier ``beta`` when the block is clamped there), so
        the smallest is ``c[hi] + beta - max(c[lo..hi-1])``; these must be
        nonnegative, and the block total must vanish unless a box bound
        absorbs it.  Returns ``None`` if the certificate holds, else a
        ``(message, gap)`` pair.
        """
        tol = KKT_TOL * t.scale
        g = 2.0 * (q[m:] - t.x[m:]) / self.domain.weight(q[m:])
        c = np.cumsum(g)
        totals = np.diff(c[hi_s - m], prepend=0.0)
        at_lb = y_s <= self.lb[lo_s] + GAP_TOL
        at_ub = y_s >= self.ub[hi_s] - GAP_TOL
        ok_end = ((at_lb & (totals >= -tol)) | (at_ub & (totals <= tol))
                  | (np.abs(totals) <= tol))
        if not ok_end.all():
            bad = int(np.argmin(ok_end))
            return ("projection certificate failed at a block boundary",
                    float(totals[bad]))
        pooled = hi_s > lo_s
        if pooled.any():
            lo_p, hi_p = lo_s[pooled] - m, hi_s[pooled] - m
            # maxima over c[lo:hi] of each pooled block; the odd entries
            # span the gaps between blocks
            peak = np.maximum.reduceat(c, np.column_stack((lo_p, hi_p)).ravel())[::2]
            beta = np.where(at_ub[pooled], np.maximum(-totals[pooled], 0.0), 0.0)
            worst = float((c[hi_p] + beta - peak).min())
            if worst < -tol:
                return ("projection certificate failed inside a block", worst)
        return None


def step_objective(q, p, D, tau, ds):
    """Discrete step objective over the full sample set."""
    move = q - p
    return float(((D.fn(q) + move * move / (2.0 * tau)) * ds).sum())


def minimize_free(projector, q_prev, m, D, tau, *, warm=None):
    """Minimization of the step objective with the pinned prefix ``m``.

    Returns ``(q, value)``: the full position array and its step
    objective.  An affine ``D`` (``lam == curv_ub == 0``) makes the
    objective a squared distance to ``q_prev - tau*D'``, so its one
    projection is the minimizer and ``warm`` is not read.  A curved ``D``
    runs projected gradient iterations from the previous configuration
    (or ``warm``) with the new prefix pinned, which is always feasible.
    The loop stops when a projection returns its start or does not lower
    the objective, or when the next target equals the last one bit for
    bit: a projection is a function of its target, so going on would only
    repeat it.  The step ``theta*tau`` is ``1/lip``.
    """
    ds = projector.ds
    if D.lam == 0.0 and D.curv_ub == 0.0:
        q = projector.project(q_prev - tau * D.grad(q_prev), m)
        return q, step_objective(q, q_prev, D, tau, ds)
    a = projector.domain.a
    q = (warm if warm is not None else q_prev).copy()
    q[:m] = a
    theta = 1.0 / (1.0 + tau * max(D.curv_ub, 0.0, -min(D.lam, 0.0)))
    eta = theta * tau
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


def _first_stop(lowers, lo, hi, guess):
    """First ``m`` in ``(lo, hi]`` where ``lowers(m)`` is false.

    ``lowers`` must be true below that ``m`` and false from it on, and
    ``hi`` counts as false without a call.  ``lo`` is not probed either,
    so a caller that has already seen ``lowers`` true at some ``m``
    passes that ``m`` as ``lo``.  Probes ``guess - 1`` and
    ``guess`` first (each clamped into the bracket), gallops away from
    them with doubling steps in the direction they point, and bisects
    once a probe has fallen on the other side.
    """
    t, step, way = guess - 1, 1, 0
    while hi - lo > 1:
        t = min(max(t, lo + 1), hi - 1)
        d = 1 if lowers(t) else -1
        lo, hi = (t, hi) if d > 0 else (lo, t)
        if way in (0, d):
            t, step, way = t + d * step, 2 * step if way else step, d
        else:
            t, way = (lo + hi) // 2, None
    return hi


def _door_gain_clears(projector, D, tau):
    """Whether pinning a sample whose target is at or past the door
    lowers the computed objective of an affine step by more than the
    1e-15 tie threshold, whatever the rounding.

    Candidate ``k`` has the objective ``ds/(2 tau)`` times its squared
    distance to ``x = q_prev - tau*D'``, up to a constant.  Every free
    sample lies at or past the lowest free position ``P0 = W^-1(ds/2)``,
    so pinning a free sample ``k`` with ``x_k <= a`` as well lowers that
    distance by ``(Q_k - a)(Q_k + a - 2 x_k) >= (P0 - a)^2``.  The
    objective is a sum of ``n`` terms whose magnitudes add up to at most
    ``S = max(|D(a)|, |D(R)|) + D(R) - D(a)``: ``D`` lies between its door
    value and ``D(R)``, and the transport part of a candidate is at most
    the objective of ``q_prev`` less ``D(a)``.  A computed value is then
    within ``n*eps*S`` of the exact one, and a difference of two within
    twice that.
    """
    dom = projector.domain
    d_a, d_r = float(D.fn(dom.a)), float(D.fn(dom.R))
    size = max(abs(d_a), abs(d_r)) + d_r - d_a
    gain = projector.ds / (2.0 * tau) * (projector.lowest - dom.a) ** 2
    return gain > 1e-15 + 2.0 * projector.n * np.finfo(float).eps * size


def solve_step(projector, q_prev, m_prev, D, tau):
    """One congested step: choose the absorbed prefix and minimize.

    With an exit the admissible set is not convex in quantile
    coordinates, so the absorbed prefix ``m`` is searched rather than
    solved for.  Candidate ``m`` is minimized once with ``m`` samples
    pinned on the door (``m = n`` pins all of them), warm-started from
    the nearest candidate below it.  The step takes the smallest
    ``m >= m_prev`` whose successor does not lower the objective by more
    than 1e-15: the first stop of a scan ``m_prev, m_prev + 1, ...``,
    which is the minimizer since no later pair drops (a tested
    invariant).  Pinning is irreversible, which makes the no-return
    property structural.

    A curved ``D`` runs that scan, warm chain included.  An affine ``D``
    (``lam == curv_ub == 0``) has candidates that do not depend on their
    warm start, all projecting the one target ``x = q_prev - tau*D'``,
    so the objective of candidate ``m`` is ``ds/(2 tau)`` times its
    squared distance to ``x``, up to a constant, and its discrete slope
    ``f(m + 1) - f(m)`` increases with ``m``.  The prefix is predicted as
    the first stop of the predicted slope
    (:meth:`ChainProjector.suffix_slope`, which runs no projection, kept
    per ``m`` within the step).  Its search probes the first sample
    ``past`` whose target lies inside the domain and ``past + 1``.  Up
    to its jump at the stop the predicted slope is close to linear, so
    when both probes drop and the slope rises between them, the search
    starts at the root of the line through them, rounded up and at
    least ``past + 2``; otherwise it starts at ``past``.  From there it
    gallops and bisects (:func:`_first_stop`, run once per step for the
    prediction).  The candidates ``m - 1``, ``m`` and
    ``m + 1`` around the prediction then verify it with the exact
    objective and the same tie rule; on a miss the search gallops on
    from there and bisects (:func:`_first_stop`).  Pinning a sample whose
    target is at or past the door lowers the objective by at least
    ``ds/(2 tau) * (P0 - a)^2``, with ``P0`` the lowest free position;
    where that clears the tie threshold and the objective's rounding
    (:func:`_door_gain_clears`), the verification never evaluates a
    candidate below those samples, else it may go down to ``m_prev``.

    Returns ``(q, m, objective)``.
    """
    if not projector.domain.has_exit:
        q, val = minimize_free(projector, q_prev, 0, D, tau)
        return q, 0, val
    n = projector.n
    found = {}

    def candidate(m):
        if m not in found:
            if m == n:
                q = np.full(n, projector.domain.a)
                found[m] = (q, step_objective(q, q_prev, D, tau, projector.ds))
            else:
                below = [k for k in found if k < m]
                warm = found[max(below)][0] if below else None
                found[m] = minimize_free(projector, q_prev, m, D, tau, warm=warm)
        return found[m]

    def lowers(m):
        # candidate m first: it is the warm start of candidate m + 1
        before = candidate(m)[1]
        return candidate(m + 1)[1] < before - 1e-15

    if D.lam == 0.0 and D.curv_ub == 0.0:
        x = q_prev - tau * D.grad(q_prev)
        scale = projector.ds / (2.0 * tau)
        slopes = {}

        def predicted(m):
            if m not in slopes:
                slopes[m] = scale * projector.suffix_slope(x, m)
            return slopes[m]

        # pinning a sample whose target is at or past the door lowers the
        # objective, so the first stop lies past every such sample
        past = m_prev + int(np.count_nonzero(x[m_prev:] <= projector.domain.a))
        lo, guess = past - 1, past
        if past + 1 < n and predicted(past) < -1e-15 and predicted(past + 1) < -1e-15:
            f0, f1 = predicted(past), predicted(past + 1)
            if f1 > f0:
                # the predicted slope is close to linear up to its jump:
                # start at the root of the line through the two probes
                lo, guess = past + 1, min(past + 1 + max(1, math.ceil(-f1 / (f1 - f0))), n)
        guess = _first_stop(lambda m: predicted(m) < -1e-15, lo, n, guess)
        lo = past - 1 if _door_gain_clears(projector, D, tau) else m_prev - 1
        m = _first_stop(lowers, lo, n, guess)
    else:
        m = m_prev
        while m < n and lowers(m):
            m += 1
    q, val = candidate(m)
    return q, m, val
