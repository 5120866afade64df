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
where the block equation loses its concavity).  A projection runs one
pipeline: a trial partition, then the certificate; if that fails, exact
pooling, then the certificate; if that fails too, it raises.  The trial
partition comes from one weighted isotonic regression (SciPy's O(n) pool
adjacent violators) clipped to the two box bounds that an isotone ``y``
can meet (after Best, Chakravarti & Ubhaya, SIAM J. Optim. 10(3), 2000);
on flat domains it is exact, and on radial ones each block's Newton
solve starts from the block's regression value.  Two suffixes need no
regression run: singles already in order are their own regression and
pool nothing, and on a radial domain singles that drop at every pair
pool into one block at their weighted mean (read off suffix sums kept
per target), clipped.  A partition is carried as its pooled blocks:
every other free sample is a block of one at its clipped target.
It is accepted only if its block values are in chain order and pass a
multiplier (KKT) certificate, read off one running sum of the per-sample
gradients over the pooled blocks and judged block by block; when the
trial does not, pooling runs again with an exact solve per merge,
started at the block's lower bound.
Everything that depends on the target alone (clipped singles and their
positions, the last pairs where the singles drop and where they do not,
the trial's input, the certificate's scale and, once needed, the
suffixes' weighted means and the gradients and verdicts of the blocks of
one) is one record (:meth:`ChainProjector.target`), which a projection
takes in place of the target: an affine step builds it once and hands it
to every candidate prefix, since they all project the same target.  The
projector itself keeps no state.
For a fixed prefix the step objective

    sum_j [ D(Q_j) + (Q_j - p_j)^2 / (2 tau) ] * ds

is minimized by projected gradient iterations that stop at an exact
fixed point.  For an affine potential, such as the distance to the door,
the objective is a squared distance to ``p - tau*D'``, so a candidate
prefix is one projection of that target and one objective, whatever
the start.  Pinning makes the admissible set non-convex, so the prefix
itself is chosen among candidates: by a scan for a curved potential.
For an affine one, one search over the exact candidates starts as far
past the first sample whose target lies inside the domain as the last
step's prefix lay past its own, or, where that is no distance, next to
the root of the line through the first two exact slopes, and evaluates
no candidate below the samples whose targets are at or past the door
when pinning those is certain to lower the objective, see
:func:`solve_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, isotonic_regression

from .errors import FeasibilityError, SolverFailureError
from .measures import _clip

GAP_TOL = 1e-12
KKT_TOL = 1e-7
# projected gradient stops on an exact fixed point; MAX_ITER only guards
# against a loop that never settles
MAX_ITER = 1000000

# the listed blocks of a partition that lists none, read-only
_NO_BLOCKS = np.zeros(0, dtype=int)
_NO_VALUES = np.zeros(0)
_NO_BLOCKS.flags.writeable = _NO_VALUES.flags.writeable = False

# the one record of everything that depends on a projection target, its
# arrays read-only: a copy of the target, its clipped singles, the last
# pair j where the singles decrease (singles[j+1] < singles[j]) and the
# last pair where they do not (each -1 if none), the certificate scale
# max(1, max|x|), the trial's input (x - a - j*ds on flat domains, the
# weights w(Q(single))**-2 on radial ones), on flat domains the prefix
# sums of that input, and the positions Q(single), where every block of
# one sits; then, on radial domains, the weighted means of the singles
# over each suffix, once a suffix whose singles drop at every pair needs
# them (:meth:`ChainProjector._trial`), and, once a partition of the target
# has a block of one, the gradient of every single (a block of one's
# total) and the samples whose block of one fails the boundary
# certificate (:meth:`ChainProjector._ones`)
@dataclass(eq=False)
class _Target:
    x: np.ndarray
    singles: np.ndarray
    last_drop: int
    last_rise: int
    scale: float
    trial: np.ndarray
    psum: np.ndarray | None
    pos: np.ndarray
    means: np.ndarray | None = None
    grad: np.ndarray | None = None
    fails: np.ndarray | None = None


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

    # -- scalar helpers -------------------------------------------------

    def _grad_sum(self, t, y, lo, hi):
        """d/dy of the block objective sum (Q_i(y) - x_i)^2 of target ``t``."""
        q = self.domain.inv_cumweight(y + self.offs[lo : hi + 1])
        w = self.domain.weight(q)
        return float((2.0 * (q - t.x[lo : hi + 1]) / w).sum())

    def _solve_block(self, t, lo, hi, start=None):
        """Value of the pooled block ``lo..hi`` of target ``t``.

        The block value minimizes ``sum (Q_i(y) - x_i)^2`` over
        ``lb[lo] <= y <= ub[hi]``.  Flat domains have a closed form.  On
        radial domains with targets ``x_i >= 0`` stationarity reads
        ``f(y) = k - sum x_i / q_i(y) = 0`` with
        ``q_i(y) = sqrt(a^2 + (y + i*ds)/h)`` and ``h`` the half angle;
        ``f`` is increasing and concave, so a tangent root never lies
        past the root.  Newton's method starts at ``start`` clamped into
        the bounds (the lower bound if none is given); where ``f >= 0``
        there, one tangent step, clamped at the lower bound, lands at or
        left of the root.  From there the iterates climb monotonically
        onto the root, and a tangent root past the upper bound means the
        root is past it too.  A negative target (apex domains) breaks
        concavity, so such a block is solved by ``brentq`` between the
        bounds.
        """
        ylo = self.lb[lo]
        yhi = self.ub[hi]
        if ylo > yhi + 1e-15:
            raise FeasibilityError("sample chain does not fit in the domain")
        if self.flat:
            # closed form: y* = mean of (x_i - a - i*ds)
            s = t.psum[hi + 1] - t.psum[lo]
            return min(max(s / (hi - lo + 1), ylo), yhi)
        xtol, rtol = 1e-15, 4.0 * np.finfo(float).eps
        xs = t.x[lo : hi + 1]
        if xs.min() >= 0.0:
            a, h = self.domain.a, self.domain.half_angle
            offs = self.offs[lo : hi + 1]
            y = ylo if start is None else min(max(start, ylo), yhi)
            # only a start past the lower bound may lie right of the root
            right = y > ylo
            # converges quadratically; the cap only guards the loop,
            # brentq below takes over if it is ever reached
            for _ in range(100):
                q = np.sqrt(a * a + (y + offs) / h)
                r = xs / q
                f = (hi - lo + 1) - float(r.sum())
                if f >= 0.0:
                    if not right:
                        return y
                    # f is flat only if every target is 0: then the
                    # lower bound is the minimizer
                    slope = float((r / (q * q)).sum())
                    right, y = False, max(y - 2.0 * h * f / slope, ylo) if slope > 0.0 else ylo
                    continue
                right = False
                step = -2.0 * h * f / float((r / (q * q)).sum())
                if y + step >= yhi:
                    return yhi
                y += step
                if step <= xtol + rtol * abs(y):
                    return y
        glo = self._grad_sum(t, ylo, lo, hi)
        if glo >= 0.0:
            return ylo
        ghi = self._grad_sum(t, yhi, lo, hi)
        if ghi <= 0.0:
            return yhi
        return brentq(
            lambda y: self._grad_sum(t, y, lo, hi),
            ylo,
            yhi,
            xtol=xtol,
            rtol=rtol,
            maxiter=200,
        )

    # -- projection ------------------------------------------------------

    def project(self, t, m=0):
        """Positions closest to the target of record ``t`` among admissible configurations.

        Samples ``0..m-1`` are pinned on the door and excluded; ``t`` is
        the record of the full-length target array (:meth:`target`).
        The trial partition (:meth:`_trial`) is certified; if it fails,
        exact pooling (:meth:`_pool`) is, and if that fails too, the
        projection raises :class:`SolverFailureError` with the pooled
        positions.  Returns the full position array, a function of the
        target and ``m`` alone.
        """
        n, ds = self.n, self.ds
        if (n - m) * ds > self.cap + 1e-12:
            raise FeasibilityError("interior mass exceeds domain capacity")
        q, bad = self._certified(t, m, *self._trial(t, m))
        if bad is not None:
            q, bad = self._certified(t, m, *self._pool(t, m))
            if bad is not None:
                raise SolverFailureError(bad[0], last_iterate=q, gap=bad[1], m=m)
        return q

    def target(self, x):
        """The :class:`_Target` record of the projection target ``x``, built from a copy of it.

        Every projection of ``x`` takes the record, and the record keeps
        what they derive from ``x``.
        """
        a, R = self.domain.a, self.domain.R
        x = np.array(x, dtype=float)
        singles = _clip(self.domain.cumweight(_clip(x, a, R)) - self.offs, self.lb, self.ub)
        falls = singles[1:] < singles[:-1]
        last_drop, last_rise = (int(j[-1]) if j.size else -1
                                for j in (falls.nonzero()[0], (~falls).nonzero()[0]))
        scale = max(1.0, float(abs(x).max()))
        pos = self.domain.inv_cumweight(singles + self.offs)
        psum = None
        if self.flat:
            trial = x - a - self.offs
            psum = np.concatenate([[0.0], np.cumsum(trial)])
        else:
            trial = self.domain.weight(pos) ** -2.0
        for arr in (x, singles, trial, psum, pos):
            if arr is not None:
                arr.flags.writeable = False
        return _Target(x, singles, last_drop, last_rise, scale, trial, psum, pos)

    def _ones(self, t):
        """Fill ``t.grad`` and ``t.fails``, the gradients and verdicts of the blocks of one.

        A block of one sits at its clipped target ``t.singles[j]`` in
        every partition, at position ``t.pos[j]``, so its gradient and
        its verdicts depend on the target alone.  Run once per target,
        and only when a partition of it has a block of one.  A total
        within the tolerance passes whatever its box, so the box tests
        run only on the samples where ``~(|grad| <= tol)``, which also
        holds for a NaN gradient.
        """
        tol = KKT_TOL * t.scale
        t.grad = 2.0 * (t.pos - t.x) / self.domain.weight(t.pos)
        j = (~(abs(t.grad) <= tol)).nonzero()[0]
        t.fails = j[~_ends_ok(t.singles[j], self.lb[j], self.ub[j], t.grad[j], tol)]
        t.grad.flags.writeable = t.fails.flags.writeable = False

    def _certified(self, t, m, lo_b, hi_b, y_b):
        """Positions of a block partition and its certificate's verdict, ``(q, bad)``.

        A partition lists its blocks ``lo_b..hi_b`` and their values
        ``y_b`` (the trial and the exact pooling list their pooled blocks);
        every other sample from ``m`` on is a block of one at its clipped
        target ``t.singles[j]``, whose position, gradient and verdicts are
        read from the target's record (:meth:`_ones`).  The certificate
        asks for block values in chain order, read off the partition's
        values ``y`` from ``m`` on, and for nonnegative multipliers
        (:meth:`_kkt_violation`).  ``bad`` is ``None`` if the certificate
        holds, else a ``(message, gap)`` pair.
        """
        n = self.n
        y = t.singles.copy()
        count, at, starts, ends = 0, None, None, None
        if lo_b.size:
            # a partition's block sizes and where each block starts and
            # ends among the listed samples, for the certificate too
            sizes = hi_b - lo_b + 1
            ends = sizes.cumsum()
            starts = ends - sizes
            count = int(ends[-1])
            s0, s1 = int(lo_b[0]), int(hi_b[-1]) + 1
            # the listed blocks' samples: a slice when they are contiguous
            at, y_at = slice(s0, s1), np.repeat(y_b, sizes)
            if count < s1 - s0:
                at = np.arange(count) + np.repeat(lo_b - starts, sizes)
            y[at] = y_at
        order = float((y[m + 1:] - y[m:-1]).min(initial=0.0))
        if count < n - m and t.grad is None:
            self._ones(t)
        q = t.pos.copy()
        q[:m] = self.domain.a
        if count:
            q[at] = self.domain.inv_cumweight(y_at + self.offs[at])
        if order < -GAP_TOL:
            return q, ("projection certificate failed: block values out of chain order", order)
        return q, self._kkt_violation(q, t, m, at, lo_b, hi_b, y_b, starts, ends)

    def _trial(self, t, m):
        """Trial partition of target ``t`` from sample ``m`` on: its pooled
        blocks as (lo, hi, value) arrays.

        The trial is the clipped isotonic regression of the trial's input.
        In ``y`` both boxes decrease with the index, so an isotone ``y``
        can only meet ``lb[m]`` and ``ub[n-1]``, and the box-constrained
        regression is the unconstrained one clipped to them.  On flat
        domains the regression of ``x - a - j*ds`` is the projection
        itself.  On radial domains it runs on the singles with weights
        ``1/w(Q(single))^2``: near its optimum ``s_j`` a sample's term is
        ``(Q_j(y) - x_j)^2 ~ (y - s_j)^2 / w(Q_j(s_j))^2``.  Runs of equal
        clipped values are the blocks (runs at a bound merged), and each
        run longer than one sample is solved exactly once, from its value.
        Two suffixes run no regression: singles in order from ``m`` on are
        their own regression and list no block, and on a radial domain two
        or more singles that drop at every pair from ``m`` on pool into the
        one block ``m..n-1`` at their weighted mean, clipped.
        """
        n = self.n
        if t.last_drop < m:
            return _NO_BLOCKS, _NO_BLOCKS, _NO_VALUES
        if self.flat:
            fit = _clip(isotonic_regression(t.trial[m:]).x, self.lb[m], self.ub[-1])
        elif t.last_rise < m <= n - 2:
            if t.means is None:
                # suffix sums, from the last sample down
                w = np.cumsum(t.trial[::-1])
                ws = np.cumsum((t.trial * t.singles)[::-1])
                t.means = (ws / w)[::-1]
                t.means.flags.writeable = False
            y = float(min(max(t.means[m], self.lb[m]), self.ub[-1]))
            return np.array([m]), np.array([n - 1]), np.array([self._solve_block(t, m, n - 1, y)])
        else:
            fit = _clip(isotonic_regression(t.singles[m:], weights=t.trial[m:]).x,
                        self.lb[m], self.ub[-1])
        # same[j] tells whether fit[j] equals fit[j-1], False at both ends
        same = np.zeros(fit.size + 1, dtype=bool)
        np.equal(fit[1:], fit[:-1], out=same[1:-1])
        edges = (same[1:] != same[:-1]).nonzero()[0] + m
        lo_b, hi_b = edges[::2], edges[1::2]
        return lo_b, hi_b, np.array([self._solve_block(t, int(lo), int(hi), float(fit[lo - m]))
                                     for lo, hi in zip(lo_b, hi_b)], dtype=float)

    def _pool(self, t, m):
        """Exact pooling of adjacent violators: the pooled blocks as (lo, hi, value) arrays.

        Every merge solves its block from the lower bound
        (:meth:`_solve_block`).  This is the fallback for a trial partition
        that fails the certificate; if its own partition fails too,
        :meth:`project` raises.
        """
        lo_s, y_s = [], []
        for j in range(m, self.n):
            lo, y = j, float(t.singles[j])
            while y_s and y_s[-1] > y + GAP_TOL:
                lo = lo_s.pop()
                y_s.pop()
                y = self._solve_block(t, lo, j)
            lo_s.append(lo)
            y_s.append(y)
        lo_s = np.asarray(lo_s, dtype=int)
        hi_s = np.append(lo_s[1:] - 1, self.n - 1)
        pooled = hi_s > lo_s
        return lo_s[pooled], hi_s[pooled], np.asarray(y_s, dtype=float)[pooled]

    def _kkt_violation(self, q, t, m, at, lo_b, hi_b, y_b, starts, ends):
        """Multiplier nonnegativity certificate for the projection.

        A block total, the sum of the per-sample gradients over the block,
        must vanish unless a box bound absorbs it.  With ``c`` the running
        sum of the gradients over the listed blocks' samples ``at``, the
        multiplier of the pair ``(j, j+1)`` inside a pooled block
        ``lo..hi`` is the sum of the gradients over ``j+1..hi``,
        ``c[hi] - c[j]`` (plus the upper-box multiplier ``beta`` when the
        block is clamped there), so the smallest is
        ``c[hi] + beta - max(c[lo..hi-1])``, and these must be
        nonnegative.  A block of one has no pair inside, and its total is
        its gradient, checked through ``t.fails``.  The listed blocks
        start at ``starts`` among the samples ``at`` and end before
        ``ends``.  The gradients, the totals, ``c`` and its maxima over
        each block are array passes over those samples; the verdicts are
        then read off them block by block in Python floats, which run the
        same IEEE operations as the arrays did: ``beta`` is
        ``np.maximum(-total, 0.0)``, ``+0.0`` for a total of ``+0.0`` and
        NaN for a NaN one, and the smallest multiplier is NaN as soon as
        any one is, as under ``ndarray.min``.  Returns ``None`` if the
        certificate holds, else a ``(message, gap)`` pair.
        """
        tol = KKT_TOL * t.scale
        # (first sample, total) of the first block that fails at its
        # boundary, listed or of one
        bad = None
        if t.fails is not None and t.fails.size:
            # the failing samples that are blocks of one: at or past m and
            # in no listed block
            j = t.fails
            j = j[(j >= m) & (np.append(lo_b, self.n)[hi_b.searchsorted(j)] > j)]
            if j.size:
                bad = (int(j[0]), float(t.grad[j[0]]))
        worst = math.inf
        if lo_b.size:
            qb = q[at]
            g = 2.0 * (qb - t.x[at]) / self.domain.weight(qb)
            c = g.cumsum()
            blocks = zip(lo_b.tolist(), y_b.tolist(), self.lb[lo_b].tolist(),
                         self.ub[hi_b].tolist(), np.add.reduceat(g, starts).tolist(),
                         c[ends - 1].tolist(), np.maximum.reduceat(c, starts).tolist())
            for lo, y, lb, ub, total, c_hi, top in blocks:
                if bad is not None and lo > bad[0]:
                    break
                if not _ends_ok(y, lb, ub, total, tol):
                    bad = (lo, total)
                    break
                # with c[hi] in the maximum too, c[hi] + beta - max(c[lo..hi])
                # is the smallest multiplier inside the block where it is
                # negative, and nonnegative elsewhere
                beta = -total if y >= ub - GAP_TOL and not -total <= 0.0 else 0.0
                inner = c_hi + beta - top
                if inner < worst or inner != inner:
                    worst = inner
        if bad is not None:
            return ("projection certificate failed at a block boundary", bad[1])
        if worst < -tol:
            return ("projection certificate failed inside a block", worst)
        return None


def _ends_ok(y, lb, ub, totals, tol):
    """Whether each block total vanishes, or a box bound absorbs it (floats or arrays)."""
    return (((y <= lb + GAP_TOL) & (totals >= -tol)) | ((y >= ub - GAP_TOL) & (totals <= tol))
            | (abs(totals) <= tol))


def step_objective(q, p, D, tau, ds):
    """Discrete step objective over the full sample set."""
    move = q - p
    return float(((D.fn(q) + move * move / (2.0 * tau)) * ds).sum())


def minimize_free(projector, q_prev, m, D, tau, *, warm=None, _x=None):
    """Minimization of the step objective with the pinned prefix ``m``.

    Returns ``(q, value)``: the full position array and its step
    objective.  An affine ``D`` (``D.affine``) makes the objective a
    squared distance to ``x = q_prev - tau*D'``, so its one projection is
    the minimizer and ``warm`` is not read; :func:`solve_step` passes the
    record of ``x`` (:meth:`ChainProjector.target`) that it has built
    once for the step as ``_x``.  A curved ``D`` runs projected gradient
    iterations from the previous configuration (or ``warm``) with the
    new prefix pinned, which is always feasible.
    The loop stops when a projection returns its start or does not lower
    the objective.  The step ``theta*tau`` is ``1/lip``.
    """
    ds = projector.ds
    if D.affine:
        t = projector.target(q_prev - tau * D.grad(q_prev)) if _x is None else _x
        q = projector.project(t, m)
        return q, step_objective(q, q_prev, D, tau, ds)
    a = projector.domain.a
    q = (warm if warm is not None else q_prev).copy()
    q[:m] = a
    theta = 1.0 / (1.0 + tau * max(D.curv_ub, 0.0, -min(D.lam, 0.0)))
    eta = theta * tau
    best = step_objective(q, q_prev, D, tau, ds)
    for _ in range(MAX_ITER):
        x = q_prev + (1.0 - theta) * (q - q_prev) - eta * D.grad(q)
        q_new = projector.project(projector.target(x), m)
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
    ``hi`` counts as false without a call, and ``lo`` is not probed
    either.  Probes ``guess - 1`` and
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


def solve_step(projector, q_prev, m_prev, D, tau, lead=0):
    """One congested step: choose the absorbed prefix and minimize.

    With an exit the admissible set is not convex in quantile
    coordinates, so the absorbed prefix ``m`` is searched rather than
    solved for.  Candidate ``m`` is minimized once with ``m`` samples
    pinned on the door, warm-started from candidate ``m - 1`` where that
    has been evaluated.  Candidate ``n``, the empty room, is no special
    case: its projection puts every sample on the door.  The step takes
    the smallest ``m >= m_prev`` whose successor does not lower the
    objective by more than 1e-15: the first stop of a scan ``m_prev,
    m_prev + 1, ...``, which is the minimizer since no later pair drops
    (a tested invariant).  Pinning is irreversible, which makes the
    no-return property structural.

    A curved ``D`` runs that scan, warm chain included.  An affine ``D``
    (``D.affine``) has candidates that do not depend on their
    warm start, all projecting the one target ``x = q_prev - tau*D'``,
    so the objective of candidate ``m`` is ``ds/(2 tau)`` times its
    squared distance to ``x``, up to a constant, and its discrete slope
    ``f(m + 1) - f(m)`` increases with ``m``.  The prefix is the first
    stop of that slope, found by one search over the exact candidates
    with the same tie rule: it gallops and bisects from a start
    (:func:`_first_stop`), so the start changes what the step costs and
    never what it returns.  The start is ``past + lead``, with ``past``
    the first sample whose target lies inside the domain and ``lead``
    how far the last step's stop lay past its own ``past`` (``0`` on a
    run's first step).  From ``past`` itself, when the slopes at
    ``past`` and ``past + 1`` both drop, the search goes on one past the
    root of the line through them, the root rounded up and at least
    ``past + 2``: both slopes are read off the candidates that the two
    tests have evaluated.  Pinning a sample whose target is at or past
    the door lowers the objective by at least ``ds/(2 tau) * (P0 - a)^2``,
    with ``P0`` the lowest free position; where that clears the tie
    threshold and the objective's rounding (:func:`_door_gain_clears`),
    the search never evaluates a candidate below those samples, else it
    may go down to ``m_prev``.

    Returns ``(q, m, objective, after, lead)``, with ``after`` the
    candidate ``m + 1`` as a ``(q, objective)`` pair, which the search
    has always evaluated, or ``None`` when there is none (``m = n``, or
    no exit), and ``lead`` this step's ``m - past`` for the next step
    (``0`` unless ``D`` is affine on an exit domain).  ``after`` is what
    :func:`minimize_free` returns for ``m + 1`` warm-started from ``q``:
    a scan warm-starts each candidate from the one below, and an affine
    candidate does not depend on its warm start.
    """
    if not projector.domain.has_exit:
        q, val = minimize_free(projector, q_prev, 0, D, tau)
        return q, 0, val, None, 0
    n = projector.n
    found = {}
    # the record of the one target of every candidate
    t = projector.target(q_prev - tau * D.grad(q_prev)) if D.affine else None

    def candidate(m):
        if m not in found:
            # a scan evaluates m - 1 first; an affine candidate reads no warm start
            warm = found[m - 1][0] if m - 1 in found else None
            found[m] = minimize_free(projector, q_prev, m, D, tau, warm=warm, _x=t)
        return found[m]

    def lowers(m):
        # candidate m first: it is the warm start of candidate m + 1
        before = candidate(m)[1]
        return candidate(m + 1)[1] < before - 1e-15

    if D.affine:
        # pinning a sample whose target is at or past the door lowers the
        # objective, so the first stop lies past every such sample
        past = m_prev + int(np.count_nonzero(t.x[m_prev:] <= projector.domain.a))
        lo = past - 1 if _door_gain_clears(projector, D, tau) else m_prev - 1
        guess = past + lead
        if lead == 0 and past + 1 < n and lowers(past) and lowers(past + 1):
            # on a draining queue the slope rises close to linearly up to
            # the stop, so the root of the line through the first two
            # lands on the stop or one sample short of it: go on one past
            # the root, so that the search first tests the root and the
            # prefix after it
            f = [found[k][1] for k in (past, past + 1, past + 2)]
            f0, f1 = f[1] - f[0], f[2] - f[1]
            lo = past + 1
            if f0 < f1:
                guess = min(past + 2 + max(1, math.ceil(-f1 / (f1 - f0))), n)
        m = _first_stop(lowers, lo, n, guess)
        lead = m - past
    else:
        m, lead = m_prev, 0
        while m < n and lowers(m):
            m += 1
    q, val = candidate(m)
    return q, m, val, found.get(m + 1), lead
