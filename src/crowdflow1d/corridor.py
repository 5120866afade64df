"""Semi-analytic solution of the convergent-corridor scenario.

A uniform crowd of density ``rho0`` fills the radial segment ``[a, R]``
and walks toward the inner end with unit free speed.  The evolving
profile keeps a three-piece shape: a saturated zone ``[a, b]``, the
rarefaction ``rho0 (1 + t/r)`` on ``[b, R - t)`` and vacuum beyond.  The
interface ``b(t)`` obeys closed recurrences step by step and an ODE in
continuous time, both used as references for the generic scheme:

* without exit (``a = 0`` typical): the stepped interface satisfies
  ``b^2 - rho0 (b + k tau)^2 = const`` and, from rest, the closed form
  ``b(t) = t sqrt(rho0) / (1 - sqrt(rho0))`` which the scheme reproduces
  exactly at step times;
* with an absorbing door at ``a``: one step removes the mass between the
  door and a cut radius ``r_e`` chosen by minimizing the one-step
  objective, and the interface follows
  ``b_k^2 - a^2 = b_{k-1}^2 - r_e^2`` once no rarefaction remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import FeasibilityError, RegimeEndError, StiffnessError
from .jko import _step_count
from .measures import CellGeometry, Domain1D, Measure1D


def unit_mass_half_angle(a, R, rho0):
    """Half angle that gives the uniform density ``rho0`` on ``[a, R]`` unit mass."""
    return 1.0 / (rho0 * (R**2 - a**2))


@dataclass(frozen=True)
class CorridorPreset:
    """Geometry and discretization of a corridor scenario."""

    name: str
    a: float
    R: float
    rho0: float
    tau: float
    has_exit: bool

    @property
    def half_angle(self):
        return unit_mass_half_angle(self.a, self.R, self.rho0)

    def domain(self):
        return Domain1D(self.a, self.R, "radial", self.half_angle, self.has_exit)

    def initial(self, n_cells=2048):
        return Measure1D.uniform(self.domain(), self.rho0, n_cells)


def fig3_preset():
    """Closed corridor filling from the apex."""
    return CorridorPreset("fig3", 0.0, 10.0, 0.4, 0.01, False)


def fig4_preset():
    """Corridor draining through a door at the inner radius."""
    return CorridorPreset("fig4", 1.0, 10.0, 0.4, 0.01, True)


def saturated_exit_preset(tau=0.025):
    """Fully saturated start, used for convergence studies."""
    return CorridorPreset("saturated_exit", 1.0, 10.0, 1.0, tau, True)


@dataclass(frozen=True)
class RadialProfile:
    """Three-piece corridor profile at one instant."""

    t: float
    a: float
    R: float
    rho0: float
    b: float
    exit_mass: float = 0.0

    @property
    def half_angle(self):
        return unit_mass_half_angle(self.a, self.R, self.rho0)

    def cummass(self, r):
        """Interior mass of ``[a, r]`` (exit atom excluded)."""
        al = self.half_angle
        r = np.asarray(r, dtype=float)
        sat = al * (np.clip(r, self.a, self.b) ** 2 - self.a**2)
        front = self.R - self.t
        rare = np.zeros_like(sat)
        if self.b < front:
            up = np.clip(r, self.b, front)
            rare = al * self.rho0 * ((up + self.t) ** 2 - (self.b + self.t) ** 2)
        return sat + rare

    def density(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.b, 1.0, 0.0)
        front = self.R - self.t
        if self.b < front:
            rare = self.rho0 * (1.0 + self.t / np.maximum(r, 1e-300))
            out = np.where((r > self.b) & (r < front), rare, out)
        return out

    def interior_mass(self):
        return float(self.cummass(self.R))


def render(profile, n_cells=2048, has_exit=None):
    """Exact cell averages of a profile as a measure.

    Cell masses are differences of the closed-form cumulative mass, so
    the total is conserved to rounding.
    """
    if has_exit is None:
        has_exit = profile.exit_mass > 0.0
    dom = Domain1D(profile.a, profile.R, "radial", profile.half_angle, has_exit)
    cells = CellGeometry(dom, n_cells)
    mass = np.diff(profile.cummass(cells.edges))
    rho = np.clip(mass / cells.dW, 0.0, 1.0)
    return Measure1D(dom, cells.edges, rho, profile.exit_mass)


# -- closed corridor (no exit) -----------------------------------------


def closed_form_b(t, rho0):
    """Interface grown from rest: ``b(t) = t sqrt(rho0)/(1 - sqrt(rho0))``."""
    s = np.sqrt(rho0)
    return np.asarray(t, dtype=float) * s / (1.0 - s)


def no_exit_regime_end(rho0, R):
    """Time when the rarefaction is exhausted and the profile freezes."""
    return R * (1.0 - np.sqrt(rho0))


def profile_no_exit(t, rho0, R):
    """Analytic profile of the closed corridor at time ``t``."""
    t_end = no_exit_regime_end(rho0, R)
    b = closed_form_b(min(t, t_end), rho0)
    return RadialProfile(t=min(t, t_end), a=0.0, R=R, rho0=rho0, b=float(b))


def step_b_no_exit(b_prev, k, tau, rho0):
    """Advance the stepped interface by the conserved quadratic.

    ``b_k`` solves ``b^2 - rho0 (b + k tau)^2 = c`` with ``c`` carried
    over from the previous step; growing root.  Raises once the
    rarefaction would be exhausted.
    """
    if not 0.0 < rho0 < 1.0:
        raise FeasibilityError("step recurrence needs 0 < rho0 < 1")
    t_prev = (k - 1) * tau
    c = b_prev**2 - rho0 * (b_prev + t_prev) ** 2
    t = k * tau
    disc = rho0**2 * t**2 + (1.0 - rho0) * (rho0 * t**2 + c)
    if disc < 0.0:
        raise RegimeEndError("no admissible interface at this step")
    b = (rho0 * t + np.sqrt(disc)) / (1.0 - rho0)
    return float(b)


def _rk4(f, t0, y0, t1, n):
    h = (t1 - t0) / n
    t, y = t0, y0
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _richardson_rk4(f, t0, y0, t1):
    n = 64
    prev = _rk4(f, t0, y0, t1, n)
    for _ in range(14):
        n *= 2
        cur = _rk4(f, t0, y0, t1, n)
        if abs(cur - prev) < 1e-12 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise StiffnessError("interface ODE integration did not settle")


def ode_b_no_exit(t, rho0):
    """Integrate ``b' = rho0 (b+t) / (b - rho0 (b+t))`` from rest.

    The origin is a degenerate point of the ODE; integration starts on
    the known local solution a short way in and must agree with the
    closed form downstream.
    """
    if t <= 0.0:
        return 0.0

    def f(s, b):
        return rho0 * (b + s) / (b - rho0 * (b + s))

    t_seed = min(1e-3, 1e-3 * t)
    b_seed = float(closed_form_b(t_seed, rho0))
    return float(_richardson_rk4(f, t_seed, b_seed, t))


# -- corridor with an absorbing door -----------------------------------


def saturation_onset(a, rho0):
    """Time when the door can no longer pass the incoming flux."""
    return a * (1.0 - rho0) / rho0


def exit_ode_rhs(t, b, a, R, rho0):
    """Branching slope of the interface with the door absorbing.

    While the rarefaction feeds the saturated zone the slope balances
    inflow against the door drain; once ``b`` passes the rarefaction
    front only the drain remains.
    """
    if b <= a:
        b = a
    drain = (b - a) / (b * np.log(b / a)) if b > a * (1.0 + 1e-14) else 1.0
    if b >= R - t:
        return -drain
    feed = rho0 * (1.0 + t / b)
    den = 1.0 - feed
    if den <= 0.0:
        raise StiffnessError("interface below the admissible branch")
    return (feed - drain) / den


def onset_slope(rho0):
    """Liftoff slope of the interface at the saturation onset.

    Balancing feed against drain to first order in ``t - t0`` gives a
    quadratic for the slope; the admissible root is positive.
    """
    return (4.0 * rho0 - 1.0 + np.sqrt(1.0 + 8.0 * rho0)) / (4.0 * (1.0 - rho0))


def ode_b_exit(t_end, a, R, rho0):
    """Integrate the draining-interface ODE up to ``t_end``.

    For ``rho0 = 1`` the whole corridor starts saturated (``b(0) = R``)
    and only the smooth drain branch is active.  For ``rho0 < 1`` the
    interface sits at the door until the saturation onset where the feed
    branch is 0/0; integration restarts just past the onset on the local
    linear solution and proceeds with step-doubling error control.
    Accuracy near the onset is limited by the seed offset.
    """
    if rho0 >= 1.0:
        def f(s, b):
            return exit_ode_rhs(s, b, a, R, rho0)

        return float(_richardson_rk4(f, 0.0, float(R), t_end))
    t0 = saturation_onset(a, rho0)
    if t_end <= t0:
        return float(a)

    def f(s, b):
        return exit_ode_rhs(s, max(b, a), a, R, rho0)

    delta = min(1e-7 * max(a, 1.0), 0.25 * (t_end - t0))
    t = t0 + delta
    b = a + onset_slope(rho0) * delta
    h = min(1e-3, (t_end - t0) / 64.0)
    h_min = (t_end - t0) / 2.0**48
    while t < t_end - 1e-15:
        h_try = min(h, t_end - t)
        while True:
            try:
                full = _rk4(f, t, b, t + h_try, 1)
                half = _rk4(f, t, b, t + h_try, 2)
                ok = (np.isfinite(full) and np.isfinite(half)
                      and abs(full - half) < 1e-10 * max(1.0, abs(half)))
            except StiffnessError:
                ok = False
            if ok:
                break
            h_try *= 0.5
            if h_try < h_min:
                raise StiffnessError("interface ODE step collapsed near onset")
        b = max(float(half), a)
        t += h_try
        if h_try >= h * 0.999:
            h = min(h * 2.0, 1e-2)
        else:
            h = h_try
    return b


def _travel_integral(lo, hi, c):
    """``int_lo^hi (sqrt(s^2 + c) - s) ds`` in closed form."""
    if hi <= lo:
        return 0.0

    def anti(u):
        s = np.sqrt(max(u * u + c, 0.0))
        log_term = np.log(u + s) if u + s > 0.0 else 0.0
        return 0.5 * (u * s + c * log_term) - 0.5 * u * u

    return anti(hi) - anti(lo)


def _block_cut_balance(r_e, b_prev, a, tau):
    """Stationarity function of the pure-block step.

    Samples keep order, so the survivor from old radius ``r`` lands at
    ``sqrt(r^2 - r_e^2 + a^2)`` and the derivative of the one-step cost
    in the cut radius vanishes where ``H`` does; the closed
    antiderivative keeps it exact.
    """
    c = r_e**2 - a**2
    b = np.sqrt(max(b_prev**2 - c, a * a))
    return (b - a) - _travel_integral(a, b, c) / tau


def _mixed_cut_balance(r_e, b_prev, k, tau, a, R, rho0, exit_mass_prev):
    """Stationarity function when a rarefaction still feeds the block.

    Only samples landing in the new saturated zone respond to the cut;
    they split into survivors of the old block and absorbed rarefaction
    mass, each with a closed travel antiderivative that matches at the
    image of the old interface.
    """
    t_prev = (k - 1) * tau
    prof_prev = _prev_profile(b_prev, t_prev, a, R, rho0, exit_mass_prev)
    shed = float(prof_prev.cummass(r_e))
    b_new = _mixed_interface(b_prev, k, tau, a, R, rho0, shed)
    if not np.isfinite(b_new):
        return -np.inf
    b1 = np.sqrt(max(b_prev**2 - r_e**2 + a * a, a * a)) if r_e <= b_prev else a
    b1 = min(b1, b_new)
    i1 = _travel_integral(a, b1, r_e**2 - a * a)
    # absorbed rarefaction: old position sqrt(s^2/rho0 + kappa) - t_prev
    i2 = 0.0
    if b_new > b1:
        kappa = (b_prev + t_prev) ** 2 - (b_prev**2 - shed / prof_prev.half_angle) / rho0
        ck = rho0 * kappa
        lo, hi = b1, b_new
        int_sqrt = (_travel_integral(lo, hi, ck)
                    + 0.5 * (hi * hi - lo * lo)) / np.sqrt(rho0)
        i2 = int_sqrt - (t_prev + 0.5 * (hi + lo)) * (hi - lo)
    return (b_new - a) - (i1 + i2) / tau


def _mixed_interface(b_prev, k, tau, a, R, rho0, shed):
    """New interface from mass balance after shedding ``shed``.

    Returns the new interface ``b``, or ``nan`` when no admissible
    profile carries the remaining mass.
    """
    t_prev = (k - 1) * tau
    t = k * tau
    prof_prev = _prev_profile(b_prev, t_prev, a, R, rho0, 0.0)
    alpha = prof_prev.half_angle
    m_new = prof_prev.interior_mass() - shed
    if m_new < -1e-12:
        return np.nan
    if rho0 >= 1.0:
        return float(np.sqrt(a * a + max(m_new, 0.0) / alpha))
    disc = rho0**2 * t**2 + (1.0 - rho0) * (
        a * a + m_new / alpha - rho0 * R * R + rho0 * t * t)
    if disc < 0.0 and disc > -1e-13 * max(1.0, R * R):
        disc = 0.0
    if disc < 0.0:
        return np.nan
    b = (rho0 * t + np.sqrt(disc)) / (1.0 - rho0)
    if b < a - 1e-12:
        return np.nan
    b = max(float(b), a)
    if b > R - t:  # rarefaction fully absorbed
        return float(np.sqrt(a * a + m_new / alpha))
    return b


def step_b_exit(b_prev, k, tau, a, R, rho0, exit_mass_prev=0.0):
    """One step of the draining corridor.

    Returns ``(b, r_e, exit_increment)``.  The optimal cut radius is the
    root of a closed-form stationarity equation, with one branch for the
    pure block (always for ``rho0 = 1``) and one for the regime where a
    rarefaction still feeds the saturated zone.
    """
    if a <= 0.0:
        raise FeasibilityError("draining corridor needs a door radius a > 0")
    if b_prev <= a:
        b_prev = a
    t_prev = (k - 1) * tau
    pure_block = b_prev >= R - t_prev - 1e-12
    prof_prev = _prev_profile(b_prev, t_prev, a, R, rho0, exit_mass_prev)
    lo = a * (1.0 + 1e-12)
    if pure_block:
        balance = lambda re: _block_cut_balance(re, b_prev, a, tau)
        hi = b_prev * (1.0 - 1e-12)
    else:
        balance = lambda re: _mixed_cut_balance(re, b_prev, k, tau, a, R, rho0,
                                                exit_mass_prev)
        hi = _max_cut(b_prev, k, tau, a, R, rho0, exit_mass_prev)
    if balance(lo) <= 0.0:
        r_e = a
    elif balance(hi) >= 0.0:
        r_e = hi  # cut pinned at the largest admissible radius
    else:
        r_e = float(brentq(balance, lo, hi, xtol=1e-14, rtol=8.9e-16))
    shed = float(prof_prev.cummass(r_e))
    if pure_block:
        b = float(np.sqrt(max(b_prev**2 - (r_e**2 - a * a), a * a)))
    else:
        b = _mixed_interface(b_prev, k, tau, a, R, rho0, shed)
    return float(b), r_e, shed


def _prev_profile(b_prev, t_prev, a, R, rho0, exit_mass_prev):
    return RadialProfile(t=t_prev, a=a, R=R, rho0=rho0, b=b_prev,
                         exit_mass=exit_mass_prev)


def _max_cut(b_prev, k, tau, a, R, rho0, exit_mass_prev):
    """Largest admissible cut radius for one step.

    Shedding more would leave too little mass for any profile whose
    rarefaction stays below the density cap, so the step family is only
    solvable up to the cut where the remaining mass hits that floor.
    Also capped at one free-fall reach past the saturated zone, beyond
    which the travel cost is prohibitive.
    """
    t = k * tau
    prof_prev = _prev_profile(b_prev, (k - 1) * tau, a, R, rho0, exit_mass_prev)
    alpha = prof_prev.half_angle
    b_floor = max(a, rho0 * t / (1.0 - rho0))
    mass_floor = alpha * (b_floor**2 - a * a)
    if b_floor < R - t:
        mass_floor += alpha * rho0 * (R * R - (b_floor + t) ** 2)
    shed_max = prof_prev.interior_mass() - mass_floor

    def over(r_e):
        return float(prof_prev.cummass(r_e)) - shed_max

    if shed_max <= 0.0:
        r_feas = a
    elif over(R) <= 0.0:
        r_feas = R
    else:
        r_feas = brentq(over, a, R, xtol=1e-13)
    reach = a + max(tau, b_prev - a + tau)
    return float(np.clip(min(r_feas, reach), a + 1e-12, R - 1e-9))


def candidate_step_objective(b_prev, k, tau, a, R, rho0, exit_mass_prev, r_e,
                             n_probe=32768):
    """Sampled one-step cost of the cut ``r_e``; oracle for the
    closed-form stationarity root."""
    t_prev = (k - 1) * tau
    prof_prev = _prev_profile(b_prev, t_prev, a, R, rho0, exit_mass_prev)
    shed = float(prof_prev.cummass(r_e))
    b = _mixed_interface(b_prev, k, tau, a, R, rho0, shed)
    if not np.isfinite(b):
        return np.inf
    prof_new = RadialProfile(t=k * tau, a=a, R=R, rho0=rho0, b=b,
                             exit_mass=exit_mass_prev + shed)
    return _one_step_objective(prof_prev, prof_new, tau, n_probe)


def _profile_quantiles(prof, s):
    """Closed-form quantile samples of a profile (door plateau included)."""
    al = prof.half_angle
    e = prof.exit_mass
    q = np.full_like(s, prof.a)
    inside = s > e
    m = s[inside] - e
    sat_mass = al * (prof.b**2 - prof.a**2)
    q_sat = np.sqrt(prof.a**2 + np.minimum(m, sat_mass) / al)
    q_in = q_sat
    front = prof.R - prof.t
    if prof.b < front:
        extra = m - sat_mass
        rare = np.sqrt(np.maximum(extra, 0.0) / (al * prof.rho0) + (prof.b + prof.t) ** 2) - prof.t
        q_in = np.where(extra > 0.0, rare, q_sat)
    q[inside] = q_in
    return q


def _one_step_objective(prof_prev, prof_new, tau, n_probe):
    s = (np.arange(n_probe) + 0.5) / n_probe
    qp = _profile_quantiles(prof_prev, s)
    qn = _profile_quantiles(prof_new, s)
    move = qn - qp
    return float(np.mean(qn + move * move / (2.0 * tau)))


def chain_interface(preset, T):
    """Iterate the per-step interface recurrence up to time ``T``.

    Returns arrays ``(times, b, exit_mass)`` including the initial state.
    ``T`` must be a whole number of steps (``jko._step_count``).
    """
    n = _step_count(T, preset.tau)
    tau, a, R, rho0 = preset.tau, preset.a, preset.R, preset.rho0
    ts = np.arange(n + 1) * tau
    bs = np.empty(n + 1)
    es = np.zeros(n + 1)
    if preset.has_exit:
        bs[0] = R if rho0 >= 1.0 else a
        for k in range(1, n + 1):
            b, _, inc = step_b_exit(bs[k - 1], k, tau, a, R, rho0, es[k - 1])
            bs[k] = b
            es[k] = es[k - 1] + inc
    else:
        bs[0] = 0.0
        for k in range(1, n + 1):
            bs[k] = step_b_no_exit(bs[k - 1], k, tau, rho0)
    return ts, bs, es


def analytic_pressure(profile, r):
    """Continuum pressure of the saturated zone at one instant.

    Closed corridor: ``p = (b - r)_+``.  Draining corridor: the Darcy
    profile ``p = (b-a) ln(r/a)/ln(b/a) - (r-a)`` on ``[a, b]``.
    """
    r = np.asarray(r, dtype=float)
    b, a = profile.b, profile.a
    if a == 0.0 or profile.exit_mass == 0.0:
        return np.clip(b - r, 0.0, None)
    if b <= a * (1.0 + 1e-12):
        return np.zeros_like(r)
    inside = (r >= a) & (r <= b)
    p = np.zeros_like(r)
    p[inside] = (b - a) * np.log(r[inside] / a) / np.log(b / a) - (r[inside] - a)
    return np.clip(p, 0.0, None)
