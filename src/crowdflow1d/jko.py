"""Minimizing-movement scheme for congested transport with gradient drive.

Each step solves

    minimize  J(rho) + W2(rho, rho_prev)^2 / (2 tau)

over densities capped at one (plus an absorbing atom on the exit when the
domain has one), with ``J(rho) = integral of D d(rho)``.  The minimization
runs in quantile coordinates, where the cap is a convex chain constraint;
see :mod:`crowdflow1d._solver`.  Pressure and velocity fields are
recovered from the optimal transport map of the step: with
``F = D + phi_bar / tau`` the pressure is ``(l - F)_+`` for the level
``l`` that makes the saturated set hold exactly the interior mass, the
capacity crossing of ``F``, with or without an exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._solver import ChainProjector, minimize_free, solve_step
from ._solver import step_objective  # noqa: F401  (patched by perfbench/tracer.py)
from .errors import FeasibilityError, SolverFailureError, tagged
from .measures import (
    CellGeometry,
    Measure1D,
    QuantileFn,
    _csv_file,
    _last_of_ties,
    bin_quantiles_to_cells,
    cell_integrals,
    density_of,
    quantile_of,
)
from .transport import kantorovich_potential  # noqa: F401  (patched by perfbench/tracer.py)

SATURATION_TOL = 1e-6
# the absorbed prefix is a whole number of samples, so the prefix search
# can stop with the door marginal still below the interior level; the
# step then absorbs further among near-tied candidates until the two
# balance, as they do for the continuum minimizer
# criterion 3's O(tau) drain order depends on both knobs (ROADMAP item 2)
DOOR_BALANCE_MARGIN = 1e-3
DOOR_TIE_TOL = 3e-7


@dataclass(frozen=True)
class PotentialD:
    """Driving potential ``D`` with its slope and a curvature window.

    ``lam`` is a lower bound on ``D''`` (may be negative), ``curv_ub`` an
    upper bound; both enter the admissible-step-size cap and the gradient
    step of the inner solver.  ``lam == curv_ub == 0`` (the defaults)
    declares ``D`` affine: the inner solver then takes one projection per
    candidate prefix and searches the absorbed prefix instead of scanning
    it, which is exact only for an affine ``D``.  A custom potential must
    give true bounds; one declared affine whose slope varies fails
    :meth:`validate_for`.
    """

    fn: callable
    grad: callable
    lam: float = 0.0
    curv_ub: float = 0.0

    @property
    def affine(self):
        """Whether ``D`` is declared affine: ``lam == curv_ub == 0``."""
        return self.lam == 0.0 and self.curv_ub == 0.0

    @classmethod
    def distance_to_exit(cls, domain):
        """``D(r) = r - a``: shortest distance to the door."""
        a = domain.a
        return cls(
            fn=lambda r: np.asarray(r, dtype=float) - a,
            grad=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            lam=0.0,
            curv_ub=0.0,
        )

    @classmethod
    def from_table(cls, radii, values):
        """Piecewise-linear potential through ``(radii, values)``, continued
        along its end segments past the first and last rows, as its slope
        is."""
        r = np.asarray(radii, dtype=float)
        v = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise FeasibilityError("potential table needs matching 1d arrays")
        if len(r) < 2:
            raise FeasibilityError("potential table needs at least two rows")
        if not np.isfinite(r).all():
            raise FeasibilityError("potential table radii must be finite")
        if not np.isfinite(v).all():
            raise FeasibilityError("potential table values must be finite")
        if np.any(np.diff(r) <= 0):
            raise FeasibilityError("potential table radii must increase")
        slopes = np.diff(v) / np.diff(r)
        h = 0.5 * (np.diff(r)[:-1] + np.diff(r)[1:])
        curv = np.diff(slopes) / h if len(slopes) > 1 else np.zeros(1)

        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < r[0], v[0] + slopes[0] * (x - r[0]),
                            np.where(x > r[-1], v[-1] + slopes[-1] * (x - r[-1]),
                                     np.interp(x, r, v)))

        return cls(
            fn=fn,
            grad=lambda x: slopes[
                np.clip(np.searchsorted(r, x, side="right") - 1, 0, len(slopes) - 1)
            ],
            lam=float(min(curv.min(), 0.0)),
            curv_ub=float(max(curv.max(), 0.0)),
        )

    def validate_for(self, domain):
        """A ``D`` declared affine must have one slope over the domain, and
        on exit domains ``D`` must attain its minimum on the door."""
        r = np.linspace(domain.a, domain.R, 256)
        if self.affine:
            g = np.asarray(self.grad(r), dtype=float)
            if np.ptp(g) > 1e-12 * np.abs(g).max():
                raise FeasibilityError("D is declared affine (lam == curv_ub == 0) but its "
                                       "slope varies over the domain")
        if domain.has_exit:
            vals = np.asarray(self.fn(r), dtype=float)
            if vals[0] > vals.min() + 1e-9 * max(1.0, np.abs(vals).max()):
                raise FeasibilityError("D must be minimal at the exit")


def step_size_cap(D):
    """Largest admissible time step, ``1/(4 |lam|)`` for concave parts."""
    if D.lam < 0.0:
        return 1.0 / (4.0 * abs(D.lam))
    return np.inf


def _check_tau(tau, cap):
    """Raise unless the time step ``tau`` is finite, positive and at most ``cap``."""
    if not (np.isfinite(tau) and tau > 0.0):
        raise FeasibilityError(f"tau={tau} must be finite and positive")
    if tau > cap:
        raise FeasibilityError(f"tau={tau} exceeds the admissible step cap {cap:.6g}")


def energy(m, D):
    """``J(m) = integral of D`` against the measure (exit atom included).

    Cell integrals use :func:`~crowdflow1d.measures.cell_integrals`.
    """
    dom = m.domain
    cell = cell_integrals(dom, m.edges, D.fn) * m.rho
    out = float(cell.sum())
    if m.exit_mass > 0.0:
        out += m.exit_mass * float(np.asarray(D.fn(dom.a)))
    return out


@dataclass
class JkoStepResult:
    """One minimizing-movement step with its recovered fields.

    ``pressure`` and ``velocity`` are sampled at ``grid`` (the cell
    midpoints of ``rho_next``); ``level_l`` is the Lagrange level of the
    saturation constraint.
    """

    rho_next: Measure1D
    w2_increment: float
    objective_value: float
    energy: float
    level_l: float
    grid: np.ndarray = field(repr=False)
    pressure: np.ndarray = field(repr=False)
    velocity: np.ndarray = field(repr=False)
    m_exit: int = 0
    q_prev: np.ndarray = field(repr=False, default=None)
    q_next: np.ndarray = field(repr=False, default=None)


class _RunGeometry(CellGeometry):
    """The cells of a run with what every step reads of them and of ``D``.

    Built once per run next to the projector.  On top of
    :class:`~crowdflow1d.measures.CellGeometry` it holds the nodes of the
    potential integration (door, midpoints, outer radius) and their
    spacing, ``D`` and ``-D'`` at the midpoints and ``D(a)``, all
    read-only.
    """

    def __init__(self, domain, n_cells, D):
        super().__init__(domain, n_cells)
        self.r_nodes = np.concatenate([[domain.a], self.mids, [domain.R]])
        self.dr = np.diff(self.r_nodes)
        self.d_mids = np.asarray(D.fn(self.mids), dtype=float)
        self.u_free = -np.asarray(D.grad(self.mids), dtype=float)
        self.d_door = float(np.asarray(D.fn(domain.a)))
        for arr in (self.r_nodes, self.dr, self.d_mids, self.u_free):
            arr.flags.writeable = False


def _grid_fields(geom, tau, q_prev, q_next, m, exit_mass):
    """Velocity, level, pressure and door marginal on the cell midpoints."""
    domain, grid = geom.domain, geom.mids
    qi, pi = q_next[m:], q_prev[m:]
    if qi.size == 0:
        return geom.u_free, geom.d_door, np.zeros_like(grid), geom.d_door
    # samples give the map exactly: t(q_next_j) = q_prev_j
    keep = _last_of_ties(qi, 1e-13 * max(1.0, domain.R))
    qk, pk = qi[keep], pi[keep]

    r_nodes = geom.r_nodes
    # beyond the sampled range the map translates with the edge sample's
    # displacement: on the nodes below qk[0] and on those above qk[-1]
    t_nodes = np.interp(r_nodes, qk, pk)
    lo = r_nodes.searchsorted(qk[0])
    hi = r_nodes.searchsorted(qk[-1], side="right")
    t_nodes[:lo] = r_nodes[:lo] + (pk[0] - qk[0])
    t_nodes[hi:] = r_nodes[hi:] + (pk[-1] - qk[-1])
    v_map = (grid - t_nodes[1:-1]) / tau  # equals the step velocity on the support
    # integrate phi_bar' = r - t(r) from the outer radius (phi_bar(R) = 0);
    # r - t(r) never leaves +-(R - a): inside the samples both lie in
    # [a, R], and past them it is an edge sample's displacement
    dphi = r_nodes - t_nodes
    phi = np.empty(r_nodes.size)
    phi[0] = 0.0
    (0.5 * (dphi[1:] + dphi[:-1]) * geom.dr).cumsum(out=phi[1:])
    phi -= phi[-1]
    phi_mid = phi[1:-1]
    big_f = geom.d_mids + phi_mid / tau
    interior = 1.0 - exit_mass
    order = big_f.argsort(kind="stable")
    fs = big_f[order]
    cum = geom.dW[order].cumsum()
    k = int(cum.searchsorted(interior - 1e-12))
    k = min(k, len(order) - 1)
    # the level sits at the capacity crossing, between the last cell
    # inside and the first outside; on exit domains the door marginal
    # D(a) + phi(a)/tau matches it only up to the sample quantization
    # of the absorbed mass, so the capacity level is the robust choice
    level = float(0.5 * (fs[k] + fs[k + 1])) if k + 1 < len(order) else float(fs[k])
    if domain.has_exit:
        door_level = geom.d_door + phi[0] / tau
    else:
        door_level = np.inf
    pressure = np.maximum(level - big_f, 0.0)
    return v_map, level, pressure, door_level


def jko_step(prev, D, tau, n_samples=4096, n_cells=2048):
    """Advance one step from ``prev``.

    Parameters
    ----------
    prev : Measure1D
        Probability measure, feasible for its domain.
    D : PotentialD
    tau : float
        Time step; must stay below :func:`step_size_cap`.
    n_samples, n_cells : int
        Quantile resolution of the inner solve and cell count of the
        returned density.

    Returns
    -------
    JkoStepResult
    """
    projector, geom, qf = _start(prev, D, tau, n_samples, n_cells)
    return _assemble(projector, geom, qf.q, qf.exit_plateau, D, tau)[0]


def _start(rho, D, tau, n_samples, n_cells):
    """Check the step size and potential; sample ``rho`` for the solver.

    Returns the projector and the cell geometry that every step of the
    run shares, and the samples of ``rho``.
    """
    _check_tau(tau, step_size_cap(D))
    D.validate_for(rho.domain)
    qf = quantile_of(rho, n_samples)
    return ChainProjector(rho.domain, n_samples), _RunGeometry(rho.domain, n_cells, D), qf


def _grid_slack(T):
    """How far a time up to ``T`` may sit off the step grid."""
    return 1e-9 * max(1.0, T)


def _step_count(T, tau):
    """Number of steps of size ``tau`` up to time ``T``.

    Raises :class:`FeasibilityError` unless ``tau`` is finite and
    positive, ``T >= 0``, ``T/tau`` is finite and ``T`` lies within
    :func:`_grid_slack` of a whole number of steps.  ``T = 0`` is zero
    steps.
    """
    _check_tau(tau, np.inf)
    if T < 0.0:
        raise FeasibilityError(f"T={T} must be >= 0")
    steps = float(T) / float(tau)
    if not np.isfinite(steps):
        raise FeasibilityError(f"T={T} is not a finite number of steps of tau={tau}")
    n_steps = round(steps)
    if abs(n_steps * tau - T) > _grid_slack(T):
        raise FeasibilityError(f"T={T} is not a multiple of tau={tau}")
    return n_steps


def _assemble(projector, geom, q_prev, m_prev, D, tau, lead=0):
    """One step from ``q_prev`` with ``m_prev`` samples absorbed, door loop
    and fields included: ``(JkoStepResult, lead)``, with ``lead`` the
    prefix search's hint for the next step (:func:`solve_step`)."""
    domain = projector.domain
    ds = projector.ds
    q_next, m_next, obj, after, lead = solve_step(projector, q_prev, m_prev, D, tau, lead)
    fields = _grid_fields(geom, tau, q_prev, q_next, m_next, m_next * ds)
    while domain.has_exit and m_next < projector.n:
        level, door_level = fields[1], fields[3]
        if door_level >= level - DOOR_BALANCE_MARGIN * max(1.0, abs(level)):
            break
        # the first try is the step's candidate m + 1, already minimized
        if after is None:
            after = minimize_free(projector, q_prev, m_next + 1, D, tau, warm=q_next)
        q_try, val = after
        after = None
        if val > obj + DOOR_TIE_TOL * max(1.0, abs(obj)):
            break
        q_next, m_next, obj = q_try, m_next + 1, val
        fields = _grid_fields(geom, tau, q_prev, q_next, m_next, m_next * ds)
    rho_next = density_of(QuantileFn(domain, q_next, m_next), geom.n_cells, geom)
    diff = q_next - q_prev
    w2_inc = float(np.sqrt((diff * diff).sum() * ds))
    velocity, level, pressure, _ = fields
    velocity = np.where(rho_next.rho > 0.0, velocity, geom.u_free)
    # the next step keeps this array as its q_prev, so neither may write it
    q_next.flags.writeable = False
    disc_energy = float((np.asarray(D.fn(q_next), dtype=float) * ds).sum())
    return JkoStepResult(
        rho_next=rho_next,
        w2_increment=w2_inc,
        objective_value=obj,
        energy=disc_energy,
        level_l=level,
        grid=geom.mids,
        pressure=pressure,
        velocity=velocity,
        m_exit=m_next,
        q_prev=q_prev,
        q_next=q_next,
    ), lead


@dataclass
class FlowTrajectory:
    """A run of the scheme: iterates, step records and invariants."""

    domain: object
    tau: float
    times: np.ndarray = field(repr=False)
    iterates: list = field(repr=False, default=None)
    steps: list = field(repr=False, default=None)
    energy_series: np.ndarray = field(repr=False, default=None)
    exit_series: np.ndarray = field(repr=False, default=None)

    @property
    def sum_sq_increments(self):
        """``sum_k w2_k^2 / tau`` (discrete squared-speed total)."""
        return float(sum(s.w2_increment**2 for s in self.steps) / self.tau)

    def to_csv(self, path_or_buf):
        """Rows ``k,t,w2_increment,energy,exit_mass,b_estimate``."""
        import csv

        with _csv_file(path_or_buf, "w") as f:
            wr = csv.writer(f)
            wr.writerow(["k", "t", "w2_increment", "energy", "exit_mass", "b_estimate"])
            incs = [0.0] + [float(s.w2_increment) for s in self.steps]
            wr.writerows(
                [k, repr(t), repr(inc), repr(e), repr(float(m.exit_mass)),
                 repr(float(m.interface_estimate()))]
                for k, (t, inc, e, m) in enumerate(zip(self.times.tolist(), incs,
                                                       self.energy_series.tolist(), self.iterates))
            )


def run_flow(rho0, D, tau, T, n_samples=4096, n_cells=2048):
    """Iterate the scheme from ``rho0`` up to time ``T``.

    ``T`` must be an integer multiple of ``tau``.  Energy monotonicity holds
    exactly for the discrete quantities and is asserted on the fly: a rise
    raises :class:`SolverFailureError` carrying the step index, the
    offending iterate and its absorbed prefix.  A package error raised
    inside step ``k`` leaves as itself, its message prefixed ``step k: ``.
    """
    projector, geom, qf = _start(rho0, D, tau, n_samples, n_cells)
    n_steps = _step_count(T, tau)
    q, m, lead = qf.q, qf.exit_plateau, 0
    ds = projector.ds
    energies = [float((np.asarray(D.fn(q), dtype=float) * ds).sum())]
    iterates = [rho0]
    steps = []
    for k in range(n_steps):
        res, lead = tagged(f"step {k}: ", _assemble, projector, geom, q, m, D, tau, lead)
        q, m = res.q_next, res.m_exit
        steps.append(res)
        iterates.append(res.rho_next)
        energies.append(res.energy)
        if energies[-1] > energies[-2] + 1e-9:
            rise = energies[-1] - energies[-2]
            raise SolverFailureError(
                f"energy increased by {rise:.3e} at step {k}", last_iterate=q, gap=rise, m=m
            )
    times = np.arange(n_steps + 1) * tau
    return FlowTrajectory(
        domain=rho0.domain,
        tau=tau,
        times=times,
        iterates=iterates,
        steps=steps,
        energy_series=np.array(energies),
        exit_series=np.array([m_.exit_mass for m_ in iterates]),
    )


@dataclass
class DecompositionDiagnostics:
    """Residuals of the velocity/pressure structure of one step."""

    residual_decomposition: float
    residual_complementarity: float
    dual_violation: float


def pressure_gradient(step, D):
    """Gradient of the step pressure on its support.

    Where ``p > 0`` the pressure equals ``l - F``, so its gradient is
    ``-(D' + v)`` with ``v`` the map velocity; off the support it is
    zero.  The support is taken as the level set joined with the
    saturated cells (dilated by one cell, since the free boundary lands
    inside a cell); this beats finite differences of the rendered
    pressure at the boundary.
    """
    grad_d = np.asarray(D.grad(step.grid), dtype=float)
    sat = step.rho_next.rho >= 1.0 - SATURATION_TOL
    near = sat.copy()
    near[:-1] |= sat[1:]
    near[1:] |= sat[:-1]
    mask = (step.pressure > 0.0) | near
    return np.where(mask, -(grad_d + step.velocity), 0.0)


def pressure_velocity_checks(step, D, rng=None):
    """Check ``U = v + grad p`` on the support, complementarity and the
    sign condition of the velocity against admissible test functions.

    The decomposition residual vanishes identically on ``{p > 0}`` and
    measures free-fall exactness elsewhere, so it catches misplaced
    pressure support (cells reported free whose mass is actually
    blocked, or vice versa).  Complementarity and the dual condition
    probe the sign structure of first-order optimality independently.

    Returns
    -------
    DecompositionDiagnostics
    """
    dec, comp = _decomposition_residuals(step, D)
    m = step.rho_next
    dual = _dual_violation(m.domain, step.grid, m.cell_weights(), m.rho, step.velocity, rng)
    return DecompositionDiagnostics(dec, comp, dual)


def _decomposition_residuals(step, D):
    """The decomposition and complementarity residuals of
    :func:`pressure_velocity_checks`, without its dual condition."""
    m = step.rho_next
    dW = m.cell_weights()
    rho = m.rho
    u_free = -np.asarray(D.grad(step.grid), dtype=float)
    p_prime = pressure_gradient(step, D)
    res = u_free - step.velocity - p_prime
    supp = rho > 0.0
    dec = float(np.sqrt(((res[supp] ** 2) * rho[supp] * dW[supp]).sum()))
    comp = float(abs((p_prime * step.velocity * rho * dW).sum()))
    return dec, comp


def _dual_violation(dom, grid, dW, rho, velocity, rng):
    """Max of ``integral v q' w dr`` over admissible bumps ``q``.

    Admissible: smooth, nonnegative, supported where the density is
    saturated, vanishing at the exit.
    """
    rng = rng or np.random.default_rng(0)
    sat = rho >= 1.0 - SATURATION_TOL
    if dom.has_exit:
        sat &= grid > dom.a + 1e-9
    if not sat.any():
        return 0.0
    idx = np.nonzero(sat)[0]
    splits = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate([[0], splits + 1])
    ends = np.concatenate([splits, [len(idx) - 1]])
    runs = [(idx[s], idx[e]) for s, e in zip(starts, ends) if idx[e] > idx[s] + 2]
    if not runs:
        return 0.0
    worst = 0.0
    h = grid[1] - grid[0]
    for _ in range(32):
        s, e = runs[rng.integers(len(runs))]
        c = grid[s] + (grid[e] - grid[s]) * rng.uniform(0.0, 0.6)
        d = c + (grid[e] - c) * rng.uniform(0.3, 1.0)
        if d - c < 4 * h:
            continue
        bump = np.clip((grid - c) * (d - grid), 0.0, None) ** 2
        scale = bump.max()
        if scale <= 0:
            continue
        bump = bump / scale
        qprime = np.gradient(bump, grid)
        val = float((velocity * qprime * dW).sum())
        worst = max(worst, val)
    return worst


@dataclass
class InterpolantDensity:
    """Displacement interpolant binned to cells; the cap is reported, not
    enforced."""

    edges: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    exit_mass: float = 0.0
    in_K: bool = True
    max_density: float = 0.0


def geodesic_interpolant(m0, m1, t, n_samples=4096, n_cells=2048):
    """Point on the displacement geodesic between two measures.

    The congestion cap is not preserved along geodesics; the result flags
    whether it holds (``in_K``) instead of raising.
    """
    if not 0.0 <= t <= 1.0:
        raise FeasibilityError("interpolation parameter must be in [0, 1]")
    if m0.domain != m1.domain:
        raise FeasibilityError("measures live on different domains")
    dom = m0.domain
    q0 = quantile_of(m0, n_samples)
    q1 = quantile_of(m1, n_samples)
    q = (1.0 - t) * q0.q + t * q1.q
    # a sample is on the door where it is at every end that t weights
    plateau = min(qf.exit_plateau for qf, w in ((q0, 1.0 - t), (q1, t)) if w > 0.0)
    cells = CellGeometry(dom, n_cells)
    edges, cell_mass, exit_mass = bin_quantiles_to_cells(q, plateau, cells)
    rho = cell_mass / cells.dW
    max_density = float(rho.max())
    return InterpolantDensity(
        edges=edges,
        rho=rho,
        exit_mass=exit_mass,
        in_K=bool(max_density <= 1.0 + 1e-6),
        max_density=max_density,
    )


def momentum_fields(traj, t, n_cells=512):
    """Momentum densities at time ``t`` along the piecewise geodesics.

    Returns ``(grid, e_tilde, e_hat)``: ``e_tilde`` carries every sample,
    ``e_hat`` drops the samples whose step destination is the exit.
    Raises :class:`FeasibilityError` for a trajectory without steps and
    for a ``t`` outside ``[0, steps*tau]`` beyond :func:`_grid_slack`.
    """
    tau = traj.tau
    n_steps = len(traj.steps)
    horizon = n_steps * tau
    slack = _grid_slack(horizon)
    if not (n_steps and -slack <= t <= horizon + slack):
        raise FeasibilityError(f"t={t} is not a time of the {n_steps} steps in [0, {horizon}]")
    k = int(np.clip(np.floor(t / tau), 0, n_steps - 1))
    step = traj.steps[k]
    sigma = np.clip((t - k * tau) / tau, 0.0, 1.0)
    y, x = step.q_prev, step.q_next
    z = (1.0 - sigma) * y + sigma * x
    v = (x - y) / tau
    dom = traj.domain
    cells = CellGeometry(dom, n_cells)
    ds = 1.0 / len(y)
    e_tilde = np.histogram(z, bins=cells.edges, weights=v * ds)[0] / cells.dW
    m = step.m_exit
    e_hat = np.histogram(z[m:], bins=cells.edges, weights=(v * ds)[m:])[0] / cells.dW
    return cells.mids, e_tilde, e_hat


def momentum_discrepancy(traj):
    """Time integral of the mass-weighted gap between the two momenta.

    Equals ``sum over exiting samples of |start - door| * ds`` because a
    sample headed for the door carries the gap for exactly one step.
    """
    dom = traj.domain
    total = 0.0
    for step in traj.steps:
        ds = 1.0 / len(step.q_next)
        total += float(np.abs(step.q_prev[: step.m_exit] - dom.a).sum() * ds)
    return total
