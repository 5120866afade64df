"""Convergence studies and randomized invariant campaigns.

Two study drivers live here.  ``convergence_study`` sweeps the time step
on a corridor scenario and fits the order of the interface and
Wasserstein errors at the final time against an ODE reference;
``momentum_rate_study`` does the same for the gap between the two
momentum interpolants of a draining corridor.  ``property_campaign``
runs batteries of randomized checks of the structural facts the scheme
is supposed to satisfy (transport oracle agreement, duality-type
integral inequalities, exit-mass stability, energy decay, the
pressure/zone structure of a step, absorbing-exit monotonicity).
"""

import csv
import dataclasses
import io

import numpy as np

from . import corridor
from .corridor import RadialProfile, chain_interface, fig4_preset, ode_b_exit
from .errors import CrowdflowError, FeasibilityError, tagged
from .jko import DOOR_BALANCE_MARGIN, PotentialD, _step_count, momentum_discrepancy, run_flow
from .measures import Domain1D, Measure1D, _csv_file, cell_integrals
from .transport import (
    exit_mass_stability_constant,
    w2_1d,
    w2_lp_oracle,
)

# below this size every error in a sweep is treated as pure rounding and
# no order is fitted
MACHINE_ERROR_FLOOR = 1e-11

# resolution schedule for tau sweeps: n_samples grows like 1/tau so the
# sample quantization (mass quantum 1/n) stays below the O(tau) effect
# being measured, capped to keep single runs affordable
N_SAMPLES_SCALE = 2048.0
N_SAMPLES_CAP = 16384


def fit_order(taus, errors):
    """Least-squares slope of ``log error`` against ``log tau``.

    Returns ``(slope, r_squared)``; ``(nan, nan)`` when any error sits
    at the rounding floor, where a rate is meaningless.
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors < MACHINE_ERROR_FLOOR):
        return float("nan"), float("nan")
    x, y = np.log(taus), np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0.0 else float("nan")
    return float(slope), float(r2)


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """Errors at the final time for each tau, with fitted rates.

    ``err_b`` is the interface-position error ``|b(T) - b_tau(T)|``,
    ``err_w2`` the Wasserstein distance between the final iterate and
    the reference profile.  ``fitted_order``/``r_squared`` belong to the
    interface fit; the Wasserstein fit gets its own pair.  Orders are
    ``nan`` when the sweep sits at machine precision (an exact scheme).
    """

    taus: tuple
    err_b: tuple
    err_w2: tuple
    fitted_order: float
    r_squared: float
    fitted_order_w2: float
    r_squared_w2: float

    def summary(self):
        if np.isnan(self.fitted_order):
            return "order=n/a r2=n/a"
        return f"order={self.fitted_order:.4f} r2={self.r_squared:.4f}"

    def to_csv(self, path_or_buf):
        """Rows ``tau,err_b,err_w2`` (repr floats, bit-exact round trip)."""
        with _csv_file(path_or_buf, "w") as f:
            wr = csv.writer(f)
            wr.writerow(["tau", "err_b", "err_w2"])
            for tau, eb, ew in zip(self.taus, self.err_b, self.err_w2):
                wr.writerow([repr(float(tau)), repr(float(eb)), repr(float(ew))])

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _validate_tau_sweep(taus, T):
    taus = [float(t) for t in taus]
    if len(taus) < 4:
        raise FeasibilityError("a sweep needs at least 4 tau values")
    if not all(tau > 0.0 for tau in taus):
        raise FeasibilityError("taus must be positive")
    for big, small in zip(taus, taus[1:]):
        if abs(small - 0.5 * big) > 1e-9 * big:
            raise FeasibilityError("taus must halve from entry to entry")
    for tau in taus:
        if _step_count(T, tau) < 1:
            raise FeasibilityError(f"T={T} is less than one step of tau={tau}")
    return taus


def _samples_for(tau):
    return int(min(N_SAMPLES_CAP, round(N_SAMPLES_SCALE / tau)))


def _no_exit_errors(scenario, tau, T):
    # the stepped interface recurrence is exact for the closed corridor,
    # so both errors land at rounding level by construction
    b = float(chain_interface(dataclasses.replace(scenario, tau=tau), T)[1][-1])
    prof_ref = corridor.profile_no_exit(T, scenario.rho0, scenario.R)
    prof_tau = RadialProfile(t=T, a=scenario.a, R=scenario.R, rho0=scenario.rho0, b=b)
    err_b = abs(prof_ref.b - b)
    s = (np.arange(4096) + 0.5) / 4096.0
    dq = corridor._profile_quantiles(prof_ref, s) - corridor._profile_quantiles(
        prof_tau, s
    )
    err_w2 = float(np.sqrt((dq**2).mean()))
    return err_b, err_w2


def _exit_reference(scenario, T):
    b_ref = ode_b_exit(T, scenario.a, scenario.R, scenario.rho0)
    interior = RadialProfile(
        t=T, a=scenario.a, R=scenario.R, rho0=scenario.rho0, b=b_ref
    ).interior_mass()
    return RadialProfile(
        t=T,
        a=scenario.a,
        R=scenario.R,
        rho0=scenario.rho0,
        b=b_ref,
        exit_mass=max(1.0 - interior, 0.0),
    )


def _exit_errors(scenario, tau, T, prof_ref, n_cells):
    dom = scenario.domain()
    D = PotentialD.distance_to_exit(dom)
    n = _samples_for(tau)
    traj = run_flow(scenario.initial(n_cells), D, tau, T, n_samples=n, n_cells=n_cells)
    q = traj.steps[-1].q_next
    ds = 1.0 / n
    # the outermost sample is the midpoint of its mass slice; the
    # interface sits half a mass quantum further out along the
    # (saturated) tail, where capacity and mass coincide
    b_tau = float(
        dom.inv_cumweight(min(dom.cumweight(q[-1]) + 0.5 * ds, dom.total_weight))
    )
    err_b = abs(prof_ref.b - b_tau)
    s = (np.arange(n) + 0.5) * ds
    q_ref = corridor._profile_quantiles(prof_ref, s)
    err_w2 = float(np.sqrt(((q - q_ref) ** 2).sum() * ds))
    return err_b, err_w2


def convergence_study(scenario, taus, T, n_cells=2048):
    """Final-time error sweep over a halving sequence of time steps.

    For exit scenarios each tau runs the generic sampled scheme and the
    errors are measured against the refined ODE interface reference; a
    closed corridor uses the exact stepped recurrence instead (and
    reports no rate, since the errors are pure rounding).  Failures of
    an individual run are re-raised tagged with the offending tau.
    """
    taus = _validate_tau_sweep(taus, T)
    prof_ref = _exit_reference(scenario, T) if scenario.has_exit else None

    def one(tau):
        if scenario.has_exit:
            return _exit_errors(scenario, tau, T, prof_ref, n_cells)
        return _no_exit_errors(scenario, tau, T)

    pairs = [tagged(f"tau={tau}: ", one, tau) for tau in taus]
    err_b = tuple(p[0] for p in pairs)
    err_w2 = tuple(p[1] for p in pairs)
    order_b, r2_b = fit_order(taus, err_b)
    order_w, r2_w = fit_order(taus, err_w2)
    return SweepReport(
        taus=tuple(taus),
        err_b=err_b,
        err_w2=err_w2,
        fitted_order=order_b,
        r_squared=r2_b,
        fitted_order_w2=order_w,
        r_squared_w2=r2_w,
    )


@dataclasses.dataclass(frozen=True)
class MomentumRateReport:
    """Decay rate of the total momentum-interpolant gap over a sweep."""

    taus: tuple
    discrepancies: tuple
    fitted_order: float
    r_squared: float

    def summary(self):
        return f"order={self.fitted_order:.4f} r2={self.r_squared:.4f}"


def momentum_rate_study(scenario=None, taus=(0.1, 0.05, 0.025, 0.0125, 0.00625),
                        T=3.0, n_samples=4096, n_cells=2048):
    """Fit the decay of the momentum-interpolant gap in the step size.

    The gap integrates the difference between the piecewise-constant and
    the transport (geodesic) momentum over space and time; mass entering
    the exit is what separates the two, so draining scenarios are the
    interesting ones.  Defaults to the door corridor.
    """
    scenario = fig4_preset() if scenario is None else scenario
    taus = _validate_tau_sweep(taus, T)
    dom = scenario.domain()
    D = PotentialD.distance_to_exit(dom)

    def one(tau):
        traj = run_flow(
            scenario.initial(n_cells), D, tau, T,
            n_samples=n_samples, n_cells=n_cells,
        )
        return momentum_discrepancy(traj)

    gaps = tuple(tagged(f"tau={tau}: ", one, tau) for tau in taus)
    order, r2 = fit_order(taus, gaps)
    return MomentumRateReport(
        taus=tuple(taus), discrepancies=gaps, fitted_order=order, r_squared=r2
    )


# -- randomized invariant campaign ---------------------------------------


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    n_cases: int
    n_failed: int
    failures: tuple  # up to the first few messages, with reproduction keys

    @property
    def passed(self):
        return self.n_failed == 0


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    seed: int
    n_cases: int
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name}: {c.n_cases - c.n_failed}/{c.n_cases} {status}")
            lines.extend(f"  {msg}" for msg in c.failures)
        lines.append(f"campaign: {'pass' if self.passed else 'FAIL'} (seed={self.seed})")
        return "\n".join(lines)


def _rand_domain(rng, has_exit, cap=None):
    """Random flat or radial segment of capacity ``cap``, drawn above 1.5 if not given."""
    if rng.uniform() < 0.5:
        a = float(rng.uniform(0.0, 2.0)) if has_exit else 0.0
        length = float(rng.uniform(1.5, 4.0)) if cap is None else cap
        return Domain1D(a, a + length, "flat", None, has_exit)
    al = float(rng.uniform(0.05, 0.5))
    a = float(rng.uniform(0.1, 1.5)) if has_exit else 0.0
    cap = float(rng.uniform(1.5, 3.0)) if cap is None else cap
    R = float(np.sqrt(a * a + cap / al))
    return Domain1D(a, R, "radial", al, has_exit)


def _rand_sine(rng, dom):
    """Smooth test function vanishing at both ends, with its slope; both
    keep the shape of their argument."""
    L = dom.R - dom.a
    ks = np.arange(1, 5)
    coef = rng.normal(size=ks.size) / ks

    def f(r):
        u = (np.asarray(r, dtype=float) - dom.a) / L
        return (np.sin(np.pi * np.outer(u, ks)) @ coef).reshape(u.shape)

    def fprime(r):
        u = (np.asarray(r, dtype=float) - dom.a) / L
        return (np.cos(np.pi * np.outer(u, ks)) @ (coef * ks * np.pi / L)).reshape(u.shape)

    return f, fprime


def _check_ot_oracle(rng):
    nx = int(rng.integers(1, 13))
    ny = int(rng.integers(1, 13))
    x = np.sort(rng.uniform(0.0, 3.0, size=nx))
    y = np.sort(rng.uniform(0.0, 3.0, size=ny))
    p = rng.uniform(0.1, 1.0, size=nx)
    p /= p.sum()
    q = rng.uniform(0.1, 1.0, size=ny)
    q /= q.sum()
    fast = w2_1d(list(zip(x, p)), list(zip(y, q))).w2
    exact = w2_lp_oracle(list(zip(x, p)), list(zip(y, q)))
    gap = abs(fast - exact)
    if gap > 1e-9:
        return f"monotone vs LP distance gap {gap:.3e}"
    return None


def _check_dual_integral_bound(rng):
    # dual bound: integral of f against (mu - nu) is at most
    # sqrt(C) * |f'|_L2(w) * W2 for densities <= C = 1, up to quadrature
    if rng.uniform() < 0.75:
        dom = _rand_domain(rng, has_exit=False)
        n_cells = 64
        mu = Measure1D.random_feasible(dom, n_cells, rng)
        nu = Measure1D.random_feasible(dom, n_cells, rng)
        dist = w2_1d(mu, nu, n_samples=4096).w2
    else:
        # draining pairs: the summed step increments bound the length of
        # the admissible path between the endpoints, and the same
        # inequality holds with that length when f vanishes at the exit
        dom = _rand_domain(rng, has_exit=True)
        mu = Measure1D.random_feasible(dom, 64, rng, exit_mass=float(rng.uniform(0, 0.2)))
        D = PotentialD.distance_to_exit(dom)
        tau = float(rng.uniform(0.05, 0.15))
        traj = run_flow(mu, D, tau, 3 * tau, n_samples=512, n_cells=64)
        nu = traj.iterates[-1]
        dist = float(sum(s.w2_increment for s in traj.steps))
        n_cells = 64
    f, fp = _rand_sine(rng, dom)
    lhs = float(
        (cell_integrals(dom, mu.edges, f) * mu.rho).sum()
        - (cell_integrals(dom, nu.edges, f) * nu.rho).sum()
    )
    # exit atoms sit where f = 0, nothing to add for them
    fp_norm = float(np.sqrt(cell_integrals(dom, mu.edges, lambda r: fp(r) ** 2).sum()))
    rhs = fp_norm * dist
    if lhs > rhs * (1.0 + 1e-2) + 1e-9:
        return f"integral bound violated: {lhs:.6e} > {rhs:.6e}"
    return None


def _check_excess_mass(rng):
    dom = _rand_domain(rng, has_exit=True)
    mu = Measure1D.random_feasible(dom, 48, rng, exit_mass=float(rng.uniform(0.0, 0.5)))
    nu = Measure1D.random_feasible(dom, 48, rng, exit_mass=float(rng.uniform(0.0, 0.5)))
    c = exit_mass_stability_constant(dom)
    dist = w2_1d(mu, nu, n_samples=4096).w2
    lhs = abs(mu.exit_mass - nu.exit_mass)
    rhs = c * dist ** (2.0 / 3.0)
    if lhs > rhs * (1.0 + 1e-3) + 1e-9:
        return f"exit-mass gap {lhs:.6e} above stability bound {rhs:.6e}"
    return None


def _rand_flow(rng, has_exit, n_steps=3):
    dom = _rand_domain(rng, has_exit)
    exit_mass = float(rng.uniform(0.02, 0.3)) if has_exit else 0.0
    rho0 = Measure1D.random_feasible(dom, 64, rng, exit_mass=exit_mass)
    D = PotentialD.distance_to_exit(dom)
    tau = float(rng.uniform(0.04, 0.15))
    return run_flow(rho0, D, tau, n_steps * tau, n_samples=512, n_cells=64)


def _check_energy_monotone(rng):
    traj = _rand_flow(rng, has_exit=bool(rng.integers(0, 2)))
    diffs = np.diff(traj.energy_series)
    worst = float(diffs.max()) if diffs.size else 0.0
    if worst > 1e-10:
        return f"energy increased by {worst:.3e} along a step"
    return None


def _check_discrete_h1(rng):
    traj = _rand_flow(rng, has_exit=bool(rng.integers(0, 2)))
    drop = 2.0 * (traj.energy_series[0] - traj.energy_series[-1])
    total = traj.sum_sq_increments
    if total > drop + 1e-8:
        return f"squared-speed total {total:.6e} above energy drop bound {drop:.6e}"
    return None


def _rand_corridor(rng, has_exit):
    """Random segment with a unit-mass uniform start of random density."""
    rho_val = float(rng.uniform(0.35, 0.95))
    dom = _rand_domain(rng, has_exit, cap=1.0 / rho_val)
    return dom, Measure1D.uniform(dom, rho_val, 64)


def _check_three_zone(rng):
    # after a few steps from a uniform start the state is a saturated
    # block against the inner end, then a strictly unsaturated stretch,
    # then vacuum; pressure lives on the block only
    has_exit = bool(rng.integers(0, 2))
    dom, rho0 = _rand_corridor(rng, has_exit)
    D = PotentialD.distance_to_exit(dom)
    tau = float(rng.uniform(0.04, 0.12))
    n_steps = int(rng.integers(2, 7))
    traj = run_flow(rho0, D, tau, n_steps * tau, n_samples=512, n_cells=96)
    step = traj.steps[-1]
    p = step.pressure
    rho = step.rho_next.rho
    if p.min() < -1e-12:
        return f"negative pressure {p.min():.3e}"
    if rho.max() > 1.0 + 1e-9:
        return f"density above the cap: {rho.max():.12f}"
    nz = np.nonzero(rho > 1e-12)[0]
    if nz.size and (nz[0] > 1 or np.any(np.diff(nz) != 1)):
        # the cell at the door may render empty once everything near it
        # was absorbed; holes further out break the block/fan/vacuum shape
        return "density support is not one block at the inner end"
    sat = np.nonzero(rho >= 1.0 - 1e-3)[0]
    if sat.size and np.any(np.diff(sat) != 1):
        return "saturated cells do not form one block"
    scale = max(1.0, abs(step.level_l))
    p_eff = p.copy()
    if dom.has_exit and p_eff.size and p_eff[0] <= DOOR_BALANCE_MARGIN * scale:
        # absorbing a whole number of samples leaves the door marginal a
        # hair below the level, which reads as sub-margin door pressure
        p_eff[0] = 0.0
    pos = np.nonzero(p_eff > 1e-8 * scale)[0]
    if pos.size:
        if sat.size == 0:
            return f"pressure {p_eff.max():.3e} without a saturated zone"
        # cells carrying real pressure sit on the block; the boundary
        # cells may straddle the interface, and the decay tail past it
        # stays below a couple percent of the peak
        sig = np.nonzero(p_eff > 0.02 * p_eff.max())[0]
        if sig[0] > 1 or np.any(np.diff(sig) != 1) or sig[-1] > sat[-1] + 2:
            return "pressure escapes the saturated block"
    return None


def _check_exit_monotone(rng):
    traj = _rand_flow(rng, has_exit=True, n_steps=4)
    # the starting atom is user data and need not sit on the sample
    # grid; from the first iterate on, exit masses are whole numbers of
    # samples and must never drop
    diffs = np.diff(traj.exit_series[1:])
    if diffs.size and float(diffs.min()) < -1e-12:
        return f"exit mass decreased by {-float(diffs.min()):.3e}"
    quantum = 1.0 / 512.0
    if traj.exit_series[1] < traj.exit_series[0] - quantum:
        return "exit mass lost more than the sampling quantum at the start"
    return None


def _check_no_return(rng):
    traj = _rand_flow(rng, has_exit=True, n_steps=4)
    for k in range(len(traj.iterates) - 1):
        src, dst = traj.iterates[k], traj.iterates[k + 1]
        if src.exit_mass <= 0.0 or dst.exit_mass < src.exit_mass:
            continue
        plan = w2_1d(src, dst, n_samples=1024)
        if not plan.stay_on_exit:
            return f"mass left the exit between steps {k} and {k + 1}"
    return None


CHECKS = (
    ("ot_oracle_equivalence", _check_ot_oracle),
    ("dual_integral_bound", _check_dual_integral_bound),
    ("excess_mass_stability", _check_excess_mass),
    ("energy_monotonicity", _check_energy_monotone),
    ("discrete_h1_bound", _check_discrete_h1),
    ("three_zone_structure", _check_three_zone),
    ("exit_mass_monotonicity", _check_exit_monotone),
    ("no_return_from_exit", _check_no_return),
)

MAX_REPORTED_FAILURES = 5


def property_campaign(seed=0, n_cases=200):
    """Run every randomized check ``n_cases`` times; report failures.

    Each case draws its generator from the spawn key
    ``[seed, check_index, case_index]``, so a single failing case can be
    replayed in isolation and identical seeds give identical reports.
    """
    results = []
    for ci, (name, fn) in enumerate(CHECKS):
        failures = []
        n_failed = 0
        for k in range(n_cases):
            rng = np.random.default_rng([seed, ci, k])
            try:
                msg = fn(rng)
            except CrowdflowError as e:
                msg = f"raised {type(e).__name__}: {e}"
            if msg is not None:
                n_failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append(f"case {k} (spawn key [{seed}, {ci}, {k}]): {msg}")
        results.append(CheckResult(name, n_cases, n_failed, tuple(failures)))
    return CampaignReport(seed=seed, n_cases=n_cases, checks=tuple(results))
