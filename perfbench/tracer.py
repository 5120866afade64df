"""Span tracing and flow logging, installed from outside the package.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
wrappers into every namespace that binds a traced name (a function
imported into three modules is patched in all three) and restores the
originals on :meth:`Tracer.uninstall`.  Spans are kept in memory as
``(name, start, end, parent)`` tuples; the high-frequency kernels
(``inv_cumweight``, ``step_objective``, ``_pool``) get count-only
wrappers so the tracing overhead stays small.  A layer's self time is
its spans' duration minus the time their direct child spans cover.

:class:`FlowLog` is the only hook of an untraced run: one wrapper per
``run_flow`` call (a handful per iteration) that keeps the step count
and the trajectory fingerprint, including a digest of every step's
recovered fields (level, pressure, velocity).
"""

import hashlib
import statistics
import time
from collections import defaultdict

from crowdflow1d import _solver, cli, corridor, harness, jko, measures, transport
from crowdflow1d._solver import ChainProjector
from crowdflow1d.cli import ScenarioConfig
from crowdflow1d.harness import SweepReport
from crowdflow1d.jko import FlowTrajectory
from crowdflow1d.measures import Domain1D, Measure1D

# span name -> every (owner, attribute) that binds the traced callable
SPANS = {
    "solver.root_find": [(_solver, "brentq")],
    "solver.minimize_free": [(_solver, "minimize_free"), (jko, "minimize_free")],
    "solver.solve_step": [(_solver, "solve_step"), (jko, "solve_step")],
    "solver.project": [(ChainProjector, "project")],
    "measures.density_of": [(measures, "density_of"), (jko, "density_of")],
    "measures.quantile_of": [(measures, "quantile_of"), (jko, "quantile_of"),
                             (transport, "quantile_of")],
    "measures.random_feasible": [(Measure1D, "random_feasible")],
    "jko.run_flow": [(jko, "run_flow"), (harness, "run_flow"), (cli, "run_flow")],
    "jko.pressure_velocity_checks": [(jko, "pressure_velocity_checks"),
                                     (cli, "pressure_velocity_checks")],
    "transport.kantorovich_potential": [(transport, "kantorovich_potential"),
                                        (jko, "kantorovich_potential")],
    "transport.w2_1d": [(transport, "w2_1d"), (harness, "w2_1d")],
    "transport.w2_lp_oracle": [(transport, "w2_lp_oracle"), (harness, "w2_lp_oracle")],
    "corridor.reference": [(corridor, "ode_b_exit"), (harness, "ode_b_exit"),
                           (corridor, "profile_no_exit"), (corridor, "render")],
    "harness.convergence_study": [(harness, "convergence_study"),
                                  (cli, "convergence_study")],
    "cli.output": [(FlowTrajectory, "to_csv"), (Measure1D, "to_csv"),
                   (SweepReport, "to_csv"), (cli, "density_svg")],
    "cli.config": [(cli, "load_config"), (ScenarioConfig, "validate")],
}
COUNTS = {
    "solver.step_objective": [(_solver, "step_objective"), (jko, "step_objective")],
    "solver.pool": [(ChainProjector, "_pool")],
    "measures.inv_cumweight": [(Domain1D, "inv_cumweight")],
}
CHECK_NAMES = tuple(name for name, _ in harness.CHECKS)


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _rewrap(orig, make):
    if isinstance(orig, classmethod):
        return classmethod(make(orig.__func__))
    return make(orig)


class _Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def swap(self, owner, attr, make):
        orig = _raw(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, _rewrap(orig, make))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class FlowLog:
    """Per-flow step counts and fingerprints of one iteration."""

    def __init__(self):
        self.flows = []
        self._patches = _Patches()

    def install(self):
        for owner in (cli, harness):
            self._patches.swap(owner, "run_flow", self._logged)

    def uninstall(self):
        self._patches.restore()

    def _logged(self, fn):
        def run_flow(*args, **kwargs):
            traj = fn(*args, **kwargs)
            fields = hashlib.sha256()
            for step in traj.steps:
                fields.update(repr(float(step.level_l)).encode())
                fields.update(step.pressure.tobytes())
                fields.update(step.velocity.tobytes())
            self.flows.append((
                len(traj.steps),
                [float(x) for x in traj.exit_series],
                float(traj.energy_series[-1]),
                fields.hexdigest(),
            ))
            return traj

        return run_flow

    def take(self):
        """Steps and fingerprint of the flows since the last call."""
        flows, self.flows = self.flows, []
        steps = sum(f[0] for f in flows)
        last = flows[-1] if flows else (0, [0.0], 0.0, "")
        return steps, {
            "flows": len(flows),
            "steps": steps,
            "exit_mass_final": last[1][-1],
            "energy_final": last[2],
            "exit_mass_series": last[1],
            "fields_digest": last[3],
            "digest": hashlib.sha256(repr(flows).encode()).hexdigest(),
        }


class Tracer:
    """In-memory spans and counters for one traced iteration at a time."""

    def __init__(self):
        self._patches = _Patches()
        # the wrappers close over these containers: reset clears them in place
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self._m_prev = []
        self.reset()

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self._m_prev.clear()
        self.samples = 0
        self.steps = 0
        self.useful = 0

    def install(self):
        observers = {"solver.solve_step": self._observe_solve_step,
                     "jko.run_flow": self._observe_run_flow}
        for name, targets in SPANS.items():
            obs = observers.get(name)
            for owner, attr in targets:
                self._patches.swap(owner, attr, lambda fn, n=name, o=obs: self._span(n, fn, o))
        for name, targets in COUNTS.items():
            for owner, attr in targets:
                self._patches.swap(owner, attr, lambda fn, n=name: self._count(n, fn))
        checks = tuple(
            (name, self._span(f"harness.check.{name}", fn)) for name, fn in harness.CHECKS
        )
        self._patches.swap(harness, "CHECKS", lambda _: checks)

    def uninstall(self):
        self._patches.restore()

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _count(self, name, fn):
        counts = self.counts
        if name == "measures.inv_cumweight":
            def counted(dom, z):
                counts[name] += 1
                self.samples += getattr(z, "size", 1)
                return fn(dom, z)
        else:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return counted

    # the prefix a step starts from is solve_step's third argument; a
    # flow's useful candidates are sum(dm + 1) over its steps, which
    # telescopes to (final m - first m_prev) + steps
    def _observe_solve_step(self, args, out):
        self._m_prev.append(args[2])

    def _observe_run_flow(self, args, traj):
        n = len(traj.steps)
        self.steps += n
        if n:
            self.useful += traj.steps[-1].m_exit - self._m_prev[-n] + n

    def metrics(self):
        """Per-layer metrics of the spans and counts since :meth:`reset`."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        durations = defaultdict(list)
        for name, start, end, parent in self.spans:
            d = end - start
            calls[name] += 1
            total[name] += d
            durations[name].append(d)
            if parent >= 0:
                child[parent] += d
        self_s = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[sid]
        mf = calls["solver.minimize_free"]
        inv = self.counts["measures.inv_cumweight"]
        step_ms = [1e3 * d for d in durations["solver.solve_step"]]
        p50 = statistics.median(step_ms) if step_ms else 0.0
        p95 = statistics.quantiles(step_ms, n=20)[-1] if len(step_ms) > 1 else p50
        out = {
            "solver.root_find.calls": calls["solver.root_find"],
            "solver.root_find.s": total["solver.root_find"],
            "solver.minimize_free.calls": mf,
            "solver.candidates_per_step": mf / self.steps if self.steps else 0.0,
            "solver.useful_candidate_ratio": self.useful / mf if mf else 0.0,
            "solver.project.calls": calls["solver.project"],
            "solver.project.s": total["solver.project"],
            "solver.project.self_s": self_s["solver.project"],
            "solver.projections_per_candidate": calls["solver.project"] / mf if mf else 0.0,
            "solver.pool.calls": self.counts["solver.pool"],
            "solver.solve_step.s": total["solver.solve_step"],
            "solver.solve_step.ms_p50": p50,
            "solver.solve_step.ms_p95": p95,
            "solver.step_objective.calls": self.counts["solver.step_objective"],
            "measures.inv_cumweight.calls": inv,
            "measures.inv_cumweight.samples": self.samples,
            "measures.samples_per_eval": self.samples / inv if inv else 0.0,
            "measures.density_of.calls": calls["measures.density_of"],
            "measures.density_of.s": total["measures.density_of"],
            "measures.quantile_of.s": total["measures.quantile_of"],
            "measures.random_feasible.s": total["measures.random_feasible"],
            "jko.steps": self.steps,
            "jko.run_flow.s": total["jko.run_flow"],
            "jko.self_s": self_s["jko.run_flow"],
            "jko.pressure_velocity_checks.s": total["jko.pressure_velocity_checks"],
            "transport.kantorovich_potential.calls": calls["transport.kantorovich_potential"],
            "transport.kantorovich_potential.s": total["transport.kantorovich_potential"],
            "transport.w2_1d.s": total["transport.w2_1d"],
            "transport.w2_lp_oracle.calls": calls["transport.w2_lp_oracle"],
            "transport.w2_lp_oracle.s": total["transport.w2_lp_oracle"],
            "corridor.reference.s": total["corridor.reference"],
            "harness.convergence_study.s": total["harness.convergence_study"],
            "cli.output.s": total["cli.output"],
            "cli.config.s": total["cli.config"],
        }
        for name in CHECK_NAMES:
            out[f"harness.check.{name}.s"] = total[f"harness.check.{name}"]
        return out
