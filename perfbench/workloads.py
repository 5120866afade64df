"""Iteration bodies and correctness gates, run in the worker process.

Each workload is a closed loop of one client: the next iteration starts
only after the previous one has finished.  :func:`run_once` is the timed
region and does nothing but the program's own work; :func:`check` gates
its outputs afterwards.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from crowdflow1d import cli
from crowdflow1d.corridor import (
    RadialProfile,
    ode_b_exit,
    profile_no_exit,
    render,
    saturated_exit_preset,
)
from crowdflow1d.harness import MACHINE_ERROR_FLOOR, fit_order, property_campaign
from crowdflow1d.jko import PotentialD, run_flow
from crowdflow1d.measures import Measure1D
from crowdflow1d.transport import w2_1d

# criterion 3: both fitted orders of the drain sweep
ORDER_BAND = (0.85, 1.1)


def setup(name, work):
    """What a fresh process does before the first JKO step."""
    if name != "campaign":
        cfg = cli.load_config(str(work / "scenario.ini"))
        cfg.validate()
        cfg.potential()
        cfg.initial()


def run_once(name, work, params, out):
    """One iteration of the workload; returns ``(status, report)``."""
    if name == "campaign":
        return 0, property_campaign(params["campaign_seed"], params["n_cases"])
    cmd = "study" if name == "study" else "run"
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main([cmd, "--config", str(work / "scenario.ini"), "--out", str(out)])
    return status, buf.getvalue()


def floored(gap):
    """A gap below the harness's rounding floor reads as the floor."""
    return max(float(gap), MACHINE_ERROR_FLOOR)


def gap_gate(params, gap):
    limit = params["ref_gap_gate"]
    return [f"W2 gap to the reference {gap:.3e} above {limit:g}"] if gap > limit else []


def _drain_reference(T, a, R, rho0, n_cells):
    b = ode_b_exit(T, a, R, rho0)
    inner = RadialProfile(t=T, a=a, R=R, rho0=rho0, b=b).interior_mass()
    prof = RadialProfile(t=T, a=a, R=R, rho0=rho0, b=b, exit_mass=max(1.0 - inner, 0.0))
    return render(prof, n_cells=n_cells, has_exit=True)


def _corridor_gap(name, work, params, out):
    cfg = cli.load_config(str(work / "scenario.ini"))
    T, rho0 = params["T"], params["rho0"]
    final = Measure1D.from_csv(str(out / f"snapshot_{T:g}.csv"), cfg.domain())
    if name == "drain":
        ref = _drain_reference(T, cfg.a, cfg.R, rho0, cfg.n_cells)
    else:
        ref = render(profile_no_exit(T, rho0, cfg.R), n_cells=cfg.n_cells, has_exit=False)
    return w2_1d(final, ref, n_samples=4096).w2


# "complementarity[t=3]: info (1.70e-04, below default resolution)", or
# "...: pass (1.70e-04)" at default resolution
_DIAG_LINE = re.compile(
    r"^(decomposition_residual|complementarity)\[t=([^\]]+)\]: \w+ \(([^,)]+)")


def _diag_gate(report, gate):
    """Gate the residuals of the CLI summary, which it may print as info only."""
    found = [m.groups() for m in map(_DIAG_LINE.match, report.splitlines()) if m]
    msgs = [f"{name}[t={t}] = {value} above {gate[name]:g}"
            for name, t, value in found if not float(value) <= gate[name]]
    if {name for name, _, _ in found} != set(gate):
        msgs.append("decomposition/complementarity lines missing from the summary")
    return msgs


def _study_orders(report, out):
    rows = [[float(x) for x in row.split(",")]
            for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    taus, err_w2 = [r[0] for r in rows], [r[2] for r in rows]
    # the summary line reads "order=<interface order> r2=<fit quality>"
    order_b = float(report.strip().splitlines()[-1].split()[0].split("=")[1])
    return order_b, fit_order(taus, err_w2)[0], err_w2[-1]


def check(name, work, params, out, status, report):
    """Gate one iteration: ``(ops, failed, ref_w2_gap, messages)``.

    ``ref_w2_gap`` is ``None`` for the campaign, which has no reference
    of its own (see :func:`campaign_reference_gap`).
    """
    if name == "campaign":
        failed = sum(c.n_failed for c in report.checks)
        msgs = [m for c in report.checks for m in c.failures]
        return sum(c.n_cases for c in report.checks), failed, None, msgs
    if status != 0:
        return 1, 1, None, [f"exit status {status}: {report.strip()[-400:]}"]
    msgs = []
    if name == "study":
        order_b, order_w2, gap = _study_orders(report, out)
        for label, order in (("interface", order_b), ("W2", order_w2)):
            if not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
                msgs.append(f"{label} order {order:.4f} outside {ORDER_BAND}")
    else:
        msgs += _diag_gate(report, params["diag_gate"])
        gap = _corridor_gap(name, work, params, out)
    msgs += gap_gate(params, gap)
    return 1, int(bool(msgs)), floored(gap), msgs


def campaign_reference_gap():
    """W2 gap of one flow at campaign resolution to the drain reference.

    The campaign has no reference solution, so its accuracy metric comes
    from the saturated drain (the criterion-3 scenario) solved at the
    campaign's own resolution (512 samples, 64 cells), outside the timed
    loop.
    """
    p = saturated_exit_preset()
    T, n_cells = 0.5, 64
    traj = run_flow(p.initial(n_cells), PotentialD.distance_to_exit(p.domain()),
                    0.05, T, n_samples=512, n_cells=n_cells)
    ref = _drain_reference(T, p.a, p.R, p.rho0, n_cells)
    return w2_1d(traj.iterates[-1], ref, n_samples=4096).w2


def outputs_dir(work, traced):
    return Path(work) / ("out_traced" if traced else "out")
