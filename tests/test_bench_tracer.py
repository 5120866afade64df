"""The benchmark tracer's hold on the program, checked from tier-1.

``perfbench/tracer.py`` patches names that it reads off the package and
counts steps through ``jko.solve_step``; a traced run fails if a bound
name is gone or if a flow has more steps than ``solve_step`` calls.  This
runs the tracer as the benchmark installs it, over a closed corridor past
its regime end and a short door flow.
"""

import importlib.util
from pathlib import Path

from crowdflow1d import harness, jko
from crowdflow1d.corridor import CorridorPreset, fig4_preset
from crowdflow1d.jko import PotentialD

REPO = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tracer)


def test_tracer_counts_every_step_past_the_regime_end():
    """Fill freezes at t = R(1 - sqrt(rho0)) = 3.68; to T = 4.5 it runs 90
    steps, each through one ``solve_step`` call, and the flow log reports
    both flows; uninstalling puts the program's own functions back."""
    solve_step, run_flow = jko.solve_step, jko.run_flow
    fill = CorridorPreset("fill", 0.0, 10.0, 0.4, 0.05, False)
    door = fig4_preset()
    log, spans = tracer.FlowLog(), tracer.Tracer()
    log.install()
    try:
        spans.install()
        try:
            flows = [harness.run_flow(fill.initial(128), PotentialD.distance_to_exit(fill.domain()),
                                      0.05, 4.5, n_samples=256, n_cells=128),
                     harness.run_flow(door.initial(64), PotentialD.distance_to_exit(door.domain()),
                                      door.tau, 10 * door.tau, n_samples=256, n_cells=64)]
        finally:
            spans.uninstall()
        steps, fingerprint = log.take()
    finally:
        log.uninstall()
    assert [len(traj.steps) for traj in flows] == [90, 10]
    metrics = spans.metrics()
    assert metrics["jko.steps"] == steps == 100
    assert metrics["solver.minimize_free.calls"] >= steps
    assert fingerprint["flows"] == 2 and fingerprint["steps"] == steps
    assert jko.solve_step is solve_step and jko.run_flow is run_flow
    assert harness.run_flow is run_flow
