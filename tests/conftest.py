import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from crowdflow1d import jko
from crowdflow1d.corridor import fig3_preset, fig4_preset
from crowdflow1d.errors import SolverFailureError
from crowdflow1d.jko import PotentialD, run_flow

# some property tests drive the full scheme; the default deadline is
# tuned for microtests and only adds flakiness here
settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(177)


@pytest.fixture(scope="session")
def fig3_run():
    """Closed-corridor trajectory at default resolutions, t up to 1."""
    preset = fig3_preset()
    dom = preset.domain()
    D = PotentialD.distance_to_exit(dom)
    start = time.perf_counter()
    traj = run_flow(preset.initial(), D, preset.tau, 1.0)
    return preset, D, traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig4_run():
    """Draining-corridor trajectory at default resolutions, t up to 3."""
    preset = fig4_preset()
    dom = preset.domain()
    D = PotentialD.distance_to_exit(dom)
    start = time.perf_counter()
    traj = run_flow(preset.initial(), D, preset.tau, 3.0)
    return preset, D, traj, time.perf_counter() - start


@pytest.fixture
def third_step_fails(monkeypatch):
    """``jko.solve_step`` failing its certificate on its third call, as a
    :class:`SolverFailureError` with ``gap`` -2e-7, ``m`` 7 and the
    returned array as its last iterate."""
    honest, calls, last = jko.solve_step, [0], np.zeros(3)

    def solve_step(*args):
        calls[0] += 1
        if calls[0] == 3:
            raise SolverFailureError("projection certificate failed inside a block",
                                     last_iterate=last, gap=-2e-7, m=7)
        return honest(*args)

    monkeypatch.setattr(jko, "solve_step", solve_step)
    return last


CRITERIA = {
    "test_criterion_1": "corridor exactness (no exit)",
    "test_criterion_2": "generic solver matches analytic benchmark",
    "test_criterion_3": "convergence order",
    "test_criterion_4": "energy decay and discrete H1 bound",
    "test_criterion_5": "decomposition and complementarity",
    "test_criterion_6": "OT oracle equivalence",
    "test_criterion_7": "property battery",
    "test_criterion_8": "momentum discrepancy rate",
}


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of a run."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in name:
                continue
            for key, label in CRITERIA.items():
                if key in name:
                    verdict = "PASS" if status == "passed" else "FAIL"
                    lines[key] = f"{key.replace('test_', '')} ({label}): {verdict}"
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for key in sorted(lines):
            terminalreporter.write_line("  " + lines[key])
