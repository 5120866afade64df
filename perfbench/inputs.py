"""Workload inputs, generated from the benchmark seed.

Inputs are generated from the benchmark seed by :func:`generate` in the
parent process and written to a work directory; the program only ever
sees those files and the arguments built in ``workloads.py``.  This
module does not import the package, so the parent can start (and fail
cleanly) without it.

The four workloads and what each one is for:

* ``drain``: ``crowdflow1d run`` on a fig4-like draining corridor
  (radial, a=1, R=10, door), uniform rho0 drawn from a narrow band
  around 0.4, run through the drain phase.  Radial block solves with
  scalar ``brentq`` callbacks (about half of the solve time) and an
  exit-prefix scan of about 7.6 candidates per step dominate.
* ``fill``: ``crowdflow1d run`` on a fig3-like closed corridor (a=0
  apex, no door) run past the regime end.  One candidate per step and
  no root-finds, but many single-evaluation block solves from merges:
  the bypass workload for prefix-scan and root-find changes.
* ``study``: ``crowdflow1d study`` on the saturated-drain config
  (rho0=1, 16384 samples at every tau).  Large arrays (about 8800
  samples per ``inv_cumweight`` call), about 28 candidates per step,
  mostly hint and certificate array passes.  The seed varies nothing.
* ``campaign``: ``property_campaign`` on a fixed case set: dozens of
  tiny flows on random flat and radial domains plus the LP oracle.  The
  seed varies nothing either: per-seed cost is heavy-tailed (a single
  case can take 50x the mean), so a seeded case set cannot give steady
  timings at any affordable size.
"""

import random

RHO0_CENTER = 0.4
# the band is kept narrow on purpose: at 1024 samples the absorbed mass
# is quantized to 1/1024 and both the cost and the reference gap jump
# erratically between rho0 values a few 1e-3 apart
RHO0_HALF_WIDTH = 2e-5

# W2 gate against the semi-analytic reference: the acceptance bound of
# the fig3 comparison, looser for the campaign probe, whose coarse step
# (tau = 0.05) leaves an O(tau) gap.  Smoke mode samples so coarsely
# that the absorbed-mass quantum alone is a few 1e-3.  Gaps below the
# harness's rounding floor read as the floor, so that a rounding-level
# gap is a steady number.
REF_GAP_GATE = {"drain": 1e-3, "fill": 1e-3, "study": 1e-3, "campaign": 5e-3}
SMOKE_GAP_GATE = 2e-2

# The CLI reports the decomposition and complementarity residuals of
# drain and fill as information only, because both run below its default
# resolution; the benchmark gates them itself.  Measured at these sizes:
# decomposition <= 4e-14 (rounding) and complementarity <= 5.5e-4
# (1.1e-3 in smoke mode).  The complementarity gate is the CLI's own
# default-resolution tolerance, 1e-3.
DIAG_GATE = {"decomposition_residual": 1e-10, "complementarity": 1e-3}
SMOKE_DIAG_GATE = {"decomposition_residual": 1e-10, "complementarity": 5e-3}

# The calibration loop that samples each workload's speed (worker.LOOPS).
# Per-iteration spread of the calibrated time in one process, small-array
# loop vs 16384-element loop: study 0.061 vs 0.037, drain 0.050 vs 0.11,
# campaign 0.063 vs 0.10.
CALIBRATION_LOOP = {"drain": "small", "fill": "small", "study": "large", "campaign": "small"}

CAMPAIGN_SEED = 0

SIZES = {
    False: dict(
        n_samples=1024, n_cells=512, drain_T=3.0, fill_T=4.0,
        study_T=0.1, study_taus=(0.1, 0.05, 0.025, 0.0125, 0.00625),
        campaign_cases=4,
    ),
    # smoke mode: tiny inputs for the self-tests
    True: dict(
        n_samples=256, n_cells=128, drain_T=2.0, fill_T=1.0,
        study_T=0.1, study_taus=(0.1, 0.05, 0.025, 0.0125, 0.00625),
        campaign_cases=1,
    ),
}

NAMES = ("drain", "fill", "study", "campaign")


def _corridor_ini(a, has_exit, rho0, T, size):
    snaps = ", ".join(f"{t:g}" for t in (T / 4, T / 2, 3 * T / 4, T))
    return (
        "[domain]\n"
        f"a = {a!r}\nR = 10.0\nweight_kind = radial\nhalf_angle = auto\n"
        f"has_exit = {'true' if has_exit else 'false'}\n\n"
        f"[density]\nuniform = {rho0!r}\n\n"
        "[potential]\nkind = distance_to_exit\n\n"
        f"[run]\ntau = 0.01\nT = {T!r}\n"
        f"n_samples = {size['n_samples']}\nn_cells = {size['n_cells']}\n"
        f"snapshots = {snaps}\n"
    )


def generate(name, seed, smoke=False):
    """Inputs of one workload for one seed: ``{"files": ..., "params": ...}``."""
    inputs = _generate(name, seed, SIZES[smoke])
    inputs["params"]["ref_gap_gate"] = SMOKE_GAP_GATE if smoke else REF_GAP_GATE[name]
    inputs["params"]["calibration_loop"] = CALIBRATION_LOOP[name]
    if name in ("drain", "fill"):
        inputs["params"]["diag_gate"] = SMOKE_DIAG_GATE if smoke else DIAG_GATE
    return inputs


def _generate(name, seed, size):
    rng = random.Random(f"{name}:{seed}")
    if name in ("drain", "fill"):
        rho0 = RHO0_CENTER + rng.uniform(-RHO0_HALF_WIDTH, RHO0_HALF_WIDTH)
        drain = name == "drain"
        T = size["drain_T"] if drain else size["fill_T"]
        ini = _corridor_ini(1.0 if drain else 0.0, drain, rho0, T, size)
        return {"files": {"scenario.ini": ini},
                "params": {"rho0": rho0, "T": T, "seed_varies": "rho0"}}
    if name == "study":
        taus = ", ".join(f"{t:g}" for t in size["study_taus"])
        ini = (
            "[domain]\na = 1.0\nR = 10.0\nweight_kind = radial\n"
            "half_angle = auto\nhas_exit = true\n\n"
            "[density]\nuniform = 1.0\n\n[potential]\nkind = distance_to_exit\n\n"
            f"[study]\ntaus = {taus}\nT = {size['study_T']!r}\n"
        )
        return {"files": {"scenario.ini": ini},
                "params": {"seed_varies": "nothing"}}
    if name == "campaign":
        return {"files": {},
                "params": {"campaign_seed": CAMPAIGN_SEED,
                           "n_cases": size["campaign_cases"],
                           "seed_varies": "nothing"}}
    raise ValueError(f"unknown workload {name!r}")
