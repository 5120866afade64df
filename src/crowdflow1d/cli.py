"""Command-line front end: configure scenarios, run flows and sweeps.

Two subcommands.  ``run`` integrates a scenario and writes trajectory
and snapshot CSVs plus SVG density plots, then prints an invariant
summary (nonzero exit status if any invariant fails).  ``study`` wraps
the convergence sweep and prints the fitted-order summary line.

Scenarios come from a preset (``--preset fig3|fig4``), a config file in
INI key-value form (``--config``), or both, with individual flags
(``--out`` and ``--T`` on both subcommands, ``--tau`` and ``--snapshots``
on ``run``) overriding either.  Every parsed value is validated before
any computation starts.
"""

import argparse
import configparser
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corridor import CorridorPreset, fig3_preset, fig4_preset, unit_mass_half_angle
from .errors import ConfigError, CrowdflowError, FeasibilityError
from .harness import _validate_tau_sweep, convergence_study
from .jko import (PotentialD, _check_tau, _decomposition_residuals, _step_count, run_flow,
                  step_size_cap)
from .jko import pressure_velocity_checks  # noqa: F401  (patched by perfbench/tracer.py)
from .measures import CellGeometry, Domain1D, Measure1D

DEFAULT_TAUS = (0.1, 0.05, 0.025, 0.0125, 0.00625)

# the corridor presets with the horizon and snapshot times of each figure
PRESETS = {
    p.name: dict(a=p.a, R=p.R, rho0_value=p.rho0, has_exit=p.has_exit, tau=p.tau,
                 T=T, snapshots=snapshots)
    for p, T, snapshots in (
        (fig3_preset(), 6.0, (0.5, 1.5, 3.0, 6.0)),
        (fig4_preset(), 4.0, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)),
    )
}

# tolerances of the run-summary invariants (the exact discrete facts)
ENERGY_TOL = 1e-10
H1_SLACK = 1e-8
MASS_TOL = 1e-9
# the decomposition diagnostics carry sampling error and are only held
# to their stated tolerance at the default resolutions or finer
DIAG_TOL = 1e-3
DIAG_N_SAMPLES = 4096
DIAG_N_CELLS = 2048


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description, ready to build library objects."""

    a: float
    R: float
    weight_kind: str = "radial"
    half_angle: object = "auto"  # float, or "auto" for unit-mass uniform
    has_exit: bool = False
    rho0_value: float = None
    rho0_table: tuple = None  # ((r, value), ...) step function rows
    potential_table: tuple = None  # ((r, D), ...); None is D = r - a
    tau: float = 0.01
    T: float = None
    n_samples: int = 4096
    n_cells: int = 2048
    snapshots: tuple = ()
    taus: tuple = DEFAULT_TAUS
    study_T: float = 1.0
    out_dir: str = "out"

    def resolved_half_angle(self):
        if self.weight_kind != "radial":
            return None
        if self.half_angle == "auto":
            if self.rho0_value is None:
                raise ConfigError(
                    "half_angle 'auto' needs a uniform rho0", field="half_angle"
                )
            return unit_mass_half_angle(self.a, self.R, self.rho0_value)
        return float(self.half_angle)

    def domain(self):
        return Domain1D(
            self.a, self.R, self.weight_kind, self.resolved_half_angle(),
            self.has_exit,
        )

    def initial(self, n_cells=None):
        dom = self.domain()
        n = self.n_cells if n_cells is None else n_cells
        if self.rho0_value is not None:
            total = self.rho0_value * dom.total_weight
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(
                    f"uniform density {self.rho0_value} carries mass {total:.10f}, needs 1",
                    field="uniform",
                )
            return Measure1D.uniform(dom, self.rho0_value, n)
        rows = np.asarray(self.rho0_table, dtype=float)
        radii, values = rows[:, 0], rows[:, 1]
        if np.any(np.diff(radii) <= 0.0):
            raise ConfigError("density table radii must increase", field="density table")
        if radii[0] < dom.a - 1e-12 or radii[-1] > dom.R + 1e-12:
            raise ConfigError(
                f"density table leaves [{dom.a}, {dom.R}]", field="density table"
            )
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ConfigError("density table values must lie in [0, 1]", field="density table")
        starts = radii
        ends = np.append(radii[1:], dom.R)
        total = float(values @ (dom.cumweight(ends) - dom.cumweight(starts)))
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"density table carries mass {total:.10f}, needs 1", field="density table"
            )
        cells = CellGeometry(dom, n)
        # exact cell masses of the step profile: cut each table row
        # against each cell, so nothing is lost to quadrature
        cell_mass = np.zeros(n)
        for s, e, v in zip(starts, ends, values):
            lo = dom.cumweight(np.clip(cells.edges[:-1], s, e))
            hi = dom.cumweight(np.clip(cells.edges[1:], s, e))
            cell_mass += v * (hi - lo)
        return Measure1D(dom, cells.edges, np.clip(cell_mass / cells.dW, 0.0, 1.0))

    def potential(self):
        dom = self.domain()
        if self.potential_table is None:
            return PotentialD.distance_to_exit(dom)
        rows = np.asarray(self.potential_table, dtype=float)
        try:
            D = PotentialD.from_table(rows[:, 0], rows[:, 1])
            D.validate_for(dom)
        except FeasibilityError as e:
            raise ConfigError(str(e), field="potential table") from e
        return D

    def validate(self):
        """Build every library object once, so bad values fail here."""
        _require_positive([] if self.T is None else [self.T], "T")
        _require_positive([self.study_T], "study T")
        _require_positive(self.snapshots, "snapshots")
        _require_positive(self.taus, "taus")
        if self.n_samples < 2:
            raise ConfigError(
                f"n_samples must be at least 2, got {self.n_samples}", field="n_samples"
            )
        if self.n_cells < 1:
            raise ConfigError(
                f"n_cells must be at least 1, got {self.n_cells}", field="n_cells"
            )
        # a count that cannot hold even one float64 array fails here, not in
        # the run; one that passes may still run out of memory later
        for count, name in ((self.n_samples, "n_samples"), (self.n_cells, "n_cells")):
            try:
                np.empty(count)
            except (MemoryError, ValueError) as e:
                raise ConfigError(f"{name} = {count} is too large to allocate: {e}",
                                  field=name) from e
        if not (np.isfinite(self.a) and self.a >= 0.0):
            raise ConfigError(f"a must be finite and >= 0, got {self.a}", field="a")
        if not (np.isfinite(self.R) and self.R > self.a):
            raise ConfigError(f"R must be finite and > a, got {self.R}", field="R")
        if self.rho0_value is not None and not (
            np.isfinite(self.rho0_value) and 0.0 < self.rho0_value <= 1.0
        ):
            raise ConfigError(
                f"uniform density must lie in (0, 1], got {self.rho0_value}", field="uniform"
            )
        if self.weight_kind == "radial":
            if not np.isfinite(self.R * self.R):
                raise ConfigError(f"R = {self.R} is too large for a radial weight", field="R")
            h = self.resolved_half_angle()
            if not (np.isfinite(h) and h > 0.0):
                raise ConfigError(
                    f"half_angle must be finite and positive, got {h}", field="half_angle"
                )
        dom = self.domain()
        self.initial(n_cells=64)
        try:
            _check_tau(self.tau, step_size_cap(self.potential()))
        except FeasibilityError as e:
            raise ConfigError(str(e), field="tau") from e
        if self.T is not None:
            _align_times([self.T], self.tau, "T")
        if self.snapshots:
            if self.T is not None and max(self.snapshots) > self.T + 1e-9:
                raise ConfigError(
                    "snapshots extend past T", field="snapshots"
                )
            _align_times(self.snapshots, self.tau, "snapshots")
        # out_dir is made with its missing parents: the nearest that exists must be a directory
        out = Path(self.out_dir)
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            raise ConfigError(f"output path {found} is not a directory", field="out")
        return dom


def _require_positive(values, field):
    for v in values:
        if not (np.isfinite(v) and v > 0.0):
            raise ConfigError(f"{field} must be finite and positive, got {v}", field=field)


def _align_times(times, tau, field):
    """Each time must be a whole number of steps of ``tau``, at least one."""
    for t in times:
        if not np.isfinite(t / tau):
            raise ConfigError(f"tau={tau} is too small to step to {field} = {t}", field="tau")
        try:
            steps = _step_count(t, tau)
        except FeasibilityError as e:
            raise ConfigError(f"time {t} is not a multiple of tau={tau}", field=field) from e
        if steps < 1:
            raise ConfigError(f"time {t} is less than one step of tau={tau}", field=field)


# -- config file parsing -------------------------------------------------

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw, field):
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected true/false for {field}, got {raw!r}", field=field)


def _parse_float(raw, field):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number for {field}, got {raw!r}", field=field)


def _parse_int(raw, field):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer for {field}, got {raw!r}", field=field)


def _parse_half_angle(raw, field):
    raw = raw.strip()
    return "auto" if raw == "auto" else _parse_float(raw, field)


def _choice(label, *options):
    def parse(raw, field):
        value = raw.strip()
        if value not in options:
            raise ConfigError(
                f"{label} must be {' or '.join(options)}, got {value!r}", field=field
            )
        return value
    return parse


def _parse_times(raw, field):
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{field} needs at least one value", field=field)
    return tuple(_parse_float(p, field) for p in parts)


def _parse_table(raw, field):
    rows = []
    for line in raw.strip().splitlines():
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ConfigError(
                f"{field} rows need 'r value', got {line.strip()!r}", field=field
            )
        row = (_parse_float(parts[0], field), _parse_float(parts[1], field))
        if not np.all(np.isfinite(row)):
            raise ConfigError(
                f"{field} entries must be finite, got {line.strip()!r}", field=field
            )
        rows.append(row)
    if len(rows) < 1:
        raise ConfigError(f"{field} is empty", field=field)
    return tuple(rows)


# the scenario-file grammar, [section][key] -> (ScenarioConfig field,
# parser, field named in errors); keys are lower case, as configparser
# reads them, and are parsed in this order.  The potential's 'kind' is
# no field: the table decides, and load_config checks the kind against it
SCENARIO_KEYS = {
    "domain": {
        "a": ("a", _parse_float, "a"),
        "r": ("R", _parse_float, "R"),
        "weight_kind": ("weight_kind", _choice("weight_kind", "radial", "flat"),
                        "weight_kind"),
        "half_angle": ("half_angle", _parse_half_angle, "half_angle"),
        "has_exit": ("has_exit", _parse_bool, "has_exit"),
    },
    "density": {
        "uniform": ("rho0_value", _parse_float, "uniform"),
        "table": ("rho0_table", _parse_table, "density table"),
    },
    "potential": {
        "kind": ("potential_kind", _choice("potential kind", "distance_to_exit", "table"),
                 "kind"),
        "table": ("potential_table", _parse_table, "potential table"),
    },
    "run": {
        "tau": ("tau", _parse_float, "tau"),
        "t": ("T", _parse_float, "T"),
        "n_samples": ("n_samples", _parse_int, "n_samples"),
        "n_cells": ("n_cells", _parse_int, "n_cells"),
        "snapshots": ("snapshots", _parse_times, "snapshots"),
    },
    "study": {
        "taus": ("taus", _parse_times, "taus"),
        "t": ("study_T", _parse_float, "study T"),
    },
}


def _read_ini(path):
    """The parsed INI file at ``path``; a file that is not INI key-value
    text raises :class:`ConfigError` naming the line's section or key."""
    # values are read literally: a '%' is a malformed number, not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: byte {e.start}: {e.reason}",
                          field="config") from e
    except configparser.MissingSectionHeaderError as e:
        raise ConfigError(f"line {e.lineno}: {e.line.strip()!r} comes before any "
                          "[section] header", field="section") from e
    except configparser.DuplicateSectionError as e:
        raise ConfigError(f"line {e.lineno}: section [{e.section}] given twice",
                          field=e.section) from e
    except configparser.DuplicateOptionError as e:
        # configparser lowercases the key: name the field it sets ('T', not 't')
        field = SCENARIO_KEYS.get(e.section, {}).get(e.option, (None, None, e.option))[2]
        raise ConfigError(f"line {e.lineno}: key {field!r} given twice in [{e.section}]",
                          field=field) from e
    except configparser.ParsingError as e:
        # a line with neither '=' nor a header, after some section header
        lineno = e.errors[0][0]
        lines = Path(path).read_text(encoding="utf-8").splitlines()[:lineno]
        section = [mo["header"] for mo in map(parser.SECTCRE.match, map(str.strip, lines)) if mo][-1]
        raise ConfigError(f"line {lineno}: {lines[-1].strip()!r} in [{section}] is not "
                          "a 'key = value' line", field=section) from e
    if not read:
        raise ConfigError(f"config file not found: {path}", field="config")
    return parser


def load_config(path, base=None):
    """Parse an INI scenario file on top of ``base`` (a ScenarioConfig)."""
    parser = _read_ini(path)
    for section in parser.sections():
        if section not in SCENARIO_KEYS:
            raise ConfigError(f"unknown section [{section}]", field=section)
        for key in parser[section]:
            if key not in SCENARIO_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]", field=key)
    updates = {}
    for section, keys in SCENARIO_KEYS.items():
        found = parser[section] if parser.has_section(section) else {}
        for key, (name, parse, field) in keys.items():
            if key in found:
                updates[name] = parse(found[key], field)

    if updates.get("weight_kind") == "flat":
        updates.setdefault("half_angle", None)
    if "rho0_value" in updates:
        if "rho0_table" in updates:
            raise ConfigError(
                "density takes either 'uniform' or 'table', not both",
                field="density",
            )
        updates["rho0_table"] = None
    elif "rho0_table" in updates:
        updates["rho0_value"] = None
    kind = updates.pop("potential_kind", None)
    tabled = bool(updates.get("potential_table") or (base and base.potential_table))
    if kind == "table" and not tabled:
        raise ConfigError("potential kind 'table' needs a table", field="potential table")
    if kind == "distance_to_exit" and tabled:
        raise ConfigError("potential kind 'distance_to_exit' contradicts the potential table",
                          field="kind")
    if base is None:
        required = {"a", "R"}
        missing = sorted(required - set(updates))
        if missing:
            raise ConfigError(
                f"config is missing required key(s): {', '.join(missing)}",
                field=missing[0],
            )
        if "rho0_value" not in updates:
            raise ConfigError(
                "config needs a [density] section with uniform or table",
                field="density",
            )
        base = ScenarioConfig(a=updates.pop("a"), R=updates.pop("R"))
    return replace(base, **updates)


def config_from_preset(name):
    try:
        fields = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}", field="preset")
    return ScenarioConfig(**fields)


# -- SVG emission --------------------------------------------------------

SVG_W, SVG_H = 800, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 55, 20, 28, 42
RHO_TOP = 1.05


def _svg_path(xs, ys):
    return "M" + " L".join(["%.2f,%.2f" % xy for xy in zip(xs, ys)])


def density_svg(measure, title=""):
    """An 800x400 plot of the density profile, exit atom annotated."""
    dom = measure.domain
    plot_w = SVG_W - MARGIN_L - MARGIN_R
    plot_h = SVG_H - MARGIN_T - MARGIN_B

    def X(r):
        return MARGIN_L + (r - dom.a) / (dom.R - dom.a) * plot_w

    def Y(rho):
        return MARGIN_T + (RHO_TOP - rho) / RHO_TOP * plot_h

    # piecewise-constant outline: over each cell a horizontal segment
    xs = np.repeat(measure.edges, 2)[1:-1]
    ys = np.repeat(measure.rho, 2)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{SVG_W / 2:.0f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    # axes box and the unit-density cap line
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_L}" y1="{Y(1.0):.2f}" x2="{MARGIN_L + plot_w}" '
        f'y2="{Y(1.0):.2f}" stroke="#999999" stroke-dasharray="5,4" stroke-width="1"/>'
    )
    for r in np.linspace(dom.a, dom.R, 6):
        out.append(
            f'<line x1="{X(r):.2f}" y1="{MARGIN_T + plot_h}" x2="{X(r):.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{X(r):.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{r:g}</text>'
        )
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{Y(rho):.2f}" x2="{MARGIN_L}" '
            f'y2="{Y(rho):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 9}" y="{Y(rho) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{rho:g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{SVG_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">r</text>'
    )
    px, py = X(xs).tolist(), Y(ys).tolist()
    out.append(
        f'<path d="{_svg_path(px, py)}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>'
    )
    if measure.exit_mass > 0.0:
        bar_h = measure.exit_mass / RHO_TOP * plot_h
        out.append(
            f'<rect x="{MARGIN_L + 2}" y="{MARGIN_T + plot_h - bar_h:.2f}" width="10" '
            f'height="{bar_h:.2f}" fill="#c23b22" fill-opacity="0.7"/>'
        )
        out.append(
            f'<text x="{MARGIN_L + 16}" y="{MARGIN_T + plot_h - bar_h + 4:.2f}" '
            f'font-family="sans-serif" font-size="11" fill="#c23b22">'
            f"exit mass {measure.exit_mass:.4f}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- subcommands ---------------------------------------------------------


def _summary_line(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    return f"{name}: {'pass' if ok else 'FAIL'}{tail}"


def run_scenario(cfg, dry_run=False, echo=print):
    """Integrate, write outputs, print the invariant summary.

    Returns the exit status: 0 clean, 1 when an invariant failed.
    """
    cfg.validate()
    T = cfg.T if cfg.T is not None else (max(cfg.snapshots) if cfg.snapshots else None)
    if T is None:
        raise ConfigError("run needs T or snapshots", field="T")
    snapshots = cfg.snapshots or (T,)
    if dry_run:
        echo("config ok (dry run, nothing executed)")
        return 0
    dom = cfg.domain()
    D = cfg.potential()
    traj = run_flow(
        cfg.initial(), D, cfg.tau, T,
        n_samples=cfg.n_samples, n_cells=cfg.n_cells,
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    traj.to_csv(str(traj_path))
    written = [traj_path.name]
    checks = []

    hold_diags = cfg.n_samples >= DIAG_N_SAMPLES and cfg.n_cells >= DIAG_N_CELLS
    for t in snapshots:
        k = _step_count(t, cfg.tau)
        m = traj.iterates[k]
        stem = f"snapshot_{t:g}"
        m.to_csv(str(out_dir / f"{stem}.csv"))
        (out_dir / f"{stem}.svg").write_text(
            density_svg(m, title=f"t = {t:g}   (tau = {cfg.tau:g})")
        )
        written += [f"{stem}.csv", f"{stem}.svg"]
        drift = abs(m.total_mass() - 1.0)
        checks.append(
            _summary_line(f"mass_conservation[t={t:g}]", drift <= MASS_TOL,
                          f"drift {drift:.2e}")
        )
        if k > 0:
            dec, comp = _decomposition_residuals(traj.steps[k - 1], D)
            for name, value in (("decomposition_residual", dec), ("complementarity", comp)):
                label = f"{name}[t={t:g}]"
                if hold_diags:
                    checks.append(_summary_line(label, value <= DIAG_TOL, f"{value:.2e}"))
                else:
                    checks.append(f"{label}: info ({value:.2e}, below default resolution)")

    diffs = np.diff(traj.energy_series)
    checks.insert(0, _summary_line(
        "energy_monotone", not diffs.size or float(diffs.max()) <= ENERGY_TOL,
        f"max increase {float(diffs.max()) if diffs.size else 0.0:.2e}",
    ))
    drop = 2.0 * (traj.energy_series[0] - traj.energy_series[-1])
    checks.insert(1, _summary_line(
        "squared_speed_bound", traj.sum_sq_increments <= drop + H1_SLACK,
        f"{traj.sum_sq_increments:.6f} <= {drop:.6f} + {H1_SLACK:g}",
    ))
    if dom.has_exit:
        ediffs = np.diff(traj.exit_series)
        checks.append(_summary_line(
            "exit_monotone", not ediffs.size or float(ediffs.min()) >= -1e-12,
            f"final exit mass {traj.exit_series[-1]:.6f}",
        ))
    for line in checks:
        echo(line)
    echo(f"wrote {out_dir}/: {', '.join(written)}")
    return 1 if any(": FAIL" in line for line in checks) else 0


def run_study(cfg, dry_run=False, echo=print):
    """Convergence sweep over the configured taus; prints the order line."""
    cfg.validate()
    if cfg.weight_kind != "radial" or cfg.half_angle != "auto":
        raise ConfigError(
            "studies compare against the radial corridor benchmark; "
            "they need weight_kind=radial with half_angle=auto",
            field="weight_kind",
        )
    if cfg.potential_table is not None:
        raise ConfigError(
            "studies need the distance potential", field="potential table"
        )
    # the sweep's own rules, first on the taus alone (the first tau is a
    # horizon every halving tau steps to), then with the study's T
    for T, field in ((cfg.taus[0], "taus"), (cfg.study_T, "study T")):
        try:
            _validate_tau_sweep(cfg.taus, T)
        except FeasibilityError as e:
            raise ConfigError(str(e), field=field) from e
    scenario = CorridorPreset(
        "study", cfg.a, cfg.R, cfg.rho0_value, cfg.taus[0], cfg.has_exit
    )
    if dry_run:
        echo("config ok (dry run, nothing executed)")
        return 0
    report = convergence_study(scenario, list(cfg.taus), cfg.study_T)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(str(out_dir / "sweep.csv"))
    for tau, eb, ew in zip(report.taus, report.err_b, report.err_w2):
        echo(f"tau={tau:g} err_b={eb:.6e} err_w2={ew:.6e}")
    echo(report.summary())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crowdflow1d",
        description="Congestion-constrained gradient flow in a 1D corridor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="integrate a scenario and plot density snapshots")
    study = sub.add_parser("study", help="sweep the time step and fit the convergence order")
    for p, horizon in ((run, "final time override"), (study, "sweep horizon override")):
        p.add_argument("--preset", choices=sorted(PRESETS), help="scenario preset")
        p.add_argument("--config", help="INI scenario file (overrides the preset)")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--T", type=float, dest="T", help=horizon)
        p.add_argument(
            "--dry-run", action="store_true", help="validate config, run nothing"
        )
    run.add_argument("--tau", type=float, help="time step override")
    run.add_argument("--snapshots", help="comma-separated snapshot times")
    return parser


def _assemble_config(args):
    cfg = None
    if args.preset:
        cfg = config_from_preset(args.preset)
    if args.config:
        cfg = load_config(args.config, base=cfg)
    if cfg is None:
        raise ConfigError("need --preset and/or --config", field="preset")
    updates = {}
    if args.out:
        updates["out_dir"] = args.out
    # each command reads its own section alone, so a key of the other's in
    # its file would be ignored: a run steps its [run] tau to its [run] T,
    # and a study sweeps its [study] taus to its [study] T, at sample and
    # cell counts of its own
    other = "study" if args.command == "run" else "run"
    ini = _read_ini(args.config) if args.config else None
    if ini is not None and ini.has_section(other) and ini.options(other):
        field = SCENARIO_KEYS[other][ini.options(other)[0]][2]
        raise ConfigError(f"a {args.command} reads no [{other}] key, got {field!r}; it "
                          f"reads [{args.command}]", field=field)
    if args.command == "study":
        # the horizon and snapshots are the run command's; a study has its own T
        updates["snapshots"] = ()
        updates["T"] = None
        if args.T is not None:
            updates["study_T"] = args.T
    else:
        if args.tau is not None:
            updates["tau"] = args.tau
        if args.T is not None:
            updates["T"] = args.T
        if args.snapshots:
            updates["snapshots"] = _parse_times(args.snapshots, "snapshots")
    return replace(cfg, **updates) if updates else cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble_config(args)
        if args.command == "run":
            return run_scenario(cfg, dry_run=args.dry_run)
        return run_study(cfg, dry_run=args.dry_run)
    except ConfigError as e:
        field = f" (field: {e.field})" if getattr(e, "field", None) else ""
        print(f"config error: {e}{field}", file=sys.stderr)
        return 2
    except CrowdflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
