from pathlib import Path

import numpy as np
import pytest

from crowdflow1d import cli, harness
from crowdflow1d.cli import (
    ScenarioConfig,
    config_from_preset,
    density_svg,
    load_config,
    main,
    run_scenario,
)
from crowdflow1d.errors import ConfigError
from crowdflow1d.measures import Measure1D

REPO = Path(__file__).resolve().parents[1]


def test_shipped_config_matches_preset():
    cfg = load_config(str(REPO / "configs" / "fig4.ini"))
    assert cfg == config_from_preset("fig4")


def test_preset_half_angle_resolution():
    fig3 = config_from_preset("fig3")
    assert fig3.resolved_half_angle() == pytest.approx(1.0 / (0.4 * 100.0))
    fig4 = config_from_preset("fig4")
    assert fig4.resolved_half_angle() == pytest.approx(1.0 / (0.4 * 99.0))
    assert not fig3.has_exit and fig4.has_exit


def test_missing_required_key(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[domain]\na = 1.0\nhas_exit = yes\n[density]\nuniform = 0.4\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert "R" in str(err.value)
    assert main(["run", "--config", str(p), "--dry-run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_or_section(tmp_path):
    good = "[domain]\na = 1.0\nR = 4.0\nhas_exit = yes\n[density]\nuniform = 0.5\n"
    p = tmp_path / "extra_key.ini"
    p.write_text(good + "[run]\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert "bogus" in str(err.value)
    q = tmp_path / "extra_section.ini"
    q.write_text(good + "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(q))


def test_bad_values_report_their_field(tmp_path):
    p = tmp_path / "bad_bool.ini"
    p.write_text("[domain]\na = 1\nR = 4\nhas_exit = maybe\n[density]\nuniform = 0.5\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.field == "has_exit"


@pytest.mark.parametrize("command, flags, ini, field", [
    pytest.param("run", ["--tau", "nan"], "", "tau", id="tau-nan"),
    pytest.param("run", ["--tau", "inf"], "", "tau", id="tau-inf"),
    pytest.param("run", ["--tau", "-0.01"], "", "tau", id="tau-negative"),
    pytest.param("run", ["--T", "nan"], "", "T", id="T-nan"),
    pytest.param("run", ["--T", "inf"], "", "T", id="T-inf"),
    pytest.param("run", ["--snapshots", "0.5,nan"], "", "snapshots", id="snapshot-nan"),
    pytest.param("run", ["--tau", "1e-320"], "", "tau", id="tau-too-small-to-step"),
    pytest.param("run", ["--T", "1e308", "--tau", "1e-10"], "", "tau", id="steps-overflow"),
    pytest.param("run", ["--T", "1e-12"], "", "T", id="T-below-one-step"),
    pytest.param("run", ["--snapshots", "1e-12"], "", "snapshots",
                 id="snapshot-below-one-step"),
    pytest.param("run", [], "[run]\nn_samples = 1\n", "n_samples", id="n_samples-1"),
    pytest.param("run", [], "[run]\nn_cells = 0\n", "n_cells", id="n_cells-0"),
    pytest.param("run", [], "[run]\nn_samples = 100000000000000000000\n", "n_samples",
                 id="n_samples-unallocatable"),
    pytest.param("run", [], "[run]\nn_cells = 100000000000000000000\n", "n_cells",
                 id="n_cells-unallocatable"),
    pytest.param("study", ["--T", "nan"], "", "study T", id="study-T-nan"),
    pytest.param("study", [], "[study]\ntaus = 0.1 0.05 0.025 -0.0125\n", "taus",
                 id="taus-negative"),
    pytest.param("study", [], "[study]\ntaus = 0.1, 0.05, 0.025, 0.03\n", "taus",
                 id="taus-not-halving"),
    pytest.param("study", [], "[study]\ntaus = 0.1, 0.05, 0.025\n", "taus", id="taus-too-few"),
    pytest.param("study", ["--T", "1e-320"], "", "study T", id="study-T-below-one-step"),
    pytest.param("study", ["--T", "0.98"], "", "study T", id="study-T-misaligned"),
    pytest.param("study", [], "[run]\ntau = 0.3\n", "tau", id="study-run-tau"),
    pytest.param("study", [], "[run]\nn_samples = 128\n", "n_samples", id="study-run-n_samples"),
    pytest.param("study", [], "[run]\nn_cells = 64\n", "n_cells", id="study-run-n_cells"),
    pytest.param("study", [], "[run]\nT = 0.5\n", "T", id="study-run-T"),
    pytest.param("run", [], "[study]\ntaus = 0.1, 0.05, 0.025, 0.0125\n", "taus",
                 id="run-study-taus"),
    pytest.param("run", [], "[study]\nT = 0.5\n", "study T", id="run-study-T"),
    pytest.param("run", [], "[domain]\na = nan\n", "a", id="a-nan"),
    pytest.param("run", [], "[domain]\na = -1\n", "a", id="a-negative"),
    pytest.param("run", [], "[domain]\nR = inf\n", "R", id="R-inf"),
    pytest.param("run", [], "[domain]\nR = 1e300\n", "R", id="R-overflow"),
    pytest.param("run", [], "[domain]\nhalf_angle = nan\n", "half_angle",
                 id="half_angle-nan"),
    pytest.param("run", [], "[domain]\nweight_kind = flat\n[density]\ntable = 1 nan\n",
                 "density table", id="density-table-nan"),
    pytest.param("run", [], "[potential]\nkind = table\ntable = 1 0\n  5 nan\n  10 9\n",
                 "potential table", id="potential-table-nan"),
    pytest.param("run", [], "[potential]\nkind = table\ntable = 1 0\n  5 inf\n  10 9\n",
                 "potential table", id="potential-table-inf"),
    pytest.param("run", [], "[potential]\nkind = table\ntable = 1 0\n  5 4\n  5 6\n",
                 "potential table", id="potential-radii-repeat"),
    pytest.param("run", [], "[potential]\nkind = table\ntable = 1 0\n  10 -9\n",
                 "potential table", id="potential-not-minimal-at-door"),
    pytest.param("run", [], "[potential]\nkind = distance_to_exit\ntable = 1 0\n  10 90\n",
                 "kind", id="kind-contradicts-table"),
    pytest.param("run", [], "[potential]\nkind = table\n", "potential table",
                 id="kind-table-without-table"),
    # D'' reaches -111 at the kink, so the step cap 1/(4*111) = 2.25e-3 is below tau = 0.01
    pytest.param("run", [], "[potential]\nkind = table\ntable = 1 0\n  1.01 5\n  10 6\n",
                 "tau", id="tau-above-step-cap"),
    pytest.param("run", [], "tau = 0.01\n[run]\nT = 1\n", "section",
                 id="key-before-any-section"),
    pytest.param("run", [], "[run]\ntau = 0.01\nT = 1\nTau = 0.02\n", "tau",
                 id="duplicate-key"),
    pytest.param("run", [], "[run]\nT = 1\nT = 2\n", "T", id="duplicate-T"),
    pytest.param("run", [], "[domain]\nR = 4\nR = 5\n", "R", id="duplicate-R"),
    pytest.param("study", [], "[study]\nT = 0.1\nt = 0.2\n", "study T", id="duplicate-study-T"),
    pytest.param("run", [], "[run]\nbogus = 1\nBogus = 2\n", "bogus", id="duplicate-unknown-key"),
    pytest.param("run", [], "[run]\ntau = 0.01\n[domain]\na = 1\n[run]\nT = 1\n", "run",
                 id="duplicate-section"),
    pytest.param("run", [], "[domain]\na = 1\n[run]\njunk line here\n", "run",
                 id="line-without-equals"),
    pytest.param("run", [], b"\xff\xfe[run]\nT = 1\n", "config", id="not-utf-8"),
    *(pytest.param(command, [], ini, "uniform", id=f"{command}-uniform-{case}")
      for command in ("run", "study")
      for case, ini in (
          ("0", "[density]\nuniform = 0\n"),
          ("2", "[density]\nuniform = 2\n"),
          ("nan", "[density]\nuniform = nan\n"),
          ("negative", "[density]\nuniform = -0.5\n"),
          ("inf", "[density]\nuniform = inf\n"),
          # the start's mass is not 1: 0.5 * (10^2 - 1^2) * 0.4 = 19.8, and 2 * 0.4
          ("mass-radial", "[domain]\nhalf_angle = 0.5\n"),
          ("mass-flat", "[domain]\na = 0\nR = 2\nweight_kind = flat\n"
                        "[density]\nuniform = 0.4\n"),
      )),
])
def test_invalid_numbers_exit_2_naming_the_field(tmp_path, capsys, command, flags,
                                                 ini, field):
    p = tmp_path / "extra.ini"
    if isinstance(ini, bytes):
        p.write_bytes(ini)
    else:
        p.write_text(ini)
    argv = [command, "--preset", "fig4", "--config", str(p), *flags, "--dry-run"]
    assert main(argv) == 2
    assert f"(field: {field})" in capsys.readouterr().err


FLAT_TABLE = "[domain]\nweight_kind = flat\n[density]\ntable = "


@pytest.mark.parametrize("argv, ini, field, message", [
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], "[density]\ntable = 1 0.01\n",
                 "half_angle", "half_angle 'auto' needs a uniform rho0", id="auto-half-angle-table"),
    # a study sweeps the radial corridor from a uniform rho0 alone
    pytest.param(["study", "--preset", "fig4", "--config", "INI"], "[density]\ntable = 1 0.01\n",
                 "half_angle", "half_angle 'auto' needs a uniform rho0", id="study-density-table"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], FLAT_TABLE + "1 0.5\n  1 0.5\n",
                 "density table", "radii must increase", id="density-radii-repeat"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], FLAT_TABLE + "0 0.5\n",
                 "density table", "density table leaves [1.0, 10.0]", id="density-table-leaves"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], FLAT_TABLE + "1 2\n",
                 "density table", "values must lie in [0, 1]", id="density-value-above-1"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], FLAT_TABLE + "1 0.5\n",
                 "density table", "carries mass 4.5000000000", id="density-table-mass"),
    pytest.param(["run", "--preset", "fig4", "--T", "0.5", "--snapshots", "0.6", "--config", "INI"],
                 "", "snapshots", "snapshots extend past T", id="snapshot-past-T"),
    pytest.param(["run", "--preset", "fig4", "--T", "0.505", "--config", "INI"], "", "T",
                 "time 0.505 is not a multiple of tau=0.01", id="T-misaligned"),
    pytest.param(["run", "--preset", "fig4", "--snapshots", ",", "--config", "INI"], "",
                 "snapshots", "snapshots needs at least one value", id="snapshots-empty"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], "[density]\ntable =\n",
                 "density table", "density table is empty", id="density-table-empty"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"], "[potential]\ntable = 1 0\n",
                 "potential table", "needs at least two rows", id="potential-table-one-row"),
    pytest.param(["run", "--config", "INI"], None, "config", "config file not found",
                 id="config-not-found"),
    pytest.param(["run", "--preset", "fig4", "--config", "INI"],
                 "[density]\nuniform = 0.4\ntable = 1 0.5\n", "density",
                 "either 'uniform' or 'table', not both", id="density-uniform-and-table"),
    pytest.param(["run", "--config", "INI"], "[domain]\na = 1\nR = 10\nweight_kind = flat\n"
                 "has_exit = yes\n[run]\ntau = 0.01\nT = 1\n", "density",
                 "needs a [density] section", id="no-density"),
    pytest.param(["run"], "", "preset", "need --preset and/or --config", id="no-scenario"),
])
def test_every_config_check_exits_2_naming_its_field(tmp_path, capsys, argv, ini, field,
                                                     message):
    """Each check on a scenario exits 2 with its own message and field;
    ``ini`` None leaves the config file missing."""
    p = tmp_path / "case.ini"
    if ini is not None:
        p.write_text(ini)
    assert main([str(p) if a == "INI" else a for a in argv] + ["--dry-run"]) == 2
    err = capsys.readouterr().err
    assert message in err and err.endswith(f"(field: {field})\n"), err


@pytest.mark.parametrize("argv", [
    ["study", "--preset", "fig3", "--tau", "0.5"],
    ["study", "--preset", "fig3", "--snapshots", "7,8"],
    ["study", "--preset", "fig3", "--seed", "9"],
    ["run", "--preset", "fig4", "--seed", "1"],
], ids=["study-tau", "study-snapshots", "study-seed", "run-seed"])
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dry-run"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_potential_table_without_kind_is_the_table(tmp_path):
    p = tmp_path / "table.ini"
    p.write_text("[potential]\ntable = 1 0\n  10 90\n")
    cfg = load_config(str(p), base=config_from_preset("fig4"))
    assert cfg.potential().fn(5.0) == pytest.approx(40.0)
    assert config_from_preset("fig4").potential().fn(5.0) == pytest.approx(4.0)


def test_dry_run_touches_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["run", "--preset", "fig4", "--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    assert "dry run" in capsys.readouterr().out


@pytest.mark.parametrize("argv, under", [
    (["run", "--preset", "fig4", "--T", "0.01", "--snapshots", "0.01"], ""),
    (["study", "--preset", "fig4"], "sub"),
    (["run", "--preset", "fig4", "--dry-run"], "sub/deeper"),
], ids=["run", "study", "dry-run"])
def test_out_that_names_a_file_exits_2_before_any_step(tmp_path, capsys, monkeypatch,
                                                       argv, under):
    def never(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(cli, "run_flow", never)
    monkeypatch.setattr(harness, "run_flow", never)
    afile = tmp_path / "afile"
    afile.touch()
    assert main([*argv, "--out", str(afile / under)]) == 2
    err = capsys.readouterr().err
    assert "(field: out)" in err and f"{afile} is not a directory" in err
    assert afile.read_bytes() == b"" and sorted(tmp_path.iterdir()) == [afile]


def test_solver_failure_exits_1_naming_its_step(tmp_path, capsys, third_step_fails):
    argv = ["run", "--preset", "fig4", "--T", "0.5", "--snapshots", "0.5",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: step 2: projection certificate failed inside a block\n", err


def test_run_needs_some_horizon():
    cfg = config_from_preset("fig4")
    cfg = type(cfg)(**{**cfg.__dict__, "T": None, "snapshots": ()})
    with pytest.raises(ConfigError):
        run_scenario(cfg, echo=lambda *a: None)


def test_short_run_writes_and_passes(tmp_path, capsys):
    code = main([
        "run", "--preset", "fig4", "--out", str(tmp_path / "o"),
        "--tau", "0.05", "--T", "0.2", "--snapshots", "0.1,0.2",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    o = tmp_path / "o"
    for name in ("trajectory.csv", "snapshot_0.1.csv", "snapshot_0.1.svg",
                 "snapshot_0.2.csv", "snapshot_0.2.svg"):
        assert (o / name).exists(), name
    assert "energy_monotone: pass" in out
    assert "squared_speed_bound: pass" in out
    assert "exit_monotone: pass" in out
    assert ": FAIL" not in out

    cfg = config_from_preset("fig4")
    m = Measure1D.from_csv(str(o / "snapshot_0.2.csv"), cfg.domain())
    assert m.total_mass() == pytest.approx(1.0, abs=1e-9)
    svg = (o / "snapshot_0.2.svg").read_text()
    assert svg.startswith("<svg") and "exit mass" in svg


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = config_from_preset("fig4")
    base = {**cfg.__dict__, "tau": 0.1, "T": 0.3, "snapshots": (0.3,),
            "n_samples": 1024, "n_cells": 512}
    quiet = lambda *a, **k: None
    c1 = ScenarioConfig(**{**base, "out_dir": str(tmp_path / "a")})
    c2 = ScenarioConfig(**{**base, "out_dir": str(tmp_path / "b")})
    assert run_scenario(c1, echo=quiet) == run_scenario(c2, echo=quiet)
    for name in ("trajectory.csv", "snapshot_0.3.csv", "snapshot_0.3.svg"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left == right, name


def test_study_on_exact_scheme(tmp_path, capsys):
    code = main(["study", "--preset", "fig3", "--out", str(tmp_path / "s"),
                 "--T", "1.0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "order=n/a r2=n/a" in out
    sweep = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "tau,err_b,err_w2"
    assert len(sweep) == len(config_from_preset("fig3").taus) + 1


def test_study_rejects_short_sweeps(tmp_path, capsys):
    p = tmp_path / "short.ini"
    p.write_text("[study]\ntaus = 0.1\n")
    code = main(["study", "--preset", "fig3", "--config", str(p)])
    assert code == 2
    assert "field: taus" in capsys.readouterr().err


def test_study_rejects_nonbenchmark_scenarios():
    cfg = config_from_preset("fig4")
    tabled = ScenarioConfig(**{
        **cfg.__dict__,
        "potential_table": ((1.0, 0.0), (10.0, 9.0)),
    })
    from crowdflow1d.cli import run_study

    with pytest.raises(ConfigError):
        run_study(tabled, echo=lambda *a: None)


def test_svg_renders_the_cap_line():
    cfg = config_from_preset("fig4")
    m = cfg.initial(n_cells=64)
    svg = density_svg(m, title="probe")
    assert svg.count("<path") >= 1
    assert "stroke-dasharray" in svg  # the rho = 1 capacity line
    assert "probe" in svg
    # the outline's points of a ramp against the per-point axis maps
    m = Measure1D(m.domain, m.edges, np.linspace(0.0, 1.0, 64))
    svg = density_svg(m)
    dom = m.domain
    plot_w = cli.SVG_W - cli.MARGIN_L - cli.MARGIN_R
    plot_h = cli.SVG_H - cli.MARGIN_T - cli.MARGIN_B
    path = svg.split('<path d="')[1].split('"')[0].split()
    assert len(path) == 2 * m.rho.size
    for i in (0, 1, 2, 63, 64, 127):
        r, rho = m.edges[(i + 1) // 2], m.rho[i // 2]
        x = cli.MARGIN_L + (r - dom.a) / (dom.R - dom.a) * plot_w
        y = cli.MARGIN_T + (cli.RHO_TOP - rho) / cli.RHO_TOP * plot_h
        assert path[i] == f"{'M' if i == 0 else 'L'}{x:.2f},{y:.2f}"


def test_step_table_density_loads_exactly(tmp_path):
    p = tmp_path / "steps.ini"
    p.write_text(
        "[domain]\na = 1.0\nR = 4.0\nweight_kind = flat\nhas_exit = yes\n"
        "[density]\ntable = 1.0 0.5\n    2.0 0.25\n    3.0 0.25\n"
        "[run]\ntau = 0.05\nt = 0.1\nn_samples = 256\nn_cells = 120\n"
    )
    cfg = load_config(str(p))
    m = cfg.initial()
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
    mids = 0.5 * (m.edges[:-1] + m.edges[1:])
    assert np.allclose(m.rho[mids < 2.0], 0.5)
    assert np.allclose(m.rho[mids > 2.0], 0.25)
