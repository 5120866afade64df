"""crowdflow1d benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload drain --seed 1 --seconds 24 --trace 0

``--workload`` is one of drain, fill, study, campaign, or ``all`` (each
in turn).  With ``--trace 0`` the run reports the end-to-end metrics of
untraced iterations; with ``--trace 1`` it runs an untraced half and a
traced half of the window and reports the per-layer metrics plus the
tracing overhead.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a correctness gate fails and 2 when the program to measure is
missing.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = {False: 7, True: 2}
# every child of one workload run must have ended by then
RUN_BUDGET_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def probe_setup(name, work, env, deadline):
    """Seconds from spawning a fresh interpreter to the end of set-up.

    Returns ``(raw, calibrated)``: the wall time and the wall time scaled
    by the probe's own calibration loop, run right after set-up.
    """
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "setup", name, str(work)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    raw = float(words[1]) - t0
    return raw, raw * float(words[2])


def run_loop(name, work, env, seconds, traced, deadline):
    tag = "traced" if traced else "untraced"
    result = work / f"result_{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "loop", name, str(work),
           repr(seconds), "1" if traced else "0", str(result)]
    if traced:
        cmd.append(str(work / "spans.csv.gz"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{tag} worker timed out"
    if proc.returncode != 0 or not result.exists():
        return None, f"{tag} worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}"
    return json.loads(result.read_text()), None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, smoke):
    """Run one workload; returns the result record (metrics and gates)."""
    work = OUT / "work" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    generated = inputs.generate(name, seed, smoke)
    for fname, text in generated["files"].items():
        (work / fname).write_text(text)
    (work / "inputs.json").write_text(json.dumps(generated["params"]))
    env = child_env()
    deadline = time.monotonic() + RUN_BUDGET_S
    problems, probes = [], []
    if trace:
        loops = [run_loop(name, work, env, seconds / 2, False, deadline),
                 run_loop(name, work, env, seconds / 2, True, deadline)]
    else:
        try:
            probe_setup(name, work, env, deadline)  # fills the bytecode cache; not timed
            probes = [probe_setup(name, work, env, deadline)
                      for _ in range(SETUP_PROBES[smoke])]
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            problems.append(f"set-up probe: {e}")
        loops = [run_loop(name, work, env, seconds, False, deadline)]
    setup = [cal for _, cal in probes]
    problems += [err for _, err in loops if err]
    runs = [res for res, _ in loops if res]
    iters = [it for res in runs for it in res["iterations"]]
    attempted = sum(it["ops"] for it in iters) + sum(1 for _, err in loops if err)
    failed = sum(it["failed"] for it in iters) + sum(1 for _, err in loops if err)
    for it in iters:
        problems += it["messages"]
    ok = [it for it in iters if it["failed"] == 0]
    digests = {it["fingerprint"]["digest"] for it in iters}
    if len(digests) > 1:
        problems.append("trajectory fingerprints differ between iterations"
                        + (" (traced vs untraced)" if trace else ""))
    probe = runs[0].get("campaign_probe") if runs else None
    if probe:
        problems += probe["messages"]
        failed += bool(probe["messages"])
        attempted += 1

    if trace:
        untraced, traced = ([it for it in r["iterations"] if not it["failed"]] for r in runs) \
            if len(runs) == 2 else ([], [])
        metrics = {}
        for key in traced[0]["layers"] if traced else ():
            values = [it["layers"][key] for it in traced]
            if UNITS[key] == "count":
                if len(set(values)) > 1:
                    problems.append(f"counter {key} does not repeat: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = _median(values)
        if traced and untraced:
            metrics["trace.overhead_ratio"] = (
                _median([it["cal_wall_s"] for it in traced])
                / _median([it["cal_wall_s"] for it in untraced]) - 1.0)
    else:
        gaps = [it["ref_w2_gap"] for it in ok if it["ref_w2_gap"] is not None]
        metrics = {
            "cal_wall_s": _median([it["cal_wall_s"] for it in ok]),
            "cal_steps_per_s": _median([it["steps"] / it["cal_wall_s"] for it in ok]),
            "setup_s": _median(setup),
            "peak_rss_mb": runs[0]["peak_rss_mb"] if runs else None,
            "ref_w2_gap": probe["ref_w2_gap"] if probe else _median(gaps),
            "success_ratio": 1.0 - failed / attempted if attempted else None,
        }
    correct = failed == 0 and not problems and all(v is not None for v in metrics.values())
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "samples": {"iterations": len(ok), "setup_probes": len(setup)},
        # uncalibrated medians, for reading alongside the metrics
        "raw": {"wall_s": _median([it["wall_s"] for it in ok]),
                "steps_per_s": _median([it["steps"] / it["wall_s"] for it in ok]),
                "calibration_s": _median([it["calibration_s"] for it in ok]),
                "setup_s": _median([raw for raw, _ in probes])},
        "problems": problems[:20],
        "inputs": generated,
        "fingerprint": iters[0]["fingerprint"] if iters else None,
        "setup_s_samples": probes,
        "iterations": [{**{k: v for k, v in it.items() if k != "fingerprint"},
                        "digest": it["fingerprint"]["digest"]} for it in iters],
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "versions": runs[0]["versions"] if runs else {"python": platform.python_version()},
            "git_commit": git_commit(),
            "threads_per_process": 1,
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(rec):
    n = rec["samples"]["iterations"]
    print(f"== {rec['workload']} (seed {rec['seed']}, trace {rec['trace']}, "
          f"{n} iteration(s), {'correct' if rec['correct'] else 'FAILED'})")
    for key, m in rec["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:<42} {value:>14} {m['unit']}")
    raw = rec["raw"]
    if raw["wall_s"] is not None:
        print(f"  (uncalibrated: wall {raw['wall_s']:.6g} s, {raw['steps_per_s']:.6g} steps/s,"
              f" calibration loop {raw['calibration_s']:.4g} s"
              + (f", set-up {raw['setup_s']:.4g} s" if raw["setup_s"] is not None else "") + ")")
    for msg in rec["problems"]:
        print(f"  problem: {msg.strip().splitlines()[-1]}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs (self-tests)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "crowdflow1d" / "__init__.py").is_file():
        print(f"error: no crowdflow1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = inputs.NAMES if args.workload == "all" else (args.workload,)
    recs = [run_workload(n, args.seed, args.seconds, args.trace, args.smoke) for n in names]
    for rec in recs:
        print_record(rec)
    if len(recs) == 1:
        metrics = recs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in recs for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in recs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
