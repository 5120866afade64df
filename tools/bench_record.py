"""Summarize paired benchmark records into one committed ``BENCH_<pr>.json``.

    python3 tools/bench_record.py PARENT_RESULTS CHANGE_RESULTS \\
        --title "one-line title of the change" --claim study:cal_wall_s --out BENCH_10.json

``PARENT_RESULTS`` and ``CHANGE_RESULTS`` are the ``.perfbench_out/results``
directories of two clean checkouts, the parent commit and the change.
Each is filled by ``python3 perfbench/run.py --workload <w> --seed <s>
--trace 0``, run back to back on both sides for each seed with the side
that runs first alternating.  A workload and seed recorded on both sides
make a pair, except seed 1, which runs once per side for the trajectory
fingerprint only.  Which side ran first is read from the records'
modification times.

For every end-to-end metric of ``BENCHMARK.json`` and every workload the
output gives each side's runs, median and quartiles
(``statistics.quantiles(method='inclusive')``), the pairs the change won
and lost (ties count for neither side) and the relative change of the
median.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT_SEED = 1
METHOD = (
    "python3 perfbench/run.py --workload <w> --seed <s> --trace 0 ({seconds:g} s window) "
    "in two clean checkouts, parent and change run back to back for each seed, "
    "alternating which runs first; quartiles by statistics.quantiles(method='inclusive'); "
    "a win is a pair where the change reads better, ties count for neither side; "
    "seed 1 runs once per side, for the fingerprint only"
)


def load(results):
    """Untraced records of one side: ``{(workload, seed): (record, mtime)}``."""
    found = {}
    for path in sorted(Path(results).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        found[rec["workload"], rec["seed"]] = (rec, path.stat().st_mtime)
    return found


def spread(runs):
    """Median and quartiles of the runs of one side."""
    if len(runs) == 1:
        q1 = q3 = runs[0]
    else:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(metric, parent_runs, change_runs):
    """One metric of one workload over its pairs, in run order."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    gains = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    parent, change = spread(parent_runs), spread(change_runs)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "wins": sum(g > 0 for g in gains),
        "losses": sum(g < 0 for g in gains),
        "pairs": len(gains),
        "median_change": ((change["median"] - parent["median"]) / parent["median"]
                          if parent["median"] else None),
    }


def summarize(parent, change, spec, title, claim):
    """The ``BENCH_*.json`` record of the pairs in two loaded sides."""
    order = [claim[0]] + [w["name"] for w in spec["workloads"] if w["name"] != claim[0]]
    both = parent.keys() & change.keys()
    workloads, commits, host = {}, {"parent": set(), "change": set()}, None
    for name in order:
        seeds = sorted(s for w, s in both if w == name and s != FINGERPRINT_SEED)
        if not seeds:
            continue
        timed = [(parent[name, s], change[name, s]) for s in seeds]
        records = [(p, c) for (p, _), (c, _) in timed]
        entry = {"seeds": seeds,
                 "first_side": ["parent" if pt <= ct else "change" for (_, pt), (_, ct) in timed]}
        if (name, FINGERPRINT_SEED) in both:
            p, c = parent[name, FINGERPRINT_SEED][0], change[name, FINGERPRINT_SEED][0]
            prints = [(r["fingerprint"]["digest"], r["fingerprint"]["fields_digest"])
                      for r in (p, c)]
            entry["seed1_fingerprint"] = {"digest": prints[1][0], "fields_digest": prints[1][1],
                                          "identical": prints[0] == prints[1]}
            records.append((p, c))
        entry["all_correct"] = all(p["correct"] and c["correct"] for p, c in records)
        entry["metrics"] = {
            m["name"]: compare(m, *([rec["metrics"][m["name"]]["value"] for rec in side]
                                    for side in zip(*records[: len(seeds)])))
            for m in spec["end_to_end"]
        }
        for p, c in records:
            commits["parent"].add(p["environment"]["git_commit"])
            commits["change"].add(c["environment"]["git_commit"])
            host = {k: c["environment"][k]
                    for k in ("nproc", "cpu_model", "versions", "threads_per_process")}
        workloads[name] = entry
    for side, found in commits.items():
        if len(found) > 1:
            raise ValueError(f"the {side} records come from {len(found)} commits: {sorted(found)}")
    seconds = {rec["seconds"] for side in (parent, change) for rec, _ in side.values()}
    return {
        "change": title,
        "claim": {"workload": claim[0], "metric": claim[1]},
        "parent_commit": min(commits["parent"], default=None),
        "change_commit": min(commits["change"], default=None),
        "host": host,
        "method": METHOD.format(seconds=max(seconds, default=0)),
        "workloads": workloads,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="results directory of the parent checkout")
    p.add_argument("change", help="results directory of the change checkout")
    p.add_argument("--title", required=True, help="one-line title of the change")
    p.add_argument("--claim", required=True, help="claimed workload:metric, e.g. study:cal_wall_s")
    p.add_argument("--out", required=True, help="BENCH_<pr>.json to write")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = tuple(args.claim.split(":"))
    if len(claim) != 2:
        p.error("--claim takes workload:metric")
    record = summarize(load(args.parent), load(args.change), spec, args.title, claim)
    if not record["workloads"]:
        p.error("no workload has records on both sides")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
