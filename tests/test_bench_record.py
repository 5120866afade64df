import importlib.util
import json
import os
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", REPO / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def _record(directory, seed, commit, cal_wall_s, mtime, digest="d0"):
    """One untraced study record as ``perfbench/run.py`` writes it."""
    values = {"cal_wall_s": cal_wall_s, "cal_steps_per_s": 31.0 / cal_wall_s, "setup_s": 0.5,
              "peak_rss_mb": 90.0, "ref_w2_gap": 2.5e-4, "success_ratio": 1.0}
    rec = {
        "workload": "study", "seed": seed, "seconds": 24.0, "trace": 0, "correct": True,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
        "fingerprint": {"digest": digest, "fields_digest": "f0"},
        "environment": {"nproc": 2, "cpu_model": "cpu", "versions": {"python": "3"},
                        "git_commit": commit, "threads_per_process": 1},
    }
    path = directory / f"study-seed{seed}-trace0.json"
    path.write_text(json.dumps(rec))
    os.utime(path, (mtime, mtime))


def test_pairs_give_medians_quartiles_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    # seeds 2..6 are pairs; the change is faster in four and ties in one
    parent_s = [0.30, 0.34, 0.32, 0.36, 0.31]
    change_s = [0.20, 0.25, 0.32, 0.21, 0.22]
    for k, (seed, p, c) in enumerate(zip(range(2, 7), parent_s, change_s)):
        # the side that ran first wrote its record first
        parent_first = k % 2 == 0
        _record(parent, seed, "aaa", p, 1000 + 10 * k + (not parent_first))
        _record(change, seed, "bbb", c, 1000 + 10 * k + parent_first)
    # seed 1 is the fingerprint run: not a pair
    _record(parent, 1, "aaa", 9.0, 900)
    _record(change, 1, "bbb", 9.0, 901)
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--title", "t",
                              "--claim", "study:cal_wall_s", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert (rec["parent_commit"], rec["change_commit"]) == ("aaa", "bbb")
    assert rec["claim"] == {"workload": "study", "metric": "cal_wall_s"}
    study = rec["workloads"]["study"]
    assert study["seeds"] == [2, 3, 4, 5, 6]
    assert study["first_side"] == ["parent", "change", "parent", "change", "parent"]
    assert study["all_correct"]
    assert study["seed1_fingerprint"] == {"digest": "d0", "fields_digest": "f0",
                                          "identical": True}
    wall = study["metrics"]["cal_wall_s"]
    assert wall["parent"]["runs"] == parent_s and wall["change"]["runs"] == change_s
    assert wall["parent"]["median"] == 0.32 and wall["change"]["median"] == 0.22
    # inclusive quartiles of five runs are the 2nd and 4th order statistics
    assert wall["parent"]["q1"] == 0.31 and wall["parent"]["q3"] == 0.34
    assert wall["change"]["q1"] == 0.21 and wall["change"]["q3"] == 0.25
    assert (wall["wins"], wall["losses"], wall["pairs"]) == (4, 0, 5)
    assert wall["median_change"] == pytest.approx(-0.1 / 0.32)
    steps = study["metrics"]["cal_steps_per_s"]
    assert (steps["wins"], steps["losses"], steps["better"]) == (4, 0, "higher")
    assert study["metrics"]["setup_s"]["wins"] == 0
    assert study["metrics"]["setup_s"]["median_change"] == 0.0


def test_records_from_two_commits_on_one_side_are_refused(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, commit in ((2, "aaa"), (3, "ccc")):
        _record(parent, seed, commit, 0.3, 1000 + seed)
        _record(change, seed, "bbb", 0.2, 1000 + seed)
    with pytest.raises(ValueError, match="2 commits"):
        bench_record.main([str(parent), str(change), "--title", "t",
                           "--claim", "study:cal_wall_s", "--out", str(tmp_path / "b.json")])
