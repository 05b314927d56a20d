"""Tests of the benchmark itself: smoke runs, failure accounting, traced self time.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.WORKLOADS)
# the reference field each corruption test changes
CORRUPT = {
    "exact_phase": "q_value",
    "dense_cut": "value",
    "heuristic_audit": "edges",
    "concentration": "edges",
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.load_reference()) == WORKLOADS
    for workload, units in run.WORKLOADS.items():
        assert sorted(run.load_reference()[workload]) == sorted(u["id"] for u in units)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failed_trials(workload):
    res, _ = run.run_workload(workload, seed=1, seconds=0.001, trace=False, units=1)
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert res["metrics"]["good_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_is_a_failed_trial(workload):
    reference = copy.deepcopy(run.load_reference())
    for trials in reference[workload].values():
        first = trials[min(trials)]
        first[CORRUPT[workload]] += 1
    res, _ = run.run_workload(workload, seed=1, seconds=0.001, trace=False,
                              reference=reference, units=1)
    assert res["failed"] == 1 and not res["correct"]
    assert res["metrics"]["good_frac"]["value"] == 1.0 - 1.0 / res["attempted"]


def test_checks_reject_bad_outputs():
    assert not run.trial_ok("heuristic_audit", {"edges": 9, "tfree_value": 3, "q_value": 4},
                            {"edges": 9})
    assert not run.trial_ok("dense_cut", {"edges": 9, "value": 4, "optimal": True, "crossing": 3},
                            {"edges": 9, "value": 4})
    phase = {"edges": 9, "q_value": 4, "tfree_value": 5, "four_partite": "false"}
    assert not run.trial_ok("exact_phase", dict(phase, certified=False), phase)
    assert not run.trial_ok("concentration", {"skip": True}, {"edges": 9})
    assert not run.trial_ok("exact_phase", None, phase)
    # the documented C08 row failing in both is not a failure
    flags = ["false", "true", "true", "true", "true"]
    assert run.trial_ok("concentration", {"edges": 9, "flags": flags}, {"edges": 9, "flags": flags})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_traced_wall_time(workload, tmp_path):
    unit = run.WORKLOADS[workload][0]
    r = run.run_unit(workload, unit, True, tmp_path,
                     run.load_reference()[workload][unit["id"]], 170.0)
    assert not r.error and r.good == r.attempted
    totals, _, _ = run.span_totals([r])
    assert all(t["self_s"] >= 0 for t in totals.values())
    assert 0 < sum(t["self_s"] for t in totals.values()) <= r.trial_s
    metrics = run.per_layer(workload, [r], [r])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.main_share"][0] >= 0.7
