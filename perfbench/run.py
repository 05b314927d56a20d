"""mantelab benchmark: certified trials per minute on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact_phase --seed 1 --seconds 20 --trace 0

Each workload is a recorded pool of units.  A unit is one fresh interpreter
(``worker.py``) that imports mantelab from ``src``, loads its config or host
parameters, and runs a few trials through the public entry points:
``mantelab.cli.main`` for the experiment kinds, ``sample_gknp`` plus
``max_cut4_exact`` for the dense-cut hosts.  Every run covers whole passes
over the pool, in an order drawn from ``--seed``, as many passes as fit
``--seconds`` to the nearest pass (at least one).  Whole passes keep the work
of a run fixed: trial cost differs up to sixfold between hosts of one cell,
so a partial pass would measure which hosts it drew, not the program.  The
run pins itself and its units to one CPU and times a fixed pure-Python loop
between units; trial and set-up times are scaled by that probe to a
reference speed, because the speed of the CPU drifts by up to a fifth over
minutes.

Every trial is checked against ``reference.json``, recorded at the commit
that added this benchmark; a trial that is skipped, crashes, is not
certified where the workload needs it, or disagrees with the check counts as
failed.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same passes untraced and then traced and reports
per-layer self time and work counts.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_tmp"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
LAST_START_S = 120.0  # no unit starts after this, so the last one can finish
PROBE_S = 0.25  # length of the speed probe run between units
PROBE_REF = 2500.0  # probe rounds/s of the reference speed that times are scaled to

CONC_ROWS = (
    "triple_codegree", "pair_codegree", "pair_common_degree",
    "vertex_degree", "crossing_degree",
)


def _cli_units(command: str, config: dict, masters) -> list[dict]:
    return [
        {"id": str(m), "mode": "cli", "command": command, "config": config, "master": m}
        for m in masters
    ]


# The pools.  Each unit runs the same config under its own master seed.
WORKLOADS = {
    "exact_phase": _cli_units(
        "phase",
        {"kind": "phase-sweep", "n": [9], "k": 4, "p": {"absolute": [0.3, 0.4]},
         "trials": 3, "tier": "exact", "budget": {"max_nodes": None, "max_seconds": None}},
        range(1, 9),
    ),
    # The p=1.0 host is the complete hypergraph for every seed, so it is in
    # the pool once.
    "dense_cut": [
        {"id": f"{m}-{p}", "mode": "cut4", "n": 11, "p": p, "master": m, "index": i,
         "key": f"n=11 p={p} trial={m}"}
        for m, p, i in ((1, 0.7, 0), (1, 0.85, 1), (1, 1.0, 2), (2, 0.7, 0), (2, 0.85, 1))
    ],
    "heuristic_audit": _cli_units(
        "audit",
        {"kind": "audit", "n": [16, 20], "k": 4, "p": {"absolute": [0.3]},
         "trials": 1, "tier": "heuristic", "restarts": 4},
        range(1, 5),
    ),
    "concentration": _cli_units(
        "concentration",
        {"kind": "concentration", "n": [64], "k": 4, "p": {"absolute": [0.5]},
         "trials": 4, "eps": 0.25},
        range(1, 5),
    ),
}

SCANS = ("motifs.count_T", "motifs.t_copy_triples", "motifs.find_T")
AUDIT = ("proplab.defect_audit", "proplab.decomposition", "proplab.low_pairs",
         "proplab.low_pair_cut_gap", "proplab.relabel_for_largest_defect")

# The layer that carries each workload's load in the traced run.
MAIN_LOAD = {
    "exact_phase": ("solvers.max_tfree_exact",),
    "dense_cut": ("solvers.max_cut4_exact",),
    "heuristic_audit": SCANS + ("solvers.max_tfree_repair",),
    "concentration": ("randgen.sample_gknp", "hypergraph.index",
                      "proplab.concentration_report"),
}


# ---------------------------------------------------------------------------
# outputs and checks


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _key(row) -> str:
    return f"n={row['n']} p={row['p']} trial={row['trial']}"


def observe(workload: str, udir: Path, result: dict) -> dict[str, dict]:
    """Per-trial observations of one finished unit, keyed like the reference."""
    out = udir / "out"
    if workload == "dense_cut":
        return {t["key"]: t for t in result["trials"]}
    if workload == "heuristic_audit":
        doc = json.loads((out / "run.json").read_text())
        return {
            _key(t): {"edges": t["edges"], "tfree_value": t["tfree_value"], "q_value": t["q_value"]}
            for t in doc["trials"]
        }
    obs = {}
    for row in _csv_rows(out / "run.csv"):
        if row["row_type"] == "skip":
            obs[_key(row)] = {"skip": True}
        elif row["row_type"] == "trial" and workload == "exact_phase":
            obs[_key(row)] = {
                "edges": int(row["edges"]),
                "q_value": int(row["q_value"]),
                "tfree_value": int(row["tfree_value"]),
                "four_partite": row["four_partite"],
                "certified": row["q_optimal"] == "true" and row["tfree_optimal"] == "true",
            }
        elif row["row_type"] == "trial":
            obs[_key(row)] = {"edges": int(row["edges"]), "flags": [row[r] for r in CONC_ROWS]}
    return obs


def trial_ok(workload: str, seen: dict | None, ref: dict) -> bool:
    """A trial is good when it ran, is certified where needed, and passes its check."""
    if seen is None or seen.get("skip"):
        return False
    if workload == "exact_phase":
        return seen["certified"] and all(
            seen[f] == ref[f] for f in ("edges", "q_value", "tfree_value", "four_partite")
        )
    if workload == "dense_cut":
        return (seen["optimal"] and seen["edges"] == ref["edges"]
                and seen["value"] == ref["value"] and seen["crossing"] == seen["value"])
    if workload == "heuristic_audit":
        # repair is seeded with the same local cut, so it may improve freely
        return seen["edges"] == ref["edges"] and seen["tfree_value"] >= seen["q_value"]
    # triple_codegree fails in every trial by design (README, C08); it is
    # compared like the other flags, never counted as a failure of its own
    return seen["edges"] == ref["edges"] and seen["flags"] == ref["flags"]


# ---------------------------------------------------------------------------
# running units


@dataclass
class UnitRun:
    unit: dict
    traced: bool
    setup_s: float = float("nan")
    trial_s: float = 0.0
    maxrss_mb: float = float("nan")
    attempted: int = 0
    good: int = 0
    output_bytes: int = 0
    speed: float = 1.0  # machine speed around this unit, relative to PROBE_REF
    seen: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    error: str = ""


def run_unit(workload: str, unit: dict, traced: bool, tmp: Path, expected: dict,
             timeout: float) -> UnitRun:
    """Run one unit in a fresh interpreter and check its trials."""
    udir = Path(tempfile.mkdtemp(dir=tmp))
    (udir / "out").mkdir()
    spec = dict(unit, trace=traced, out=str(udir / "out" / "run"))
    if unit["mode"] == "cli":
        spec["config"] = str(udir / "config.json")
        (udir / "config.json").write_text(json.dumps(unit["config"]))
    (udir / "spec.json").write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "MANTELAB_THREADS"}
    res = UnitRun(unit, traced, attempted=len(expected))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(udir)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        res.error = f"unit {unit['id']} timed out after {timeout:.0f} s"
        return res
    result_path = udir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        res.error = f"unit {unit['id']} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return res
    result = json.loads(result_path.read_text())
    res.setup_s = result["setup_end"] - t0
    res.trial_s = result["trial_s"]
    res.maxrss_mb = result["maxrss_kb"] / 1024.0
    res.spans = result["spans"]
    res.output_bytes = sum(p.stat().st_size for p in (udir / "out").iterdir())
    if result["status"] != 0:
        res.error = f"unit {unit['id']} returned status {result['status']}"
        return res
    try:
        res.seen = observe(workload, udir, result)
    except (OSError, ValueError, KeyError) as exc:
        res.error = f"unit {unit['id']} output unreadable: {exc!r}"
        return res
    res.good = sum(trial_ok(workload, res.seen.get(k), ref) for k, ref in expected.items())
    return res


def probe_rate() -> float:
    """Rounds per second of a fixed pure-Python loop: the machine's speed now."""
    rounds = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < PROBE_S:
        acc = 0
        for i in range(5000):
            acc += i * i % 7
        rounds += 1
    return rounds / elapsed


class Runner:
    """Runs passes over one workload's pool within the run's time limit."""

    def __init__(self, workload: str, order: list[dict], reference: dict, tmp: Path):
        self.workload = workload
        self.order = order
        self.reference = reference
        self.tmp = tmp
        self.start = time.monotonic()
        self.runs: list[UnitRun] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def one_pass(self, traced: bool) -> None:
        before = probe_rate()
        for unit in self.order:
            if self.elapsed() > LAST_START_S:
                break
            r = run_unit(self.workload, unit, traced, self.tmp,
                         self.reference[unit["id"]], RUN_LIMIT_S - self.elapsed())
            after = probe_rate()
            r.speed = (before + after) / (2 * PROBE_REF)
            before = after
            if r.error:
                print(r.error, file=sys.stderr)
            self.runs.append(r)

    def passes(self, seconds: float, traced: bool) -> int:
        """Whole passes, as many as fit ``seconds`` to the nearest pass."""
        t0 = time.monotonic()
        self.one_pass(traced)
        n = max(1, round(seconds / (time.monotonic() - t0)))
        for _ in range(n - 1):
            self.one_pass(traced)
        return n


# ---------------------------------------------------------------------------
# metrics


def trials_per_min(runs: list[UnitRun], scaled: bool = True) -> float:
    """Good trials per minute of trial wall time, at the reference speed if scaled."""
    wall = sum(r.trial_s * (r.speed if scaled else 1.0) for r in runs)
    return 60.0 * sum(r.good for r in runs) / wall if wall > 0 else 0.0


def end_to_end(runs: list[UnitRun]) -> dict:
    ok = [r for r in runs if not r.error]
    attempted = sum(r.attempted for r in runs)
    return {
        "setup_s": (statistics.median(r.setup_s * r.speed for r in ok) if ok else 0.0, "s"),
        "trials_per_min": (trials_per_min(runs), "1/min"),
        "good_frac": (sum(r.good for r in runs) / attempted, "fraction"),
        "peak_rss_mb": (max((r.maxrss_mb for r in ok), default=0.0), "MB"),
    }


def span_totals(runs: list[UnitRun]) -> tuple[dict, int, int]:
    """Per span name: calls, total and self seconds, and summed counts.

    Also returns the number of copy scans made inside a copy-free solver and
    the number of repairs that beat the local cut of the same host.
    """
    tot: dict[str, dict] = {}
    nested_scans = 0
    beats = 0
    for r in runs:
        spans = r.spans
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        pending: dict[int, int] = {}  # host id -> repair value awaiting its local cut
        for i, (name, parent, start, end, counts) in enumerate(spans):
            t = tot.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_s[i]
            for key, value in (counts or {}).items():
                if key != "host":
                    t[key] = t.get(key, 0) + value
            if name in SCANS and parent >= 0 and spans[parent][0] in (
                "solvers.max_tfree_exact", "solvers.max_tfree_repair"
            ):
                nested_scans += 1
            if name == "solvers.max_tfree_repair":
                pending[counts["host"]] = counts["value"]
            elif name == "solvers.max_cut4_local" and counts["host"] in pending:
                beats += pending.pop(counts["host"]) > counts["value"]
    return tot, nested_scans, beats


def per_layer(workload: str, plain: list[UnitRun], traced: list[UnitRun]) -> dict:
    tot, nested_scans, beats = span_totals(traced)
    trials = sum(r.attempted for r in traced) or 1
    wall = sum(r.trial_s for r in traced)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name, key="s"):
        return tot.get(name, zero).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "randgen.sample_gknp.s": (get("randgen.sample_gknp") / trials, "s"),
        "randgen.sample_gknp.us_per_edge": (
            1e6 * ratio(get("randgen.sample_gknp"), get("randgen.sample_gknp", "edges")), "us/edge"),
        "hypergraph.index.s": (get("hypergraph.index") / trials, "s"),
        "motifs.scan.s": (sum(get(n, "self_s") for n in SCANS) / trials, "s"),
        "motifs.copies": (get("motifs.t_copy_triples", "copies") / trials, "count"),
        "motifs.scans_per_solve": (ratio(
            nested_scans,
            get("solvers.max_tfree_exact", "calls") + get("solvers.max_tfree_repair", "calls"),
        ), "scans/solve"),
    }
    for solver in ("max_tfree_exact", "max_cut4_exact"):
        name = f"solvers.{solver}"
        out[f"{name}.self_s"] = (get(name, "self_s") / trials, "s")
        out[f"{name}.nodes"] = (get(name, "nodes") / trials, "count")
        out[f"{name}.us_per_node"] = (1e6 * ratio(get(name, "self_s"), get(name, "nodes")), "us/node")
        out[f"{name}.certified_frac"] = (ratio(get(name, "certified"), get(name, "calls")), "fraction")
    out.update({
        "solvers.max_tfree_repair.self_s": (get("solvers.max_tfree_repair", "self_s") / trials, "s"),
        "solvers.max_tfree_repair.beats_cut_frac": (
            ratio(beats, get("solvers.max_tfree_repair", "calls")), "fraction"),
        "solvers.max_cut4_local.s": (get("solvers.max_cut4_local") / trials, "s"),
        "solvers.max_cut4_local.moves": (get("solvers.max_cut4_local", "moves") / trials, "count"),
        "proplab.concentration_report.s": (get("proplab.concentration_report") / trials, "s"),
        "proplab.concentration_report.us_per_edge": (1e6 * ratio(
            get("proplab.concentration_report"), get("proplab.concentration_report", "edges"),
        ), "us/edge"),
        "proplab.audit.s": (sum(get(n, "self_s") for n in AUDIT) / trials, "s"),
        "proplab.decomposition.calls_per_trial": (
            get("proplab.decomposition", "calls") / trials, "calls/trial"),
        "proplab.low_pairs.calls_per_trial": (get("proplab.low_pairs", "calls") / trials, "calls/trial"),
        "experiments.self_s": (get("experiments.run_experiment", "self_s") / trials, "s"),
        "experiments.output_bytes": (sum(r.output_bytes for r in traced) / trials, "bytes"),
        "cli.self_s": (get("cli.main", "self_s") / trials, "s"),
        "trace.main_share": (ratio(
            sum(get(n, "self_s") for n in MAIN_LOAD[workload]), wall), "fraction"),
        "trace.overhead_frac": (
            1.0 - ratio(trials_per_min(traced), trials_per_min(plain)), "fraction"),
    })
    return out


# ---------------------------------------------------------------------------
# entry point


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None = None, units: int | None = None,
                 ) -> tuple[dict, list[UnitRun]]:
    """Run one workload; return the result object the benchmark prints, and the units run.

    ``units`` cuts the pool to its first units in seed order (smoke runs).
    """
    reference = (reference or load_reference())[workload]
    order = random.Random(seed).sample(WORKLOADS[workload], len(WORKLOADS[workload]))
    order = order[:units] if units else order
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        runner = Runner(workload, order, reference, tmp)
        if trace:
            n = runner.passes(seconds / 2, traced=False)
            plain = list(runner.runs)
            for _ in range(n):
                runner.one_pass(traced=True)
            metrics = per_layer(workload, plain, runner.runs[len(plain):])
        else:
            runner.passes(seconds, traced=False)
            metrics = end_to_end(runner.runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    attempted = sum(r.attempted for r in runner.runs)
    failed = attempted - sum(r.good for r in runner.runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, runner.runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running unit is killed and waited for and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the run and its units share one CPU, so the speed probe measures the
    # CPU the trials run on (the two CPUs of a shared host drift apart)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "mantelab" / "__init__.py").is_file():
        print(f"error: no mantelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result, runs = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in runs if not r.traced]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} units={len(runs)}")
    print(f"machine speed = {statistics.median(r.speed for r in plain):.4f} x reference "
          f"({PROBE_REF:g} probe rounds/s); "
          f"unscaled trials_per_min = {trials_per_min(plain, scaled=False):.6g} 1/min")
    print(f"fail_frac = {result['failed']}/{result['attempted']} trials "
          f"({result['failed'] / result['attempted']:.4f})")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
