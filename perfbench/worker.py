"""One benchmark unit in a fresh interpreter: set up, run the trials, report.

Usage: python3 perfbench/worker.py <unit-dir>

The unit directory holds ``spec.json`` written by ``run.py``.  The worker
imports mantelab from the checkout's ``src`` (with numpy and scipy), loads the
config or host parameters, stamps the end of set-up, runs the unit's trials
through the public entry points, and writes ``result.json`` next to the spec.
With ``trace`` set, it first wraps the public functions of each layer at the
module attributes their callers resolve, and the builders of the cached
hypergraph indexes, records one span per call in memory, and writes the
spans into ``result.json`` when the trials are done.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Module -> functions wrapped at its attributes, which callers resolve at
# call time: the runners reach every layer through ``mantelab.experiments``;
# is_4partite and best_partition_for reach the cut solvers, and the copy-free
# solvers reach the copy scan, through ``mantelab.solvers``; defect_audit,
# decomposition and low_pair_cut_gap reach find_T, decomposition and
# low_pairs through ``mantelab.proplab``; the dense-cut trials call the
# sampler through ``mantelab.randgen``.
PATCHES = {
    "mantelab.experiments": (
        "run_experiment", "sample_gknp", "random_partition",
        "max_tfree_exact", "max_tfree_repair", "max_cut4_exact", "max_cut4_local",
        "is_4partite", "best_partition_for",
        "concentration_report", "defect_audit", "decomposition", "low_pairs",
        "low_pair_cut_gap", "relabel_for_largest_defect",
    ),
    "mantelab.solvers": ("max_cut4_exact", "max_cut4_local", "count_T", "t_copy_triples"),
    "mantelab.proplab": ("decomposition", "low_pairs", "find_T"),
    "mantelab.randgen": ("sample_gknp",),
}
INDEXES = ("edge_array", "vertex_edges", "cores", "edge_ids")


def _solve_counts(res, *args, **kwargs):
    return {"nodes": res.stats.nodes, "certified": res.optimal}


# Counts taken from return values (and the host argument) after a span closes.
COUNTERS = {
    "max_tfree_exact": _solve_counts,
    "max_cut4_exact": _solve_counts,
    "max_tfree_repair": lambda res, h, *a, **k: {"value": res.value, "host": id(h)},
    "max_cut4_local": lambda res, h, *a, **k: {
        "value": res.value, "host": id(h), "moves": res.stats.nodes,
    },
    "t_copy_triples": lambda res, *a, **k: {"copies": len(res)},
    "concentration_report": lambda res, g, *a, **k: {"edges": len(g.edges)},
    "sample_gknp": lambda g, *a, **k: {"edges": len(g.edges)},
}


class Tracer:
    """Spans as [name, parent index, start, end, counts], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[4] = counter(out, *args, **kwargs)
            return out

        return traced

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        return self.span(f"{layer}.{fn.__name__}", fn, COUNTERS.get(fn.__name__))

    def install(self):
        import importlib
        from functools import cached_property

        from mantelab.hypergraph import Hypergraph

        for module_name, names in PATCHES.items():
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self.wrap(getattr(module, name)))
        # Indexes are built lazily by whichever layer reads them first; a
        # span around each build charges it to the hypergraph layer instead.
        for name in INDEXES:
            prop = cached_property(self.span("hypergraph.index", getattr(Hypergraph, name).func))
            prop.__set_name__(Hypergraph, name)
            setattr(Hypergraph, name, prop)


def _crossing_count(edges, assignment) -> int:
    """Edges whose vertices fall in pairwise distinct classes (independent recount)."""
    return sum(len({assignment[v] for v in e}) == len(e) for e in edges)


def main(unit_dir: str) -> int:
    udir = Path(unit_dir)
    spec = json.loads((udir / "spec.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    import mantelab
    import mantelab.cli
    import mantelab.experiments
    import mantelab.randgen
    import mantelab.solvers

    if not Path(mantelab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"mantelab imported from {mantelab.__file__}, not from this checkout")
    if spec["mode"] == "cli":
        mantelab.experiments.load_config(spec["config"])
    setup_end = time.monotonic()

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    trials: list[dict] = []
    t0 = time.perf_counter()
    if spec["mode"] == "cli":
        main_fn = mantelab.cli.main
        if tracer is not None:
            main_fn = tracer.span("cli.main", main_fn)
        status = main_fn([
            spec["command"], "--config", spec["config"], "--seed", str(spec["master"]),
            "--out", spec["out"], "--threads", "1",
        ])
        trial_s = time.perf_counter() - t0
    else:
        seed = mantelab.randgen.derive_seed(spec["master"], spec["index"])
        g = mantelab.randgen.sample_gknp(spec["n"], 4, spec["p"], seed)
        res = mantelab.solvers.max_cut4_exact(g)
        trial_s = time.perf_counter() - t0
        status = 0
        trials.append({
            "key": spec["key"],
            "edges": len(g.edges),
            "value": res.value,
            "optimal": res.optimal,
            "crossing": _crossing_count(g.edges, res.witness.assignment),
        })
    result = {
        "setup_end": setup_end,
        "trial_s": trial_s,
        "status": status,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trials": trials,
        "spans": tracer.spans if tracer is not None else [],
    }
    (udir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
