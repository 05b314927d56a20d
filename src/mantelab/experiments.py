"""Experiment harness: config parsing, trial orchestration, and CSV/JSON output.

Runs are fully deterministic: every row is a pure function of (config, master
seed), trials own derived seeds, and trials run serially in trial-index order.
Wall-clock columns would break byte-identical reruns, so timing columns are
emitted only when the config sets ``emit_timings`` (excluded from the
determinism contract); stage timings are otherwise dropped.

Phase sweeps, concentration studies and audits share one trial pipeline,
``_run_trials``: it plans the trials (cells, tier caps, and the global seed
indices that capped cells still use up), samples each host and times it,
turns a ``ValueError`` into a ``skip`` row, runs the trials one after another
with the cyclic garbage collector paused, assembles trial, skip and summary
rows, and writes the CSV (and, for audits, the JSON).  A ``_TrialKind``
supplies the rest as data: the kind's columns, its per-trial stages and its
cell summary.

Every CSV starts with a ``#``-prefixed header block carrying the schema
version, a single-line build label, the config echoed as canonical JSON, and
the constants in use.  Exit status: 0 clean, 2 partial (cells skipped), 1
failed.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import asdict, dataclass, fields
from time import perf_counter
from typing import Callable

from .hypergraph import complete_hypergraph, turan_partition
# best_partition_for, decomposition and low_pair_cut_gap are not called here
# (an audit trial cuts through _cut and takes the other two from
# defect_audit's report) but stay attributes of this module, where
# perfbench/worker.py wraps each layer's functions for its traced runs.
from .proplab import (
    AuditConstants,
    _gap_report,
    concentration_report,
    decomposition,
    defect_audit,
    low_pair_cut_gap,
    low_pairs,
    relabel_for_largest_defect,
)
from .randgen import derive_seed, random_partition, sample_gknp
from .solvers import (
    Budget,
    best_partition_for,
    is_4partite,
    max_cut4_exact,
    max_cut4_local,
    max_tfree_exact,
    max_tfree_repair,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunOutcome",
    "load_config",
    "config_from_dict",
    "run_phase_sweep",
    "run_concentration",
    "run_audit",
    "run_turan_table",
    "run_experiment",
]

SCHEMA_VERSION = "v2"
KINDS = ("phase-sweep", "concentration", "audit", "turan-table")
EXIT_CLEAN, EXIT_FAILED, EXIT_PARTIAL = 0, 1, 2

EXACT_TIER_MAX_N = 12
EXACT_TIER_MAX_N_AUDIT = 14  # certified-q audits stretch two vertices further
HEURISTIC_TIER_MAX_N = 200
TURAN_DEFAULT_CAPS = {2: 12, 3: 9, 4: 9}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n_values: tuple[int, ...]
    k: int
    p_absolute: tuple[float, ...]
    p_logn_multipliers: tuple[float, ...]
    trials: int
    master_seed: int
    tier: str
    eps: float
    restarts: int
    budget: Budget
    constants: AuditConstants
    emit_timings: bool
    build_label: str
    out: str
    turan_cap: int | None
    echo: str  # the input document as canonical JSON, without "threads"

    def p_grid(self, n: int) -> list[float]:
        grid = list(self.p_absolute)
        for c in self.p_logn_multipliers:
            grid.append(min(1.0, c * math.log(n) / n))
        return grid

    def raw_dict(self) -> dict:
        return json.loads(self.echo)


_SHAPES = {"array": (list, tuple), "object": dict, "integer": int, "number": (int, float),
           "boolean": bool, "string": str}


def _shaped(value, shape: str, name: str):
    """value if of the JSON shape named (a _SHAPES key, maybe + " or null"); else ConfigError.

    json.load reads NaN and Infinity as floats; no JSON number is either."""
    base = shape.removesuffix(" or null")
    if value is None and base != shape:
        return None
    # bool is an int subclass: only the boolean shape takes it
    if isinstance(value, bool) != (base == "boolean") or not isinstance(value, _SHAPES[base]):
        raise ConfigError(f"{name} must be a JSON {shape}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite JSON number, got {value}")
    return value


def _items(value, shape: str, name: str) -> tuple:
    """The items of the JSON array value, each of the JSON shape named; else ConfigError."""
    return tuple(_shaped(x, shape, f"{name} item") for x in _shaped(value, "array", name))


_KEYS = {
    "": ("kind", "n", "k", "p", "trials", "master_seed", "tier", "eps", "restarts", "budget",
         "constants", "threads", "emit_timings", "build_label", "out", "cap"),
    "p.": ("absolute", "logn_multipliers"),
    "budget.": ("max_nodes", "max_seconds"),
    "constants.": tuple(f.name for f in fields(AuditConstants) if f.init),
}


def _known_keys(doc: dict, prefix: str) -> dict:
    """doc if every key is one of _KEYS[prefix]; else ConfigError naming the first other key."""
    unknown = sorted(set(doc) - set(_KEYS[prefix]))
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a config document; raises ConfigError before any trial runs."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc = dict(_known_keys(doc, ""))
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    n_values = _items(doc.get("n", []), "integer", "n")
    if not n_values or any(x < 4 for x in n_values):
        raise ConfigError("n must be a non-empty list of integers >= 4")
    k = _shaped(doc.get("k", 4), "integer", "k")
    if k not in (2, 3, 4):
        raise ConfigError(f"k must be 2, 3, or 4, got {k}")
    pdoc = _known_keys(_shaped(doc.get("p", {}), "object", "p"), "p.")
    p_abs = tuple(map(float, _items(pdoc.get("absolute", []), "number", "p.absolute")))
    p_mult = tuple(
        map(float, _items(pdoc.get("logn_multipliers", []), "number", "p.logn_multipliers"))
    )
    if kind != "turan-table":
        if not p_abs and not p_mult:
            raise ConfigError("p grid is empty")
        if any(not 0.0 <= x <= 1.0 for x in p_abs):
            raise ConfigError("absolute p values must lie in [0, 1]")
        if any(x < 0 for x in p_mult):
            raise ConfigError("log-n multipliers must be non-negative")
    trials = _shaped(doc.get("trials", 1), "integer", "trials")
    if trials < 1 and kind != "turan-table":
        raise ConfigError("trials must be >= 1")
    tier = doc.get("tier", "exact")
    if tier not in ("exact", "heuristic"):
        raise ConfigError(f"tier must be 'exact' or 'heuristic', got {tier!r}")
    if kind in ("phase-sweep", "concentration", "audit") and k != 4:
        raise ConfigError(f"{kind} runs are 4-uniform; set k=4")
    budget = _known_keys(_shaped(doc.get("budget", {}), "object", "budget"), "budget.")
    cdoc = _known_keys(_shaped(doc.get("constants", {}), "object", "constants"), "constants.")
    try:
        consts = AuditConstants(**cdoc)
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"constants.{exc}") from None
    # trials run serially: existing configs may still set "threads", which is
    # checked, then ignored and left out of the echo
    if _shaped(doc.pop("threads", 1), "integer", "threads") < 1:
        raise ConfigError("threads must be >= 1")
    build_label = _shaped(doc.get("build_label", "unversioned"), "string", "build_label")
    if "\n" in build_label or "\r" in build_label:
        raise ConfigError("build_label must be a single line")
    eps = float(_shaped(doc.get("eps", 0.25), "number", "eps"))
    if not eps > 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    restarts = _shaped(doc.get("restarts", 8), "integer", "restarts")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    max_nodes = _shaped(budget.get("max_nodes"), "integer or null", "budget.max_nodes")
    max_seconds = _shaped(budget.get("max_seconds"), "number or null", "budget.max_seconds")
    try:
        budget = Budget(max_nodes=max_nodes, max_seconds=max_seconds)
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"budget.{exc}") from None
    cfg = ExperimentConfig(
        kind=kind,
        n_values=n_values,
        k=k,
        p_absolute=p_abs,
        p_logn_multipliers=p_mult,
        trials=trials,
        master_seed=_shaped(doc.get("master_seed", 0), "integer", "master_seed"),
        tier=tier,
        eps=eps,
        restarts=restarts,
        budget=budget,
        constants=consts,
        emit_timings=_shaped(doc.get("emit_timings", False), "boolean", "emit_timings"),
        build_label=build_label,
        out=_shaped(doc.get("out", "mantelab-run"), "string", "out"),
        turan_cap=_shaped(doc.get("cap"), "integer or null", "cap"),
        echo=json.dumps(doc, sort_keys=True, separators=(",", ":")),
    )
    turan = kind == "turan-table"
    cells = n_values if turan else [(n, p) for n in n_values for p in cfg.p_grid(n)]
    for i, cell in enumerate(cells):
        if cell in cells[:i]:  # it would run twice and be summarised as one
            raise ConfigError(f"grid repeats {'n' if turan else '(n, p)'} = {cell}")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(doc)


@dataclass(frozen=True)
class RunOutcome:
    status: int
    files: tuple[str, ...]
    message: str


# ---------------------------------------------------------------------------
# formatting


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "unknown"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(
    cfg: ExperimentConfig, schema: str, columns: list[str], rows: list[list[str]]
) -> str:
    lines = [
        f"# schema=mantelab.{schema}.{SCHEMA_VERSION}",
        f"# build={cfg.build_label}",
        f"# config={cfg.echo}",
        f"# constants={json.dumps(cfg.constants.to_json_dict(), sort_keys=True, separators=(',', ':'))}",
        ",".join(columns),
    ]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _out_base(cfg: ExperimentConfig) -> str:
    return cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out


# ---------------------------------------------------------------------------
# the trial pipeline


@dataclass(frozen=True)
class _TrialKind:
    """What one experiment kind adds to the shared trial pipeline.

    Every row reads ``row_type, n, k, p, [eps,] trial, seed, edges``, then
    ``columns``, then ``timings`` when the config sets ``emit_timings``.
    ``trial(cfg, g, p, trial_no, seed, lap)`` runs the stages after
    sampling, calls ``lap()`` as each timed stage ends, and returns the
    ``columns`` cells and a payload (the JSON trial document when
    ``writes_json``).  ``summary(payloads)`` gives the last cells of one
    cell's summary row; None writes no summary rows.  Skipped rows put
    ``fill`` in every column but the last, which carries the reason.
    """

    schema: str
    columns: tuple[str, ...]
    timings: tuple[str, ...]
    trial: Callable
    summary: Callable | None
    exact_cap: int | None  # None: the kind ignores the tier caps
    fill: str = ""
    eps_column: bool = False
    writes_json: bool = False


def _cell_skip_reason(cfg: ExperimentConfig, n: int, exact_cap: int) -> str | None:
    if cfg.tier == "exact" and n > exact_cap:
        return f"exact tier capped at n={exact_cap}"
    if cfg.tier == "heuristic" and n > HEURISTIC_TIER_MAX_N:
        return f"heuristic tier capped at n={HEURISTIC_TIER_MAX_N}"
    return None


def _run_trials(cfg: ExperimentConfig, kind: _TrialKind) -> RunOutcome:
    """Plan, sample, run and write every trial of a phase, concentration or audit run.

    Trial ``t`` of the ``c``-th (n, p) cell derives its seed from global
    index ``c * trials + t``, so a capped cell still uses up its indices.  A
    ``ValueError`` from a trial's stages turns the trial into a ``skip`` row.

    Each trial runs with the cyclic garbage collector paused, so no collection
    walks the edge tuples built in it: a sampled host builds its 318k tuples
    at n=64, p=0.5 only when ``edges`` is read, as ``perfbench/worker.py``'s
    counters do.  The host is freed by reference counting when the trial
    returns; the collector, if it was on, is switched back on and collects
    the young generation.  The prior state is restored on error too.
    """
    items = []
    skipped_cells = []
    grid = [(n, p) for n in cfg.n_values for p in cfg.p_grid(n)]
    for c, (n, p) in enumerate(grid):
        reason = None if kind.exact_cap is None else _cell_skip_reason(cfg, n, kind.exact_cap)
        if reason is not None:
            skipped_cells.append((n, p, reason))
            continue
        items.extend((n, p, t, c * cfg.trials + t) for t in range(cfg.trials))
    eps = [_fmt(cfg.eps)] if kind.eps_column else []
    pad = [""] * len(kind.timings) if cfg.emit_timings else []

    def head(row_type: str, n: int, p: float, trial: str) -> list[str]:
        return [row_type, _fmt(n), _fmt(cfg.k), _fmt(p)] + eps + [trial]

    def skip_row(n: int, p: float, trial: str, reason: str) -> list[str]:
        blanks = [kind.fill] * (len(kind.columns) - 1)
        return head("skip", n, p, trial) + ["", ""] + blanks + [reason.replace(",", ";")] + pad

    def one(item):
        n, p, trial_no, global_idx = item
        seed = derive_seed(cfg.master_seed, global_idx)
        laps = [perf_counter()]

        def lap() -> None:
            laps.append(perf_counter())

        g = sample_gknp(n, cfg.k, p, seed)
        lap()
        try:
            cells, payload = kind.trial(cfg, g, p, trial_no, seed, lap)
        except ValueError as exc:
            return n, p, skip_row(n, p, _fmt(trial_no), str(exc)), None
        row = head("trial", n, p, _fmt(trial_no)) + [_fmt(seed), _fmt(len(g))]
        times = [_fmt(b - a) for a, b in zip(laps, laps[1:])] if cfg.emit_timings else []
        return n, p, row + cells + times, payload

    results = []
    for item in items:
        enabled = gc.isenabled()
        gc.disable()
        try:
            results.append(one(item))
        finally:
            if enabled:
                gc.enable()
                gc.collect(0)
    rows = [row for _, _, row, _ in results]
    rows += [skip_row(n, p, "", reason) for n, p, reason in skipped_cells]
    payloads = [payload for _, _, _, payload in results if payload is not None]
    if kind.summary is not None:
        by_cell: dict[tuple[int, float], list] = {}
        for n, p, _, payload in results:
            if payload is not None:
                by_cell.setdefault((n, p), []).append(payload)
        for (n, p), cell in sorted(by_cell.items()):
            tail = kind.summary(cell)
            blanks = [""] * (len(kind.columns) - len(tail))
            rows.append(head("summary", n, p, _fmt(len(cell))) + ["", ""] + blanks + tail + pad)

    columns = (["row_type", "n", "k", "p"] + (["eps"] if kind.eps_column else [])
               + ["trial", "seed", "edges"] + list(kind.columns)
               + (list(kind.timings) if cfg.emit_timings else []))
    base = _out_base(cfg)
    files = (base + ".csv", base + ".json") if kind.writes_json else (base + ".csv",)
    _write(files[0], _csv_text(cfg, kind.schema, columns, rows))
    if kind.writes_json:
        doc = {
            "schema": f"mantelab.{kind.schema}.{SCHEMA_VERSION}",
            "build": cfg.build_label,
            "config": cfg.raw_dict(),
            "trials": payloads,
        }
        _write(files[1], json.dumps(doc, sort_keys=True, indent=2) + "\n")
    partial = bool(skipped_cells) or len(payloads) < len(results)
    return RunOutcome(EXIT_PARTIAL if partial else EXIT_CLEAN, files, f"{len(results)} trials")


def _cut(cfg: ExperimentConfig, g, seed):
    if cfg.tier == "exact":
        return max_cut4_exact(g, cfg.budget)
    return max_cut4_local(g, seed, cfg.restarts)


def _tfree(cfg: ExperimentConfig, g, seed, q):
    """The trial's copy-free solve, given q's partition as a candidate incumbent.

    The crossing set of any 4-partition is copy-free, so the trial's
    copy-free value is at least q, and the repair runs no local cut of its
    own.
    """
    if cfg.tier == "exact":
        return max_tfree_exact(g, cfg.budget, q.witness)
    return max_tfree_repair(g, seed, cfg.restarts, q.witness)


# ---------------------------------------------------------------------------
# phase sweep


def _phase_trial(cfg: ExperimentConfig, g, p: float, trial_no: int, seed, lap):
    qres = _cut(cfg, g, seed)
    lap()
    tres = _tfree(cfg, g, seed, qres)
    lap()
    fourp = is_4partite(tres.witness.as_hypergraph(), cfg.budget) if cfg.tier == "exact" else None
    lap()
    lp = len(low_pairs(g, qres.witness, p, float(cfg.constants.alpha)).pairs)
    match = tres.value == qres.value
    values = (qres.value, qres.optimal, tres.value, tres.optimal, fourp, lp, match)
    return [_fmt(x) for x in values], match


_PHASE = _TrialKind(
    schema="phase",
    columns=("q_value", "q_optimal", "tfree_value", "tfree_optimal",
             "four_partite", "low_pairs", "match"),
    timings=("t_sample", "t_q", "t_tfree", "t_fourp"),
    trial=_phase_trial,
    summary=lambda matches: [_fmt(sum(matches) / len(matches))],
    exact_cap=EXACT_TIER_MAX_N,
)


def run_phase_sweep(cfg: ExperimentConfig) -> RunOutcome:
    """Per trial: sample, best cut, best copy-free subset, partiteness, match.

    Exact tier matches "best-found copy-free value equals the certified cut";
    heuristic tier reports "repair value equals local-cut value", a labeled
    proxy, with partiteness recorded as unknown.
    """
    return _run_trials(cfg, _PHASE)


# ---------------------------------------------------------------------------
# concentration study


_CONC_ROWS = (
    "triple_codegree", "pair_codegree", "pair_common_degree",
    "vertex_degree", "crossing_degree",
)


def _concentration_trial(cfg: ExperimentConfig, g, p: float, trial_no: int, seed, lap):
    part = random_partition(g.n, 4, derive_seed(seed, 1))
    rep = concentration_report(g, p, part, cfg.eps)
    lap()
    flags = [_fmt(r.passed) if r.applicable else "na" for r in map(rep.rows.get, _CONC_ROWS)]
    return flags + [_fmt(rep.all_pass)], (flags, rep.all_pass)


def _concentration_summary(cell: list) -> list[str]:
    rates = []
    for i in range(len(_CONC_ROWS)):
        vals = [flags[i] for flags, _ in cell if flags[i] != "na"]
        rates.append(_fmt(sum(v == "true" for v in vals) / len(vals)) if vals else "na")
    return rates + [_fmt(sum(all_pass for _, all_pass in cell) / len(cell))]


_CONCENTRATION = _TrialKind(
    schema="concentration",
    columns=_CONC_ROWS + ("all_pass",),
    timings=("t_sample", "t_report"),
    trial=_concentration_trial,
    summary=_concentration_summary,
    exact_cap=None,
    fill="na",
    eps_column=True,
)


def run_concentration(cfg: ExperimentConfig) -> RunOutcome:
    """Band checks of the five degree statistics against a random equal partition."""
    return _run_trials(cfg, _CONCENTRATION)


# ---------------------------------------------------------------------------
# audit pipeline


def _audit_trial(cfg: ExperimentConfig, g, p: float, trial_no: int, seed, lap):
    qres = _cut(cfg, g, seed)
    lap()
    tres = _tfree(cfg, g, seed, qres)
    f = tres.witness.as_hypergraph()
    lap()
    pres = _cut(cfg, f, seed)
    part, relabeling = relabel_for_largest_defect(f, pres.witness)
    lap()
    audit = defect_audit(g, f, part, p, cfg.constants)
    rep = audit.decomposition
    gap = _gap_report(
        g.n, p, cfg.constants.delta, qres.value, qres.optimal,
        rep.crossing_host, len(rep.low_pair_set),
    )
    lap()
    sizes = ("crossing_host", "crossing_sub", "defect_1", "defect_union", "missing",
             "heavy", "heavy_rich", "heavy_poor", "low_pairs")
    row = [_fmt(x) for x in (tres.value, tres.optimal, qres.value, qres.optimal)]
    row += [_fmt(audit.sizes[name]) for name in sizes]
    row += [_fmt(audit.rows["conclusion_nonstrict"].holds), _fmt(gap.gap), gap.interpretation]
    doc = {
        "trial": trial_no,
        "n": g.n,
        "k": cfg.k,
        "p": p,
        "seed": seed,
        "edges": len(g),
        "tfree_value": tres.value,
        "tfree_optimal": tres.optimal,
        "q_value": qres.value,
        "q_optimal": qres.optimal,
        "relabeling": list(relabeling) if relabeling else None,
        "audit": audit.to_json_dict(),
        "decomposition": rep.to_json_dict(),
        "gap": asdict(gap),
    }
    return row, doc


_AUDIT = _TrialKind(
    schema="audit",
    columns=("tfree_value", "tfree_optimal", "q_value", "q_optimal",
             "crossing_host", "crossing_sub", "defect_1", "defect_union",
             "missing", "heavy", "heavy_rich", "heavy_poor", "low_pairs",
             "conclusion_nonstrict", "gap", "gap_interpretation"),
    timings=("t_sample", "t_q", "t_tfree", "t_partition", "t_audit"),
    trial=_audit_trial,
    summary=None,
    exact_cap=EXACT_TIER_MAX_N_AUDIT,
    writes_json=True,
)


def run_audit(cfg: ExperimentConfig) -> RunOutcome:
    """Sample, extract a copy-free subhypergraph, audit its decomposition."""
    return _run_trials(cfg, _AUDIT)


# ---------------------------------------------------------------------------
# extremal table on complete hosts


def run_turan_table(cfg: ExperimentConfig) -> RunOutcome:
    """Certified extremal values on complete hosts vs the transversal bound.

    A complete host's maximum k-partite subhypergraph is the near-equal
    transversal hypergraph (moving a vertex between unequal parts never
    shrinks the product), so "some optimum is k-partite" is exactly
    "the certified value equals the transversal count".
    """
    cap = cfg.turan_cap if cfg.turan_cap is not None else TURAN_DEFAULT_CAPS[cfg.k]
    over = [n for n in cfg.n_values if n > cap]
    if over:
        return RunOutcome(
            EXIT_FAILED, (), f"n={over} above the exact cap {cap} for k={cfg.k}"
        )
    columns = [
        "row_type", "k", "n", "host_edges", "ex_value", "certified",
        "turan_edges", "equality", "kpartite_optimum",
    ]

    def one(n: int):
        host = complete_hypergraph(n, cfg.k)
        # the near-equal partition's crossing set is the transversal
        # hypergraph, whose edge count is the product of the class sizes
        part = turan_partition(n, cfg.k)
        res = max_tfree_exact(host, cfg.budget, part)
        tcount = math.prod(part.class_sizes)
        # equality with the transversal count is the k-partite-optimum test
        equality = _fmt(res.value == tcount) if res.optimal else "unknown"
        return [
            "result", _fmt(cfg.k), _fmt(n), _fmt(len(host)),
            _fmt(res.value), _fmt(res.optimal), _fmt(tcount), equality, equality,
        ]

    rows = [one(n) for n in sorted(cfg.n_values)]
    path = _out_base(cfg) + ".csv"
    _write(path, _csv_text(cfg, "turan_table", columns, rows))
    return RunOutcome(EXIT_CLEAN, (path,), f"{len(rows)} hosts")


_RUNNERS = {
    "phase-sweep": run_phase_sweep,
    "concentration": run_concentration,
    "audit": run_audit,
    "turan-table": run_turan_table,
}


def run_experiment(cfg: ExperimentConfig) -> RunOutcome:
    return _RUNNERS[cfg.kind](cfg)
