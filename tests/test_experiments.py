import ctypes
import gc
import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import re
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import mantelab
import mantelab.experiments
from mantelab.cli import main as cli_main
from mantelab.experiments import (
    ConfigError,
    EXIT_CLEAN,
    EXIT_FAILED,
    EXIT_PARTIAL,
    config_from_dict,
    run_audit,
    run_experiment,
    run_concentration,
    run_phase_sweep,
    run_turan_table,
)
from mantelab.hypergraph import Hypergraph, from_text, read_text, to_text
from mantelab.proplab import AuditConstants
from mantelab.randgen import derive_seed, sample_gknp


def base_doc(tmp_path, **kw):
    doc = {
        "kind": "phase-sweep",
        "n": [8],
        "k": 4,
        "p": {"absolute": [0.5]},
        "trials": 2,
        "master_seed": 9,
        "tier": "exact",
        "out": str(tmp_path / "run"),
    }
    doc.update(kw)
    return doc


def read_rows(path):
    header = []
    rows = []
    cols = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif cols is None:
                cols = line.split(",")
            else:
                rows.append(dict(zip(cols, line.split(","))))
    return header, cols, rows


# Small runs of every kind, with the sha256 of each output file.  The digests
# pin the exact bytes: a refactor of the runners must leave them unchanged.
# Budgets are node-free and clock-free, so every value is deterministic.
GOLDEN = {
    "phase_exact": (
        dict(kind="phase-sweep", n=[8, 14], p={"absolute": [0.3, 0.5]}, trials=2,
             tier="exact"),
        {".csv": "32ea4247131e0fbda922dccdf46f01b07ec95cfd69375163205cf54590b09c25"},
    ),
    "phase_heuristic": (
        dict(kind="phase-sweep", n=[10], p={"absolute": [0.0, 0.3]}, trials=2,
             tier="heuristic", restarts=2),
        {".csv": "0dd540b71f4694fc621dedca53b8cf27d382d3d0096ee98690c5d4a1280d858b"},
    ),
    "concentration": (
        dict(kind="concentration", n=[12], p={"absolute": [0.0, 0.5]}, trials=2),
        {".csv": "0f0b317c47c51d36f7e71220c80559c3c4857beb4ba649db0f246ad635f7daff"},
    ),
    "audit_exact": (
        dict(kind="audit", n=[8, 16], p={"absolute": [0.4]}, trials=2, tier="exact"),
        {
            ".csv": "c0214f2220d79dc716971c94fe19e6497a39274453dd7569c6ae2e3d24e38226",
            ".json": "37c090bf70d88b6f90a5ebc005273737cb03b0125ac8bb7fbaa0b0825c7d3038",
        },
    ),
    "audit_heuristic": (
        dict(kind="audit", n=[10], p={"absolute": [0.3]}, trials=2,
             tier="heuristic", restarts=2),
        {
            ".csv": "b974a9022b3be4d83949c3fd16659ec8e69ee69ae86f485ca360cb6c553970a4",
            ".json": "d4533fdd0dcb862e0822a44284649ba525ad7676ac184b2158952a1abd4e97a2",
        },
    ),
    "turan_table": (
        dict(kind="turan-table", k=3, n=[5, 6]),
        {".csv": "935bb661ccf2b0ade5638e15386c27c3c40995d72d1ac23f5db8b764fa302786"},
    ),
}
GOLDEN_STATUS = {"phase_exact": EXIT_PARTIAL, "concentration": EXIT_PARTIAL, "audit_exact": EXIT_PARTIAL}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path, monkeypatch):
    # a relative out path keeps the echoed config free of the temp directory
    monkeypatch.chdir(tmp_path)
    doc, digests = GOLDEN[name]
    out = run_experiment(config_from_dict(dict(doc, master_seed=9, out=name)))
    assert out.status == GOLDEN_STATUS.get(name, EXIT_CLEAN)
    assert out.files == tuple(name + ext for ext in digests)
    for path in out.files:
        blob = open(path, "rb").read()
        assert hashlib.sha256(blob).hexdigest() == digests[path[len(name):]], path


@pytest.mark.parametrize("name", ["phase_exact", "concentration", "audit_exact"])
def test_timing_columns_in_every_row(name, tmp_path, monkeypatch):
    # trial, skip and summary rows all carry the timing columns; the values
    # are wall-clock and stay unchecked
    monkeypatch.chdir(tmp_path)
    doc, _ = GOLDEN[name]
    out = run_experiment(config_from_dict(dict(doc, master_seed=9, out=name, emit_timings=True)))
    lines = [ln for ln in open(out.files[0]).read().splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    timings = {
        "phase_exact": ["t_sample", "t_q", "t_tfree", "t_fourp"],
        "concentration": ["t_sample", "t_report"],
        "audit_exact": ["t_sample", "t_q", "t_tfree", "t_partition", "t_audit"],
    }[name]
    assert cols[-len(timings):] == timings
    assert {ln.split(",")[0] for ln in lines[1:]} >= {"trial", "skip"}
    assert all(len(ln.split(",")) == len(cols) for ln in lines[1:])


class TestOneCutPerTrial:
    """A trial's copy-free solve takes q's partition as a candidate incumbent."""

    @pytest.mark.parametrize("kind", ["phase-sweep", "audit"])
    def test_heuristic_trial_cuts_its_host_once(self, kind, tmp_path, monkeypatch):
        # q's local cut is passed to the repair, which runs none of its own;
        # the audit's second local cut is of the copy-free subhypergraph
        import mantelab.solvers

        hosts, cut = [], []
        sample, local = mantelab.experiments.sample_gknp, mantelab.solvers._kpartite_local

        def spy_sample(*args):
            hosts.append(sample(*args))
            return hosts[-1]

        def spy_local(h, *args):
            cut.append(h)
            return local(h, *args)

        monkeypatch.setattr(mantelab.experiments, "sample_gknp", spy_sample)
        monkeypatch.setattr(mantelab.solvers, "_kpartite_local", spy_local)
        doc = base_doc(tmp_path, kind=kind, n=[10], p={"absolute": [0.3]}, tier="heuristic",
                       restarts=2)
        assert run_experiment(config_from_dict(doc)).status == EXIT_CLEAN
        assert len(hosts) == 2
        assert [sum(h is g for h in cut) for g in hosts] == [1, 1]

    @pytest.mark.parametrize("kind,tier,n,extra", [
        ("phase-sweep", "exact", [10, 12], {"budget": {"max_nodes": 20}}),
        ("audit", "exact", [12], {"budget": {"max_nodes": 20}}),
        ("phase-sweep", "heuristic", [14], {"restarts": 2}),
        ("audit", "heuristic", [14], {"restarts": 2}),
    ])
    def test_copy_free_value_at_least_q(self, kind, tier, n, extra, tmp_path):
        # q's crossing set is copy-free and a candidate incumbent of the
        # copy-free solve, so tfree >= q in every trial row, under any budget
        doc = base_doc(tmp_path, kind=kind, n=n, p={"absolute": [0.3, 0.5]}, tier=tier, **extra)
        out = run_experiment(config_from_dict(doc))
        _, _, rows = read_rows(out.files[0])
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert len(trials) == 2 * 2 * len(n)
        assert all(int(r["tfree_value"]) >= int(r["q_value"]) for r in trials)


class TestConfig:
    def test_empty_p_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="p grid"):
            config_from_dict(base_doc(tmp_path, p={}))

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict(base_doc(tmp_path, kind="sweepish"))

    def test_bad_tier(self, tmp_path):
        with pytest.raises(ConfigError, match="tier"):
            config_from_dict(base_doc(tmp_path, tier="turbo"))

    def test_phase_requires_k4(self, tmp_path):
        with pytest.raises(ConfigError, match="4-uniform"):
            config_from_dict(base_doc(tmp_path, k=2))

    def test_p_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(tmp_path, p={"absolute": [1.2]}))

    def test_logn_multiplier_grid(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, p={"logn_multipliers": [2.0]}))
        expect = min(1.0, 2.0 * math.log(8) / 8)
        assert cfg.p_grid(8) == [expect]

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\n"])
    def test_multiline_build_label_rejected(self, tmp_path, label):
        # a line break would split the '#' header block of every CSV
        with pytest.raises(ConfigError, match="build_label"):
            config_from_dict(base_doc(tmp_path, build_label=label))

    def test_constants_override(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, constants={"alpha": 0.5}))
        assert cfg.constants.alpha == 0.5

    def test_constants_read_as_the_constructor_reads_them(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, constants={"eps1": 0.1}))
        assert cfg.constants == AuditConstants(eps1=0.1)
        assert cfg.constants.eps1 == Fraction(1, 10)
        assert isinstance(cfg.constants.delta, Fraction)

    @pytest.mark.parametrize("alpha", [0, -2])
    def test_nonpositive_alpha_refused(self, tmp_path, alpha):
        # no pair is low at alpha <= 0, so the low-pair rows would read 0
        with pytest.raises(ConfigError, match="^constants.alpha must be > 0"):
            config_from_dict(base_doc(tmp_path, kind="audit", constants={"alpha": alpha}))


# fields whose wrong JSON type used to escape as AttributeError or TypeError,
# or to be accepted as a string ("trials": "2")
_WRONG_TYPES = [
    ("budget", 5),
    ("p", "0.3"),
    ("p", [0.3]),
    ("p", {"absolute": 0.3}),
    ("n", 8),
    ("constants", [1]),
    ("k", None),
    ("k", "4"),
    ("k", True),
    ("n", [None]),
    ("n", [8.5]),
    ("p", {"absolute": ["0.3"]}),
    ("p", {"logn_multipliers": [None]}),
    ("trials", "2"),
    ("threads", 1.5),
    ("master_seed", "9"),
    ("restarts", None),
    ("eps", "0.25"),
    ("cap", "3"),
    ("budget", {"max_nodes": "x"}),
    ("budget", {"max_seconds": "1"}),
    ("emit_timings", "false"),
    ("build_label", None),
    ("out", None),
    ("constants", {"alpha": "x"}),
    # falsy values of the wrong type, once taken as an empty object
    ("budget", 0),
    ("budget", False),
    ("budget", ""),
    ("budget", []),
    ("budget", None),
    ("constants", 0),
    ("constants", False),
    ("constants", ""),
    ("constants", []),
    ("constants", None),
    # values of the right type but out of range, once run to wrong rows
    ("eps", -0.5),
    ("eps", 0),
    ("restarts", -3),
    ("restarts", 0),
    ("budget", {"max_nodes": -1}),
    ("budget", {"max_seconds": -1}),
]


@pytest.mark.parametrize("key,value", _WRONG_TYPES, ids=[f"{k}={v!r}" for k, v in _WRONG_TYPES])
class TestWrongTypedField:
    def test_config_error(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(base_doc(tmp_path, **{key: value}))

    def test_cli_error_line(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, **{key: value})))
        assert cli_main(["phase", "--config", str(cfg)]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "run.csv").exists()


# numbers of the right type that a run cannot use, once run or crashed on:
# (overrides, the name the error must start with).  json.load reads NaN and
# Infinity (and 1e400 as Infinity); the audit divides by eps1, eps2 and the
# delta and eps3 derived from them.
_BAD_NUMBERS = [
    ({"p": {"logn_multipliers": [math.nan]}}, "p.logn_multipliers item"),
    ({"p": {"absolute": [math.nan]}}, "p.absolute item"),
    ({"eps": math.inf}, "eps"),
    ({"budget": {"max_seconds": math.inf}}, "budget.max_seconds"),
    ({"constants": {"alpha": math.nan}}, "constants.alpha"),
    ({"constants": {"eps1": 0}}, "constants.eps1"),
    ({"constants": {"eps2": 0}}, "constants.eps2"),
    # refusals of a phase config, named by the start of the message
    ({"kind": "phase-sweep", "n": []}, "n"),
    ({"kind": "phase-sweep", "n": [3]}, "n"),
    ({"kind": "phase-sweep", "k": 5}, "k"),
    ({"kind": "phase-sweep", "p": {"logn_multipliers": [-1.0]}}, "log-n multipliers"),
    ({"kind": "phase-sweep", "trials": 0}, "trials"),
    ({"kind": "phase-sweep", "threads": 0}, "threads"),
]


@pytest.mark.parametrize("overrides,name", _BAD_NUMBERS, ids=[b[1] for b in _BAD_NUMBERS])
class TestBadNumber:
    def test_config_error(self, tmp_path, overrides, name):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
            config_from_dict(base_doc(tmp_path, **{"kind": "audit", **overrides}))

    def test_cli_error_line(self, tmp_path, capsys, overrides, name):
        doc = base_doc(tmp_path, **{"kind": "audit", **overrides})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        command = "phase" if doc["kind"] == "phase-sweep" else "audit"
        assert cli_main([command, "--config", str(cfg)]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "run.csv").exists()


# misspelt keys, once ignored: (overrides, the name the error must give)
_UNKNOWN_KEYS = [
    ({"trails": 5}, "trails"),
    ({"budget": {"max_node": 10}}, "budget.max_node"),
    ({"p": {"absolute": [0.5], "logn_multiplier": [1.0]}}, "p.logn_multiplier"),
    ({"constants": {"alfa": 0.3}}, "constants.alfa"),
    # removed constants are misspelt keys too
    ({"constants": {"eps": 0.1}}, "constants.eps"),
    ({"constants": {"xi": 0.001}}, "constants.xi"),
    ({"constants": {"phi": 0.0001}}, "constants.phi"),
    ({"constants": {"gamma_decimal": 0.146}}, "constants.gamma_decimal"),
    ({"constants": {"alpha_prime": "7/9"}}, "constants.alpha_prime"),
    ({"constants": {"gamma_formula": "9/640"}}, "constants.gamma_formula"),
    # derived constants are not settable
    ({"constants": {"delta": 0}}, "constants.delta"),
    ({"constants": {"eps3": "0"}}, "constants.eps3"),
]


@pytest.mark.parametrize("overrides,name", _UNKNOWN_KEYS, ids=[u[1] for u in _UNKNOWN_KEYS])
class TestUnknownKey:
    def test_config_error(self, tmp_path, overrides, name):
        with pytest.raises(ConfigError, match=f"unknown config key {name}$"):
            config_from_dict(base_doc(tmp_path, **overrides))

    def test_cli_error_line(self, tmp_path, capsys, overrides, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, **overrides)))
        assert cli_main(["phase", "--config", str(cfg)]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unknown config key {name}\n" in err
        assert not (tmp_path / "run.csv").exists()


# grids that repeat a cell, once run twice and summarised as one: (overrides,
# the cell the error must name); log-n multipliers count after the clamp to 1
_REPEATED_CELLS = [
    ({"p": {"absolute": [0.3, 0.3]}}, "(n, p) = (8, 0.3)"),
    ({"n": [8, 10, 8]}, "(n, p) = (8, 0.5)"),
    ({"n": [5], "p": {"logn_multipliers": [4.0, 5.0]}}, "(n, p) = (5, 1.0)"),
    ({"p": {"absolute": [1.0], "logn_multipliers": [5.0]}}, "(n, p) = (8, 1.0)"),
    ({"kind": "turan-table", "k": 3, "n": [5, 6, 5]}, "n = 5"),
]


@pytest.mark.parametrize("overrides,cell", _REPEATED_CELLS, ids=[r[1] for r in _REPEATED_CELLS])
class TestRepeatedCell:
    def test_config_error(self, tmp_path, overrides, cell):
        with pytest.raises(ConfigError, match=f"^grid repeats {re.escape(cell)}$"):
            config_from_dict(base_doc(tmp_path, **overrides))

    def test_cli_error_line(self, tmp_path, capsys, overrides, cell):
        doc = base_doc(tmp_path, **overrides)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        command = "turan-table" if doc["kind"] == "turan-table" else "phase"
        assert cli_main([command, "--config", str(cfg)]) == EXIT_FAILED
        assert capsys.readouterr().err == f"error: grid repeats {cell}\n"
        assert not (tmp_path / "run.csv").exists()


class TestPhaseSweep:
    def test_complete_host_every_trial_identical(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, p={"absolute": [1.0]}, trials=3))
        out = run_phase_sweep(cfg)
        assert out.status == EXIT_CLEAN
        _, _, rows = read_rows(out.files[0])
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert len(trials) == 3
        assert all(r["q_value"] == "16" and r["q_optimal"] == "true" for r in trials)
        assert len({r["edges"] for r in trials}) == 1

    def test_p_zero_trivial(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, p={"absolute": [0.0]}, trials=2))
        out = run_phase_sweep(cfg)
        _, _, rows = read_rows(out.files[0])
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert all(
            r["q_value"] == "0" and r["tfree_value"] == "0" and r["four_partite"] == "true"
            for r in trials
        )

    def test_exact_tier_cap_skips_cell(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, n=[8, 14], trials=1))
        out = run_phase_sweep(cfg)
        assert out.status == EXIT_PARTIAL
        _, _, rows = read_rows(out.files[0])
        skips = [r for r in rows if r["row_type"] == "skip"]
        assert skips and all(r["n"] == "14" for r in skips)
        # the feasible cell still ran
        assert any(r["row_type"] == "trial" and r["n"] == "8" for r in rows)

    def test_heuristic_tier_cap_skips_cell(self, tmp_path, monkeypatch):
        def no_host(*args):
            raise AssertionError("a host was drawn for a capped cell")

        monkeypatch.setattr(mantelab.experiments, "sample_gknp", no_host)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, n=[201], tier="heuristic")))
        assert cli_main(["phase", "--config", str(cfg)]) == EXIT_PARTIAL
        _, _, rows = read_rows(tmp_path / "run.csv")
        assert [(r["row_type"], r["n"], r["trial"], r["match"]) for r in rows] == [
            ("skip", "201", "", "heuristic tier capped at n=200")
        ]

    def test_determinism_across_runs_and_threads(self, tmp_path):
        doc = base_doc(tmp_path, trials=3, p={"absolute": [0.4, 0.7]}, out=str(tmp_path / "a"))
        run_phase_sweep(config_from_dict(doc))
        a = open(tmp_path / "a.csv", "rb").read()
        run_phase_sweep(config_from_dict(doc))
        assert open(tmp_path / "a.csv", "rb").read() == a
        doc4 = dict(doc, out=str(tmp_path / "c"), threads=4)
        run_phase_sweep(config_from_dict(doc4))
        c = open(tmp_path / "c.csv", "rb").read()
        # the worker count stays out of the echo, so the files match byte for
        # byte apart from the out path recorded in the config line
        repath = lambda blob: blob.replace(str(tmp_path).encode() + b"/c", str(tmp_path).encode() + b"/a")
        assert repath(c) == a

    def test_header_block(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, build_label="abc123"))
        out = run_phase_sweep(cfg)
        header, cols, _ = read_rows(out.files[0])
        assert header[0] == "# schema=mantelab.phase.v3"
        assert header[1] == "# build=abc123"
        assert header[2].startswith("# config={")
        assert header[3].startswith("# constants={")
        assert cols[0] == "row_type"

    def test_row_counts_and_rerun_bytes(self, tmp_path):
        # 3 p-values x 20 trials: 60 trial rows plus 3 summaries, stable bytes
        doc = base_doc(
            tmp_path, p={"absolute": [0.1, 0.2, 0.3]}, trials=20,
            out=str(tmp_path / "grid"),
        )
        run_phase_sweep(config_from_dict(doc))
        first = open(tmp_path / "grid.csv", "rb").read()
        _, _, rows = read_rows(tmp_path / "grid.csv")
        assert sum(r["row_type"] == "trial" for r in rows) == 60
        assert sum(r["row_type"] == "summary" for r in rows) == 3
        run_phase_sweep(config_from_dict(doc))
        assert open(tmp_path / "grid.csv", "rb").read() == first

    def test_timings_gated(self, tmp_path):
        cfg = config_from_dict(base_doc(tmp_path, emit_timings=True, trials=1))
        out = run_phase_sweep(cfg)
        _, cols, _ = read_rows(out.files[0])
        assert "t_sample" in cols
        cfg2 = config_from_dict(base_doc(tmp_path, out=str(tmp_path / "no_t"), trials=1))
        _, cols2, _ = read_rows(run_phase_sweep(cfg2).files[0])
        assert "t_sample" not in cols2


class TestConcentrationRun:
    def test_complete_p1_triple_row(self, tmp_path):
        doc = base_doc(
            tmp_path, kind="concentration", n=[16], p={"absolute": [1.0]},
            trials=2, eps=0.25,
        )
        out = run_concentration(config_from_dict(doc))
        assert out.status == EXIT_CLEAN
        _, _, rows = read_rows(out.files[0])
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert all(r["triple_codegree"] == "true" for r in trials)
        summary = [r for r in rows if r["row_type"] == "summary"]
        assert summary and summary[0]["triple_codegree"] == "1.0"

    def test_tight_band_fails_and_is_recorded(self, tmp_path):
        # a band far tighter than finite-size fluctuation: failure is the
        # expected, recorded outcome, not an error
        doc = base_doc(
            tmp_path, kind="concentration", n=[16], p={"absolute": [0.5]},
            trials=3, eps=0.01,
        )
        out = run_concentration(config_from_dict(doc))
        assert out.status == EXIT_CLEAN
        _, _, rows = read_rows(out.files[0])
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert all(r["all_pass"] == "false" for r in trials)

    def test_needs_four_uniform_host(self, tmp_path):
        doc = base_doc(tmp_path, kind="concentration", k=3, n=[8], p={"absolute": [0.5]})
        with pytest.raises(ConfigError, match="set k=4"):
            config_from_dict(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["concentration", "--config", str(cfg)]) == EXIT_FAILED
        assert not os.path.exists(tmp_path / "run.csv")

    def test_deterministic(self, tmp_path):
        doc = base_doc(
            tmp_path, kind="concentration", n=[12], p={"absolute": [0.6]}, trials=3
        )
        a = run_concentration(config_from_dict(dict(doc, out=str(tmp_path / "x"))))
        b = run_concentration(config_from_dict(dict(doc, out=str(tmp_path / "y"), threads=3)))
        strip = lambda blob: b"\n".join(
            ln for ln in blob.split(b"\n") if not ln.startswith(b"# config=")
        )
        assert strip(open(a.files[0], "rb").read()) == strip(open(b.files[0], "rb").read())


class TestGcPause:
    """Trials run with the cyclic collector paused, and the pipeline leaves
    its state as it found it."""

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def run(self, tmp_path):
        doc = base_doc(
            tmp_path, kind="concentration", n=[12], p={"absolute": [0.6]}, trials=2
        )
        return run_concentration(config_from_dict(doc))

    def test_enabled_collector_paused_per_trial(self, tmp_path, monkeypatch):
        sample = mantelab.experiments.sample_gknp
        during = []

        def watched(*args):
            during.append(gc.isenabled())
            return sample(*args)

        monkeypatch.setattr(mantelab.experiments, "sample_gknp", watched)
        gc.enable()
        assert self.run(tmp_path).status == EXIT_CLEAN
        assert during == [False, False]
        assert gc.isenabled()

    def test_disabled_collector_stays_off_uncollected(self, tmp_path):
        seen = []

        def note(phase, info):
            seen.append((phase, info["generation"]))

        gc.disable()
        gc.callbacks.append(note)
        try:
            assert self.run(tmp_path).status == EXIT_CLEAN
        finally:
            gc.callbacks.remove(note)
        assert not gc.isenabled()
        assert seen == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_error_restores_state(self, tmp_path, monkeypatch, enabled):
        def broken(*args):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(mantelab.experiments, "sample_gknp", broken)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(RuntimeError, match="sampler broke"):
            self.run(tmp_path)
        assert gc.isenabled() == enabled


def test_trial_stages_build_no_host_tuples():
    # the concentration, exact phase, heuristic and audit stages read hosts
    # only as rows
    from mantelab.proplab import (
        concentration_report, defect_audit, low_pairs, relabel_for_largest_defect,
    )
    from mantelab.randgen import random_partition
    from mantelab.solvers import (
        is_4partite, max_cut4_exact, max_cut4_local, max_tfree_exact, max_tfree_repair,
    )

    g = sample_gknp(9, 4, 0.4, derive_seed(4, 0))
    concentration_report(g, 0.4, random_partition(9, 4, derive_seed(4, 1)), 0.5)
    assert "edges" not in vars(g)
    q = max_cut4_exact(g)
    f = max_tfree_exact(g, None, q.witness).witness.as_hypergraph()
    assert is_4partite(f) is not None
    low_pairs(g, q.witness, 0.4)
    assert "edges" not in vars(g) and "edges" not in vars(f)

    # a heuristic audit trial, and the repair without a cut
    g = sample_gknp(16, 4, 0.3, derive_seed(4, 2))
    max_tfree_repair(g, 5, 4)
    q = max_cut4_local(g, 5, 4)
    f = max_tfree_repair(g, 5, 4, q.witness).witness.as_hypergraph()
    part, _ = relabel_for_largest_defect(f, max_cut4_local(f, 5, 4).witness)
    defect_audit(g, f, part, 0.3)
    assert "edges" not in vars(g) and "edges" not in vars(f)


class TestAuditRun:
    def test_pipeline_and_json(self, tmp_path):
        doc = base_doc(
            tmp_path, kind="audit", n=[8], p={"absolute": [0.4]}, trials=2,
            budget={"max_seconds": 15},
        )
        out = run_audit(config_from_dict(doc))
        assert out.status == EXIT_CLEAN
        csv_path, json_path = out.files
        _, _, rows = read_rows(csv_path)
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert len(trials) == 2
        payload = json.loads(open(json_path).read())
        assert payload["schema"] == "mantelab.audit.v3"
        assert len(payload["trials"]) == 2
        t = payload["trials"][0]
        assert {"audit", "decomposition", "gap", "seed"} <= set(t)
        assert t["gap"]["interpretation"] in (
            "consistent", "inconsistent-at-scale", "inconclusive"
        )
        # the decomposition block writes its sets in full; the audit holds their sizes
        for name in ("low_pairs", "heavy", "light", "heavy_rich", "heavy_poor"):
            assert len(t["decomposition"][name]) == t["audit"]["sizes"][name]

    def test_each_value_written_once(self, tmp_path):
        # every count lives in audit.sizes, the constants once per document,
        # and the gap block only what no other key holds
        doc = base_doc(tmp_path, kind="audit", n=[8], p={"absolute": [0.4]}, trials=2)
        cfg = config_from_dict(doc)
        payload = json.loads(open(run_audit(cfg).files[1]).read())
        assert set(payload) == {"schema", "build", "config", "constants", "trials"}
        assert payload["constants"] == cfg.constants.to_json_dict()
        for t in payload["trials"]:
            assert set(t) == {
                "trial", "n", "k", "p", "seed", "edges", "tfree_value", "tfree_optimal",
                "q_value", "q_optimal", "relabeling", "audit", "decomposition", "gap",
            }
            assert set(t["audit"]) == {"sizes", "rows"}
            assert set(t["decomposition"]) == {
                "low_pairs", "heavy", "light", "heavy_rich", "heavy_poor",
                "degenerate_heavy_threshold", "degenerate_rich_threshold",
            }
            assert set(t["gap"]) == {"gap", "discount", "interpretation"}

    def test_crossing_subhost_trivial_branch(self, tmp_path):
        # p = 1: the copy-free extraction keeps a 4-partite optimum, defects empty
        doc = base_doc(
            tmp_path, kind="audit", n=[8], p={"absolute": [1.0]}, trials=1,
            budget={"max_seconds": 30},
        )
        out = run_audit(config_from_dict(doc))
        payload = json.loads(open(out.files[1]).read())
        t = payload["trials"][0]
        assert t["tfree_value"] >= t["q_value"]

    def test_json_deterministic(self, tmp_path):
        doc = base_doc(
            tmp_path, kind="audit", n=[8], p={"absolute": [0.3]}, trials=2,
            budget={"max_seconds": 15},
        )
        a = run_audit(config_from_dict(dict(doc, out=str(tmp_path / "j1"))))
        b = run_audit(config_from_dict(dict(doc, out=str(tmp_path / "j2"), threads=2)))
        ja = json.loads(open(a.files[1]).read())
        jb = json.loads(open(b.files[1]).read())
        assert ja["trials"] == jb["trials"]

    def test_heuristic_copy_guard_skips_trial(self, tmp_path, monkeypatch):
        import mantelab.solvers

        monkeypatch.setattr(mantelab.solvers, "MAX_COPIES_EXACT", 10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(
            tmp_path, kind="audit", n=[10], p={"absolute": [0.3]}, trials=1,
            tier="heuristic", restarts=2,
        )))
        assert cli_main(["audit", "--config", str(cfg)]) == EXIT_PARTIAL
        _, _, rows = read_rows(tmp_path / "run.csv")
        assert [r["row_type"] for r in rows] == ["skip"]
        assert list(rows[0].values())[-1] == "copy guard: more than 10 generalized-triangle copies"
        assert json.loads((tmp_path / "run.json").read_text())["trials"] == []


class TestTuranTable:
    def test_two_uniform_table(self, tmp_path):
        doc = base_doc(
            tmp_path, kind="turan-table", k=2, n=[4, 5, 6, 7, 8, 9],
            p={"absolute": [1.0]},
        )
        out = run_turan_table(config_from_dict(doc))
        assert out.status == EXIT_CLEAN
        _, cols, rows = read_rows(out.files[0])
        assert cols == ["row_type", "k", "n", "host_edges", "ex_value", "certified",
                        "turan_edges", "kpartite_optimum"]
        for r in rows:
            n = int(r["n"])
            assert int(r["ex_value"]) == n * n // 4
            assert r["certified"] == "true"
            assert r["kpartite_optimum"] == "true"

    def test_three_uniform_five_vertices(self, tmp_path):
        doc = base_doc(tmp_path, kind="turan-table", k=3, n=[5], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        _, _, rows = read_rows(out.files[0])
        r = rows[0]
        assert int(r["ex_value"]) == 6 and int(r["turan_edges"]) == 4
        assert r["kpartite_optimum"] == "false"

    def test_four_uniform_seven_vertices(self, tmp_path):
        doc = base_doc(tmp_path, kind="turan-table", k=4, n=[7], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        _, _, rows = read_rows(out.files[0])
        r = rows[0]
        assert r["certified"] == "true"
        assert int(r["ex_value"]) == 20 and int(r["turan_edges"]) == 8
        assert r["kpartite_optimum"] == "false"

    def test_four_uniform_eight_vertices(self, tmp_path):
        # the star C(7, 3) = 35 is the extremum; the search certifies it
        doc = base_doc(tmp_path, kind="turan-table", k=4, n=[8], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        assert out.status == EXIT_CLEAN
        _, _, rows = read_rows(out.files[0])
        r = rows[0]
        assert r["certified"] == "true"
        assert int(r["ex_value"]) == 35 and int(r["turan_edges"]) == 16
        assert r["kpartite_optimum"] == "false"

    def test_cap_exceeded_fails(self, tmp_path, monkeypatch):
        # the default k = 4 cap is 9 (K⁴₉ certifies in seconds); n = 10 is
        # refused before any host is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("a capped host was solved")

        monkeypatch.setattr(mantelab.experiments, "max_tfree_exact", no_solve)
        doc = base_doc(tmp_path, kind="turan-table", k=4, n=[10], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        assert out.status == EXIT_FAILED
        assert "n=[10] above the exact cap 9 for k=4" in out.message


def _no_libc(name):
    raise OSError("no C library")


def assert_same_solve_json(written: str, stdout: str) -> None:
    """A solve result written by --out has stdout's layout and, apart from the
    wall-clock elapsed, its values."""
    doc, want = json.loads(written), json.loads(stdout)
    assert written == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    doc.pop("elapsed"), want.pop("elapsed")
    assert doc == want


class TestCli:
    def test_generate_solve_roundtrip(self, tmp_path, capsys):
        host = tmp_path / "g.hyp"
        rc = cli_main([
            "generate", "--n", "10", "--k", "4", "--p", "0.4",
            "--seed", "5", "--out", str(host),
        ])
        assert rc == 0
        g = read_text(str(host))
        assert g == sample_gknp(10, 4, 0.4, derive_seed(5, 0))
        out_json = tmp_path / "res.json"
        solve = ["solve", "--in", str(host), "--problem", "cut4", "--tier", "exact"]
        assert cli_main(solve + ["--out", str(out_json)]) == 0
        capsys.readouterr()
        assert cli_main(solve) == 0
        assert_same_solve_json(out_json.read_text(), capsys.readouterr().out)
        doc = json.loads(out_json.read_text())
        assert doc["optimal"] is True
        from mantelab.solvers import max_cut4_exact

        assert doc["value"] == max_cut4_exact(g).value

    @pytest.mark.parametrize("tier,flags,to_file", [
        ("exact", ["--max-nodes", "40"], True),
        ("exact", [], False),
        ("heuristic", ["--restarts", "3"], True),
    ], ids=["exact-budgeted", "exact-stdout", "heuristic"])
    def test_solve_tfree(self, tmp_path, capsys, tier, flags, to_file):
        from mantelab.solvers import Budget, max_tfree_exact, max_tfree_repair

        host = tmp_path / "g.hyp"
        cli_main(["generate", "--n", "9", "--k", "4", "--p", "0.4", "--seed", "3",
                  "--out", str(host)])
        capsys.readouterr()
        out_json = tmp_path / "res.json"
        solve = ["solve", "--in", str(host), "--problem", "tfree", "--tier", tier,
                 "--seed", "11", *flags]
        rc = cli_main(solve + (["--out", str(out_json)] if to_file else []))
        assert rc == EXIT_CLEAN
        stdout = capsys.readouterr().out
        if to_file:
            assert stdout == ""
            assert cli_main(solve) == EXIT_CLEAN
            assert_same_solve_json(out_json.read_text(), capsys.readouterr().out)
        doc = json.loads(out_json.read_text() if to_file else stdout)
        g = read_text(str(host))
        if tier == "exact":
            res = max_tfree_exact(g, Budget(max_nodes=40 if flags else None))
        else:
            res = max_tfree_repair(g, derive_seed(11, 0), 3)
        assert (doc["problem"], doc["tier"]) == ("tfree", tier)
        assert (doc["value"], doc["optimal"]) == (res.value, res.optimal)
        assert doc["witness"] == [list(e) for e in res.witness.edges]
        assert len(doc["witness"]) == doc["value"]

    def test_fmt_roundtrip_identical(self, tmp_path, capsys):
        host = tmp_path / "g.hyp"
        cli_main(["generate", "--n", "8", "--k", "3", "--p", "0.5", "--out", str(host)])
        out = tmp_path / "canon.hyp"
        rc = cli_main(["fmt-roundtrip", "--in", str(host), "--out", str(out)])
        assert rc == 0
        assert "identical" in capsys.readouterr().out
        assert out.read_bytes() == host.read_bytes()
        assert out.read_text() == to_text(read_text(str(host)))

    def test_fmt_roundtrip_canonicalizes(self, tmp_path, capsys):
        path = tmp_path / "messy.hyp"
        path.write_text("7 4 3\n3 4 5 6\n0 1 2 3\n0 1 2 4\n")
        out = tmp_path / "canon.hyp"
        rc = cli_main(["fmt-roundtrip", "--in", str(path), "--out", str(out)])
        assert rc == 0
        assert "canonicalized" in capsys.readouterr().out
        assert out.read_bytes() == b"7 4 3\n0 1 2 3\n0 1 2 4\n3 4 5 6\n"
        assert out.read_text() == to_text(from_text(path.read_text()))

    def test_phase_subcommand_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, trials=1)))
        rc = cli_main([
            "phase", "--config", str(cfg), "--seed", "77",
            "--out", str(tmp_path / "ov"), "--threads", "2",
        ])
        assert rc == 0
        header, _, rows = read_rows(tmp_path / "ov.csv")
        assert '"master_seed":77' in header[2]
        assert any(r["row_type"] == "trial" for r in rows)

    def test_kind_mismatch_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, kind="audit")))
        rc = cli_main(["phase", "--config", str(cfg)])
        assert rc == 1

    def test_malformed_config_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert cli_main(["phase", "--config", str(cfg)]) == 1

    def test_config_not_an_object_fails(self, tmp_path, capsys):
        doc = [base_doc(tmp_path)]
        with pytest.raises(ConfigError, match="^config must be a JSON object$"):
            config_from_dict(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["phase", "--config", str(cfg)]) == EXIT_FAILED
        assert capsys.readouterr().err == "error: config must be a JSON object\n"
        assert not (tmp_path / "run.csv").exists()

    def test_each_kind_has_a_runner_and_one_command(self):
        kinds = mantelab.experiments.KINDS
        assert kinds == tuple(mantelab.experiments._RUNNERS)
        by_command = mantelab.cli._KIND_BY_COMMAND
        assert sorted(by_command.values()) == sorted(kinds)
        assert {c: k for c, k in by_command.items() if c != k} == {"phase": "phase-sweep"}
        parser = mantelab.cli._build_parser()
        for command in by_command:
            assert parser.parse_args([command, "--config", "c.json"]).command == command

    @pytest.mark.parametrize(
        "flag,value", [("--restarts", "-3"), ("--restarts", "0"),
                       ("--max-nodes", "-1"), ("--max-seconds", "-1")]
    )
    def test_solve_out_of_range_error_line(self, tmp_path, capsys, flag, value):
        host = tmp_path / "g.hyp"
        host.write_text("7 4 3\n0 1 2 3\n0 1 2 4\n3 4 5 6\n")
        out = tmp_path / "res.json"
        rc = cli_main([
            "solve", "--in", str(host), "--problem", "tfree", "--tier", "heuristic",
            flag, value, "--out", str(out),
        ])
        assert rc == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= ")
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["solve", "--problem", "cut4"]) == 1

    def test_threads_env_default(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, trials=1, out=str(tmp_path / "envrun"))))
        monkeypatch.setenv("MANTELAB_THREADS", "2")
        assert cli_main(["phase", "--config", str(cfg)]) == 0
        header, _, rows = read_rows(tmp_path / "envrun.csv")
        assert any(r["row_type"] == "trial" for r in rows)

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["cdll-raises", "no-mallopt"])
    def test_missing_mallopt_is_a_no_op(self, tmp_path, capsys, monkeypatch, cdll):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(kind="concentration", n=[12], p={"absolute": [0.5]},
                                       trials=2, master_seed=9, out="run")))

        def run(where):
            where.mkdir()
            monkeypatch.chdir(where)
            assert cli_main(["concentration", "--config", str(cfg)]) == EXIT_CLEAN
            return {path.name: path.read_bytes() for path in where.iterdir()}

        plain = run(tmp_path / "plain")
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(name) or cdll(name))
        assert run(tmp_path / "patched") == plain
        assert calls == [None]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt only")
    def test_freed_heap_is_reused(self):
        # a fresh process, as the setting is process-wide.  A 16 MB array is
        # under the 32 MB mmap threshold, so its freed pages stay in the heap
        # for the next pass; with glibc's defaults the first array is mapped
        # and unmapped, and the second pass faults its pages in again
        code = (
            "import resource, numpy as np\n"
            "from mantelab.cli import _keep_freed_heap\n"
            "_keep_freed_heap()\n"
            "faults = []\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    a = np.ones(2 << 20)\n"
            "    del a\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(faults)\n"
        )
        src = str(Path(mantelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        first, *rest = json.loads(done.stdout)
        assert all(10 * later < first for later in rest), (first, rest)


def _load_bench_worker():
    """perfbench/worker.py as a module, loaded without running or installing anything."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


class TestBenchmarkHooks:
    """The attributes the benchmark's traced runs wrap must stay in place.

    An import that looks dead (count_T in solvers, best_partition_for in
    experiments) is one of them; dropping it would break only the traced runs.
    """

    def test_patched_names_are_callables(self):
        for module_name, names in _load_bench_worker().PATCHES.items():
            module = importlib.import_module(module_name)
            for name in names:
                assert callable(getattr(module, name, None)), f"{module_name}.{name}"

    def test_indexes_are_cached_properties(self):
        for name in _load_bench_worker().INDEXES:
            assert isinstance(vars(Hypergraph).get(name), cached_property), name

    def test_dense_cut_path(self):
        # the dense_cut units call these three directly, not through the CLI
        from mantelab.solvers import max_cut4_exact

        g = sample_gknp(8, 4, 0.5, derive_seed(1, 0))
        res = max_cut4_exact(g)
        assert res.optimal
        assert _load_bench_worker()._crossing_count(g.edges, res.witness.assignment) == res.value


class TestExports:
    """A name left in ``__all__`` after its definition is gone breaks star imports."""

    @pytest.mark.parametrize(
        "module_name",
        sorted(f"mantelab.{m.name}" for m in pkgutil.iter_modules(mantelab.__path__)),
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

    def test_package_star_import(self):
        namespace: dict = {}
        exec("from mantelab import *", namespace)
        assert "max_tfree_exact" in namespace
