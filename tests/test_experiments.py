import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import re
from functools import cached_property
from pathlib import Path

import pytest

import mantelab
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
        {".csv": "b86677de805b5cc7355376d06f5168c76a102cddc0f3222332059e80f12b9780"},
    ),
    "phase_heuristic": (
        dict(kind="phase-sweep", n=[10], p={"absolute": [0.0, 0.3]}, trials=2,
             tier="heuristic", restarts=2),
        {".csv": "895adf7780ec2509d1406585f91888a791c3c61aa99d7a63dbf2c357e8606e45"},
    ),
    "concentration": (
        dict(kind="concentration", n=[12], p={"absolute": [0.0, 0.5]}, trials=2),
        {".csv": "f4f4b811cd4baaa49ab6391e3d4e5edeb2174f28e364a0e296d698656e78b35a"},
    ),
    "audit_exact": (
        dict(kind="audit", n=[8, 16], p={"absolute": [0.4]}, trials=2, tier="exact"),
        {
            ".csv": "ca612c474aff810c493e4ec1e2d2c7b9893e970e9336bd9a852df13b175e8032",
            ".json": "c5dd3f4e2791e2eeb02dd88e56c9417e0fe8f4c73535feba1a29f6a91e477ae8",
        },
    ),
    "audit_heuristic": (
        dict(kind="audit", n=[10], p={"absolute": [0.3]}, trials=2,
             tier="heuristic", restarts=2),
        {
            ".csv": "a42a6d8b338d647c78ce5a9b0a4dfdd0792806d7cd7985808831820b9e442f2e",
            ".json": "0d77a1a682c3d148b6c018fc693ee0390738ae693492132e5d66c549312128f4",
        },
    ),
    "turan_table": (
        dict(kind="turan-table", k=3, n=[5, 6]),
        {".csv": "1afcfe17fab2b3b89326db91a38963275b0c83d096f47f8a4b3ef96fa55ccdc8"},
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
        "audit_exact": ["t_sample", "t_tfree", "t_partition", "t_audit", "t_gap"],
    }[name]
    assert cols[-len(timings):] == timings
    assert {ln.split(",")[0] for ln in lines[1:]} >= {"trial", "skip"}
    assert all(len(ln.split(",")) == len(cols) for ln in lines[1:])


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


# fields whose wrong JSON type used to escape as AttributeError or TypeError,
# or to be accepted as a string ("trials": "2")
_WRONG_TYPES = [
    ("budget", 5),
    ("p", "0.3"),
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
# Infinity (and 1e400 as Infinity); the audit divides by eps1, eps2, delta,
# eps3 and 1 - eps.
_BAD_NUMBERS = [
    ({"p": {"logn_multipliers": [math.nan]}}, "p.logn_multipliers item"),
    ({"p": {"absolute": [math.nan]}}, "p.absolute item"),
    ({"eps": math.inf}, "eps"),
    ({"budget": {"max_seconds": math.inf}}, "budget.max_seconds"),
    ({"constants": {"alpha": math.nan}}, "constants.alpha"),
    ({"constants": {"xi": -math.inf}}, "constants.xi"),
    ({"constants": {"eps": 1}}, "constants.eps"),
    ({"constants": {"eps1": 0}}, "constants.eps1"),
    ({"constants": {"eps2": 0}}, "constants.eps2"),
    ({"constants": {"delta": 0}}, "constants.delta"),
    ({"constants": {"eps3": "0"}}, "constants.eps3"),
]


@pytest.mark.parametrize("overrides,name", _BAD_NUMBERS, ids=[b[1] for b in _BAD_NUMBERS])
class TestBadNumber:
    def test_config_error(self, tmp_path, overrides, name):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
            config_from_dict(base_doc(tmp_path, kind="audit", **overrides))

    def test_cli_error_line(self, tmp_path, capsys, overrides, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(tmp_path, kind="audit", **overrides)))
        assert cli_main(["audit", "--config", str(cfg)]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "run.csv").exists()


# misspelt keys, once ignored: (overrides, the name the error must give)
_UNKNOWN_KEYS = [
    ({"trails": 5}, "trails"),
    ({"budget": {"max_node": 10}}, "budget.max_node"),
    ({"p": {"absolute": [0.5], "logn_multiplier": [1.0]}}, "p.logn_multiplier"),
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
        assert header[0] == "# schema=mantelab.phase.v1"
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
        assert payload["schema"] == "mantelab.audit.v1"
        assert len(payload["trials"]) == 2
        t = payload["trials"][0]
        assert {"audit", "decomposition", "gap", "seed"} <= set(t)
        assert t["gap"]["interpretation"] in (
            "consistent", "inconsistent-at-scale", "inconclusive"
        )
        # labels in the audit block match the decomposition block
        assert t["audit"]["sizes"]["defect_1"] == t["decomposition"]["defect_sizes"][0]

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
        _, _, rows = read_rows(out.files[0])
        for r in rows:
            n = int(r["n"])
            assert int(r["ex_value"]) == n * n // 4
            assert r["certified"] == "true"
            assert r["equality"] == "true"
            assert r["kpartite_optimum"] == "true"

    def test_three_uniform_five_vertices(self, tmp_path):
        doc = base_doc(tmp_path, kind="turan-table", k=3, n=[5], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        _, _, rows = read_rows(out.files[0])
        r = rows[0]
        assert int(r["ex_value"]) == 6 and int(r["turan_edges"]) == 4
        assert r["equality"] == "false" and r["kpartite_optimum"] == "false"

    def test_four_uniform_seven_vertices(self, tmp_path):
        doc = base_doc(tmp_path, kind="turan-table", k=4, n=[7], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        _, _, rows = read_rows(out.files[0])
        r = rows[0]
        assert r["certified"] == "true"
        assert int(r["ex_value"]) == 20 and int(r["turan_edges"]) == 8
        assert r["equality"] == "false"

    def test_four_uniform_eight_vertices(self, tmp_path):
        # the star C(7, 3) = 35 is the extremum; the search certifies it
        doc = base_doc(tmp_path, kind="turan-table", k=4, n=[8], p={"absolute": [1.0]})
        out = run_turan_table(config_from_dict(doc))
        assert out.status == EXIT_CLEAN
        _, _, rows = read_rows(out.files[0])
        r = rows[0]
        assert r["certified"] == "true"
        assert int(r["ex_value"]) == 35 and int(r["turan_edges"]) == 16
        assert r["equality"] == "false"

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
        rc = cli_main([
            "solve", "--in", str(host), "--problem", "cut4", "--tier", "exact",
            "--out", str(out_json),
        ])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert doc["optimal"] is True
        from mantelab.solvers import max_cut4_exact

        assert doc["value"] == max_cut4_exact(g).value

    def test_fmt_roundtrip_identical(self, tmp_path, capsys):
        host = tmp_path / "g.hyp"
        cli_main(["generate", "--n", "8", "--k", "3", "--p", "0.5", "--out", str(host)])
        rc = cli_main(["fmt-roundtrip", "--in", str(host)])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_fmt_roundtrip_canonicalizes(self, tmp_path, capsys):
        path = tmp_path / "messy.hyp"
        path.write_text("7 4 3\n3 4 5 6\n0 1 2 3\n0 1 2 4\n")
        out = tmp_path / "canon.hyp"
        rc = cli_main(["fmt-roundtrip", "--in", str(path), "--out", str(out)])
        assert rc == 0
        assert "canonicalized" in capsys.readouterr().out
        assert out.read_text() == "7 4 3\n0 1 2 3\n0 1 2 4\n3 4 5 6\n"

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
