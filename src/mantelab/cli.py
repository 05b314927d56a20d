"""Command-line front end for the experiment harness.

Subcommands: generate, solve, phase, concentration, audit, turan-table,
fmt-roundtrip.  Experiments take a single JSON config file plus --seed and
--out overrides, and run their trials serially in trial order; --threads is
accepted and ignored.  Exit codes: 0 clean, 2 partial (cells skipped), 1
failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .experiments import ConfigError, load_config
from .hypergraph import from_text, read_text, to_text, write_text
from .randgen import derive_seed, sample_gknp
from .solvers import Budget, max_cut4_exact, max_cut4_local, max_tfree_exact, max_tfree_repair


class _Parser(argparse.ArgumentParser):
    # usage errors are failures, not "partial": exit 1 per the harness contract
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(experiments.EXIT_FAILED)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mantelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a random hypergraph to a text file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=4)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0, help="master seed (trial 0 is used)")
    gen.add_argument("--trial", type=int, default=0)
    gen.add_argument("--out", required=True)

    slv = sub.add_parser("solve", help="solve one instance from a hypergraph file")
    slv.add_argument("--in", dest="path", required=True)
    slv.add_argument("--problem", choices=("tfree", "cut4"), required=True)
    slv.add_argument("--tier", choices=("exact", "heuristic"), default="exact")
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--restarts", type=int, default=8)
    slv.add_argument("--max-nodes", type=int, default=None)
    slv.add_argument("--max-seconds", type=float, default=None)
    slv.add_argument("--out", default=None, help="write the result JSON here instead of stdout")

    for kind in ("phase", "concentration", "audit", "turan-table"):
        sp = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None, help="override master_seed")
        sp.add_argument("--out", default=None, help="override output path")
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: trials run serially")

    fmt = sub.add_parser("fmt-roundtrip", help="canonicalize a hypergraph file and verify stability")
    fmt.add_argument("--in", dest="path", required=True)
    fmt.add_argument("--out", default=None, help="write the canonical form here")
    return parser


_KIND_BY_COMMAND = {
    "phase": "phase-sweep",
    "concentration": "concentration",
    "audit": "audit",
    "turan-table": "turan-table",
}


def _run_generate(args) -> int:
    g = sample_gknp(args.n, args.k, args.p, derive_seed(args.seed, args.trial))
    write_text(g, args.out)
    print(f"wrote {args.out}: n={g.n} k={g.k} m={len(g)}")
    return experiments.EXIT_CLEAN


def _run_solve(args) -> int:
    for flag, value, low in (
        ("--restarts", args.restarts, 1),
        ("--max-nodes", args.max_nodes, 0),
        ("--max-seconds", args.max_seconds, 0),
    ):
        if value is not None and not value >= low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    g = read_text(args.path)
    budget = Budget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    seed = derive_seed(args.seed, 0)
    if args.problem == "tfree":
        res = max_tfree_exact(g, budget) if args.tier == "exact" else max_tfree_repair(g, seed, args.restarts)
        witness = [list(e) for e in res.witness.edges]
    else:
        res = max_cut4_exact(g, budget) if args.tier == "exact" else max_cut4_local(g, seed, args.restarts)
        witness = list(res.witness.assignment)
    doc = {
        "problem": args.problem,
        "tier": args.tier,
        "value": res.value,
        "optimal": res.optimal,
        "witness": witness,
        "nodes": res.stats.nodes,
        "elapsed": res.stats.elapsed,
        "budget_hit": res.stats.budget_hit,
        "budget": {"max_nodes": args.max_nodes, "max_seconds": args.max_seconds},
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return experiments.EXIT_CLEAN


def _run_experiment(command: str, args) -> int:
    cfg = load_config(args.config)
    if cfg.kind != _KIND_BY_COMMAND[command]:
        raise ConfigError(
            f"config kind {cfg.kind!r} does not match the {command!r} subcommand"
        )
    doc = cfg.raw_dict()
    if args.seed is not None:
        doc["master_seed"] = args.seed
    if args.out is not None:
        doc["out"] = args.out
    cfg = experiments.config_from_dict(doc)
    outcome = experiments.run_experiment(cfg)
    for path in outcome.files:
        print(f"wrote {path}")
    print(outcome.message)
    return outcome.status


def _run_fmt_roundtrip(args) -> int:
    with open(args.path, "r", newline="") as fh:
        original = fh.read()
    g = from_text(original)
    canonical = to_text(g)
    stable = to_text(from_text(canonical)) == canonical
    if not stable:
        print("canonical form is not a fixpoint", file=sys.stderr)
        return experiments.EXIT_FAILED
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(canonical)
        print(f"wrote {args.out}")
    if original == canonical:
        print("roundtrip: identical")
    else:
        print("roundtrip: canonicalized (input was not in canonical order)")
    return experiments.EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _run_generate(args)
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "fmt-roundtrip":
            return _run_fmt_roundtrip(args)
        return _run_experiment(args.command, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return experiments.EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
