"""Command-line entry point.

Subcommands: debias (rewrite a CSV), audit (score a standalone estimates
file), run-study (reproduce a bundled case study), synth-check (ground-truth
harness). Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
failure. All outputs are written atomically and are byte-identical across
reruns with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .debias import (
    DebiasConfig,
    leakage_probe,
    save_debias_model,
    train_debiaser,
    transform,
    write_trace_csv,
)
from .ioutil import write_json
from .mlcore import SingularSystemError, TrainingDivergedError
from .studies import StudyConfig, run_study
from .synth import SyntheticSpec, synth_check
from .tabular import (
    DataError,
    SchemaError,
    load_csv,
    load_schema,
    read_csv_columns,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DATA_DIR_ENV = "FAIRPREP_DATA_DIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    debias, spec = DebiasConfig(), SyntheticSpec()  # the defaults the options keep
    parser = _Parser(prog="fairprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("debias", help="rewrite a CSV so a protected column is unrecoverable")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--schema", required=True, help="schema JSON (list of column specs)")
    p.add_argument("--protected", required=True,
                   help="comma-separated protected column name(s); overrides schema roles")
    p.add_argument("--output", required=True, help="debiased CSV path")
    p.add_argument("--model-out", help="fitted model JSON path")
    p.add_argument("--report", help="report JSON path (training trace, probe AUCs)")
    p.add_argument("--trace-csv", help="training trace CSV path")
    p.add_argument("--lambda", dest="adversary_weight", type=float, default=debias.adversary_weight,
                   help="adversary weight (0 = plain autoencoder)")
    p.add_argument("--epochs", type=int, default=debias.epochs)
    p.add_argument("--latent", dest="latent_dim", type=int, default=debias.latent_dim)
    p.add_argument("--adversary-steps", type=int, default=debias.adversary_steps)
    p.add_argument("--seed", type=int, default=debias.seed)

    p = sub.add_parser("audit", help="bias table from a standalone estimates CSV")
    p.add_argument("--estimates", required=True,
                   help="CSV with an 'estimate' column plus group/stratum columns")
    p.add_argument("--groups", required=True, help="name of the group column")
    p.add_argument("--strata", help="name of the stratum column (omit for a single stratum)")
    p.add_argument("--group-pair", help="comma-separated pair of groups to compare")
    p.add_argument("--bins", type=int, default=audit_mod.BINS)
    p.add_argument("--range", dest="value_range", default=",".join(map(str, audit_mod.VALUE_RANGE)),
                   help="histogram range lo,hi")
    p.add_argument("--report", help="report JSON path")

    p = sub.add_parser("run-study", help="run a case-study config end to end")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--seeds", type=int, default=None,
                   help="run seeds 0..n-1 instead of the config's seed list")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data-dir", default=None,
                   help=f"dataset cache directory (default ${DATA_DIR_ENV})")

    p = sub.add_parser("synth-check", help="ground-truth check on synthetic biased data")
    p.add_argument("--n", type=int, default=spec.n)
    p.add_argument("--beta", dest="bias_strength", type=float, default=spec.bias_strength,
                   help="label-corruption strength")
    p.add_argument("--rho", dest="proxy_strength", type=float, default=spec.proxy_strength,
                   help="proxy correlation strength")
    p.add_argument("--prevalence", type=float, default=spec.prevalence)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--report", help="report JSON path")
    return parser


def _config(cls, args):
    """A `cls` made from the options named after its fields; a value it refuses is a usage error."""
    try:
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_debias(args) -> int:
    schema = load_schema(args.schema)
    protected = [s.strip() for s in args.protected.split(",") if s.strip()]
    if not protected:
        raise _UsageError("--protected needs at least one column name")
    for i, name in enumerate(protected):
        if name in protected[:i]:
            raise _UsageError(f"--protected names {name!r} twice")
    names = {s.name for s in schema}
    for name in protected:
        if name not in names:
            raise SchemaError(f"--protected column {name!r} not in schema")
    relabeled = [
        replace(s, role="protected" if s.name in protected else "feature" if s.role == "protected" else s.role)
        for s in schema
    ]
    # drop-role columns (ids, free text) stay out of the model; transform carries them
    table = load_csv(args.input, relabeled)

    cfg = _config(DebiasConfig, args)
    report = {
        "config": asdict(cfg),
        "input": os.path.basename(args.input),
        "protected": protected,
        "n_rows": table.n_rows,
    }
    try:
        model, trace = train_debiaser(table, cfg)
    except TrainingDivergedError as exc:
        if args.report and exc.trace is not None:
            report["error"] = str(exc)
            report["trace"] = asdict(exc.trace)
            write_json(args.report, report)
        raise

    debiased = transform(model, table)
    if args.report:  # probed before any file is written, so a failed probe leaves none behind
        report["leakage_probe_auc"] = {
            name: {"pre": leakage_probe(table, name, args.seed),
                   "post": leakage_probe(debiased, name, args.seed)}
            for name in protected
        }
        report["trace"] = asdict(trace)
    write_csv(debiased, args.output)
    if args.model_out:
        save_debias_model(model, args.model_out)
    if args.trace_csv:
        write_trace_csv(trace, args.trace_csv)
    if args.report:
        write_json(args.report, report)
    return EXIT_OK


def _cmd_audit(args) -> int:
    pair = None
    if args.group_pair:
        pair = tuple(p.strip() for p in args.group_pair.split(","))
        if len(pair) != 2:
            raise _UsageError("--group-pair needs exactly two comma-separated labels")
    try:
        lo, hi = (float(v) for v in args.value_range.split(","))
        audit_mod.check_settings(args.bins, (lo, hi), pair)
    except DataError as exc:
        raise _UsageError(str(exc)) from None
    except ValueError:
        raise _UsageError("--range must be lo,hi") from None
    path = Path(args.estimates)
    header, columns = read_csv_columns(path)
    if not any(columns):
        raise DataError(f"{path}: no data rows")
    index = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    for col in ["estimate", args.groups] + ([args.strata] if args.strata else []):
        if col not in index:
            raise DataError(f"{path}: missing column {col!r}")
    try:
        estimates = np.array(columns[index["estimate"]], dtype=float)
    except ValueError as exc:
        raise DataError(f"{path}: unparseable estimate: {exc}") from None
    groups = columns[index[args.groups]]
    strata = columns[index[args.strata]] if args.strata else ["all"] * len(groups)
    report = audit_mod.audit(
        estimates,
        groups,
        strata,
        group_pair=pair,
        bins=args.bins,
        value_range=(lo, hi),
        metadata={
            "estimates": os.path.basename(args.estimates),
            "groups_column": args.groups,
            "strata_column": args.strata,
            "group_pair": list(pair) if pair else None,
            "bins": args.bins,
            "range": [lo, hi],
        },
    )
    sys.stdout.write(audit_mod.render_bias_table(report.bias_table))
    if args.report:
        write_json(args.report, audit_mod.report_jsonable(report))
    return EXIT_OK


def _cmd_run_study(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        raise _UsageError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = StudyConfig.from_json(args.config)
    seeds = list(range(args.seeds)) if args.seeds is not None else None
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    result = run_study(cfg, out_dir=args.out, data_dir=data_dir, seeds=seeds)
    agg = result.aggregate
    for stratum, scores in agg["bias_scores"].items():
        sys.stdout.write(
            f"{cfg.name} [{stratum}] bias median: "
            f"{scores['pre']['median']:.3f} -> {scores['post']['median']:.3f}\n"
        )
    perf = agg["performance"]
    sys.stdout.write(
        f"{cfg.name} {perf['metric']} median: "
        f"{perf['pre']['median']:.3f} -> {perf['post']['median']:.3f}\n"
    )
    if result.source.get("warning"):
        sys.stdout.write(f"warning: {result.source['warning']}\n")
    return EXIT_OK


def _cmd_synth_check(args) -> int:
    spec = _config(SyntheticSpec, args)
    result = synth_check(spec)
    sys.stdout.write(
        f"probe AUC {result.probe_auc_pre:.3f} -> {result.probe_auc_post:.3f}\n"
        f"fair-label accuracy {result.fair_accuracy_pre:.3f} -> {result.fair_accuracy_post:.3f}\n"
    )
    pre = sum(result.bias_scores_pre.values()) / len(result.bias_scores_pre)
    post = sum(result.bias_scores_post.values()) / len(result.bias_scores_post)
    sys.stdout.write(f"bias score (mean over strata) {pre:.3f} -> {post:.3f}\n")
    if spec.bias_strength == 0.0 and spec.proxy_strength == 0.0:
        sys.stdout.write("no bias injected: pre and post should match\n")
    if args.report:
        write_json(args.report, result.to_jsonable())
    return EXIT_OK


_HANDLERS = {
    "debias": _cmd_debias,
    "audit": _cmd_audit,
    "run-study": _cmd_run_study,
    "synth-check": _cmd_synth_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops an option value of "--": `--range=--` arrives as an empty list
        if any(isinstance(value, list) for value in vars(args).values()):
            raise _UsageError("an option value cannot be '--'")
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    # OSError: a missing input, or an output that cannot be written (the writers name its path);
    # MemoryError: a size option past what this machine can allocate
    except (SchemaError, DataError, OSError, json.JSONDecodeError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except (TrainingDivergedError, SingularSystemError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
