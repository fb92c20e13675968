"""Batch command-line interface.

Every subcommand writes a machine-readable ``result.json`` (validating
against the schema shipped in ``multiscreen/schemas``) plus human-readable
CSV tables into ``--out``. Exit codes: 0 success, 2 input/usage error,
3 numerical failure. All randomness is seeded from the command line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .data_io import load_multistudy, write_csv_atomic, write_json_atomic
from .errors import InputError, MultiscreenError, NumericalError
from .group_select import ols_refit, tsa_sis_group_lasso
from .multi_pc import DEFAULT_BUDGET, multi_pc_run
from .screening import (ScreeningConfig, _top_d, min_sis_rank, one_step_sis,
                        top_d_selection, tsa_sis)
from .simulate import LevelGrid, MethodSpec, RocGrid, SimSetting, replicate

_DEF_ALPHA1 = 1e-4
_DEF_ALPHA2 = 0.05


def _env_threads() -> int:
    raw = os.environ.get("MULTISCREEN_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"MULTISCREEN_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise InputError(f"MULTISCREEN_THREADS must be at least 1, got {raw!r}")
    return value


def _jf(v):
    """JSON-safe float: non-finite becomes null."""
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _write_result(out_dir: str, command: str, config: dict, seed,
                  result: dict) -> None:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {"multiscreen": __version__, "numpy": np.__version__},
        "result": result,
    }
    write_json_atomic(os.path.join(out_dir, "result.json"), payload)


def _records_payload(data, screening):
    features = [{
        "index": rec.feature,
        "name": data.feature_names[rec.feature],
        "t_stats": [float(t) for t in rec.t_stats],
        "l_hat": list(rec.l_hat),
        "kappa_hat": rec.kappa_hat,
        "l_stat": _jf(rec.l_stat),
        "chi2_threshold": _jf(rec.chi2_threshold),
        "kept": rec.kept,
    } for rec in screening.records]
    return {
        "study_ids": [s.id for s in data.studies],
        "method": screening.method,
        "features": features,
        "kept": [data.feature_names[j] for j in screening.kept],
        "dropped": [data.feature_names[j] for j in screening.dropped],
    }


def _cmd_screen(args) -> int:
    if args.d is not None and args.method != "minsis":
        raise InputError("--d is only valid with --method minsis")
    data = load_multistudy(args.manifest)
    config = {
        "manifest": args.manifest,
        "alpha1": args.alpha1,
        "alpha2": args.alpha2,
        "method": args.method,
        "d": args.d,
    }
    if args.method == "minsis":
        d = _top_d(min(s.n for s in data.studies), args.d)
        ranking = min_sis_rank(data)
        kept, dropped = top_d_selection(ranking, min(d, data.p), data.p)
        kept_set = set(kept)
        ranked = [(j, rank, score)
                  for rank, (j, score) in enumerate(ranking, start=1)]
        result = {
            "study_ids": [s.id for s in data.studies],
            "method": "minsis",
            "d": d,
            "ranking": [{"index": j, "name": data.feature_names[j],
                         "score": _jf(score), "rank": rank,
                         "kept": j in kept_set} for j, rank, score in ranked],
            "kept": [data.feature_names[j] for j in kept],
            "dropped": [data.feature_names[j] for j in dropped],
        }
        rows = [[data.feature_names[j], j, rank, repr(float(score)),
                 j in kept_set] for j, rank, score in sorted(ranked)]
        write_csv_atomic(os.path.join(args.out, "records.csv"),
                         ["feature", "index", "rank", "score", "kept"], rows)
    else:
        screening = tsa_sis(data, ScreeningConfig(args.alpha1, args.alpha2)) \
            if args.method == "tsa" else one_step_sis(data, args.alpha1)
        result = _records_payload(data, screening)
        rows = [[data.feature_names[rec.feature], rec.feature,
                 ";".join(repr(float(t)) for t in rec.t_stats),
                 ";".join(str(k) for k in rec.l_hat), rec.kappa_hat,
                 "" if rec.l_stat is None else repr(rec.l_stat),
                 "" if rec.chi2_threshold is None else repr(rec.chi2_threshold),
                 rec.kept] for rec in screening.records]
        write_csv_atomic(os.path.join(args.out, "records.csv"),
                         ["feature", "index", "t_stats", "l_hat", "kappa_hat",
                          "l_stat", "chi2_threshold", "kept"], rows)
    _write_result(args.out, "screen", config, None, result)
    return 0


def _cmd_multipc(args) -> int:
    data = load_multistudy(args.manifest)
    config = {
        "manifest": args.manifest,
        "alpha1": args.alpha1,
        "alpha2": args.alpha2,
        "max_order": args.max_order,
        "budget": args.budget,
    }
    state = multi_pc_run(data, ScreeningConfig(args.alpha1, args.alpha2),
                         max_order=args.max_order, budget=args.budget)
    result = {
        "stage": state.stage,
        "stopped_reason": state.stopped_reason.value,
        "active_sets": [[data.feature_names[j] for j in stage]
                        for stage in state.active_sets],
        "active": [data.feature_names[j] for j in state.active],
    }
    rows = [[m + 1, data.feature_names[j]]
            for m, stage in enumerate(state.active_sets) for j in stage]
    write_csv_atomic(os.path.join(args.out, "active_sets.csv"),
                     ["stage", "feature"], rows)
    _write_result(args.out, "multipc", config, None, result)
    return 0


def _cmd_select(args) -> int:
    data = load_multistudy(args.manifest)
    config = {
        "manifest": args.manifest,
        "alpha1": args.alpha1,
        "alpha2": args.alpha2,
        "tune": args.tune,
        "grid": args.grid,
    }
    model = tsa_sis_group_lasso(data, ScreeningConfig(args.alpha1, args.alpha2),
                                method=args.tune, grid_size=args.grid)
    result = {
        "screened": [data.feature_names[j] for j in model.screened],
        "selected": [data.feature_names[j] for j in model.selected],
        "lambda": _jf(model.lambda_),
        "empty_screen": model.empty_screen,
        "tuning": list(model.diagnostics) if model.diagnostics else [],
    }
    if model.fit is not None:
        result["fit"] = {
            "converged": model.fit.converged,
            "iterations": model.fit.iterations,
            "kkt_residual": _jf(model.fit.kkt_residual),
            "objective": _jf(model.fit.objective_trace[-1]),
            "warning": model.fit.warning,
        }
    coef_rows = []
    summary_rows = []
    if model.selected:
        refits = ols_refit(data, model.selected)
        result["ols"] = []
        for fit in refits:
            coef = {}
            for pos, j in enumerate(model.selected):
                name = data.feature_names[j]
                coef[name] = {"estimate": _jf(fit.coef[pos]),
                              "se": _jf(fit.coef_se[pos])}
                coef_rows.append([fit.study_id, name,
                                  repr(float(fit.coef[pos])),
                                  repr(float(fit.coef_se[pos]))])
            result["ols"].append({
                "study_id": fit.study_id,
                "intercept": _jf(fit.intercept),
                "intercept_se": _jf(fit.intercept_se),
                "r2": _jf(fit.r2),
                "adj_r2": _jf(fit.adj_r2),
                "coefficients": coef,
            })
            summary_rows.append([fit.study_id, repr(float(fit.intercept)),
                                 repr(float(fit.intercept_se)),
                                 repr(float(fit.r2)), repr(float(fit.adj_r2))])
    write_csv_atomic(os.path.join(args.out, "coefficients.csv"),
                     ["study", "feature", "estimate", "se"], coef_rows)
    write_csv_atomic(os.path.join(args.out, "fit_summary.csv"),
                     ["study", "intercept", "intercept_se", "r2", "adj_r2"],
                     summary_rows)
    _write_result(args.out, "select", config, None, result)
    return 0


def _setting_from_args(args) -> SimSetting:
    overrides = {}
    for attr, field_name in (("n", "n"), ("p", "p"), ("k", "K"),
                             ("s0", "s0"), ("b", "B"), ("seed", "seed")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field_name] = value
    return SimSetting.preset(args.setting, **overrides)


def _run_specs(args, specs):
    """The command's setting and its one pass over the replications. Each
    failed replication's message goes to stderr, not into result.json."""
    setting = _setting_from_args(args)
    results = replicate(setting, specs, threads=args.threads)
    for message in dict.fromkeys(m for r in results for m in r.failures):
        print(f"warning: {message}", file=sys.stderr)
    return setting, results


def _sim_config(args, setting, **levels) -> dict:
    return {"setting": args.setting, "n": setting.n, "p": setting.p,
            "k": setting.K, "s0": setting.s0, "b": setting.B, **levels,
            "threads": args.threads}


def _summary_result(summary) -> dict:
    return {
        "b": summary.b,
        "n_failed": summary.n_failed,
        "mean_sensitivity": _jf(summary.mean_sensitivity),
        "se_sensitivity": _jf(summary.se_sensitivity),
        "mean_specificity": _jf(summary.mean_specificity),
        "se_specificity": _jf(summary.se_specificity),
        "mean_fp": _jf(summary.mean_fp),
        "mean_fn": _jf(summary.mean_fn),
        "failures": list(summary.failures),
        "per_rep": [{"sensitivity": _jf(m.sensitivity),
                     "specificity": _jf(m.specificity),
                     "fp": m.fp, "fn": m.fn} for m in summary.per_rep],
    }


def _cmd_simulate(args) -> int:
    setting, (summary,) = _run_specs(
        args, [MethodSpec("tsa", args.alpha1, args.alpha2)])
    config = _sim_config(args, setting, alpha1=args.alpha1,
                         alpha2=args.alpha2)
    result = _summary_result(summary)
    write_csv_atomic(os.path.join(args.out, "metrics.csv"),
                     ["rep", "sensitivity", "specificity", "fp", "fn"],
                     [[i, repr(m.sensitivity), repr(m.specificity), m.fp, m.fn]
                      for i, m in enumerate(summary.per_rep)])
    write_csv_atomic(os.path.join(args.out, "summary.csv"),
                     ["mean_sensitivity", "se_sensitivity",
                      "mean_specificity", "se_specificity", "mean_fp",
                      "mean_fn", "b", "n_failed"],
                     [[repr(summary.mean_sensitivity),
                       repr(summary.se_sensitivity),
                       repr(summary.mean_specificity),
                       repr(summary.se_specificity),
                       repr(summary.mean_fp), repr(summary.mean_fn),
                       summary.b, summary.n_failed]])
    _write_result(args.out, "simulate", config, setting.seed, result)
    return 0


def _cmd_roc(args) -> int:
    setting, (curve, tsa) = _run_specs(
        args, [RocGrid(), MethodSpec("tsa", _DEF_ALPHA1, _DEF_ALPHA2)])
    config = _sim_config(args, setting)
    result = {
        "b": curve.b,
        "n_failed": curve.n_failed,
        "min_sis": [{"d": pt.d, "sensitivity": _jf(pt.sensitivity),
                     "one_minus_specificity": _jf(pt.one_minus_specificity)}
                    for pt in curve.points],
        "tsa_point": {
            "alpha1": _DEF_ALPHA1, "alpha2": _DEF_ALPHA2,
            "sensitivity": _jf(tsa.mean_sensitivity),
            "one_minus_specificity": _jf(1.0 - tsa.mean_specificity),
            "n_failed": tsa.n_failed,
        },
    }
    rows = [["minsis", pt.d, repr(float(pt.sensitivity)),
             repr(float(pt.one_minus_specificity))] for pt in curve.points]
    rows.append(["tsa", "", repr(float(tsa.mean_sensitivity)),
                 repr(float(1.0 - tsa.mean_specificity))])
    write_csv_atomic(os.path.join(args.out, "roc.csv"),
                     ["method", "d", "sensitivity", "one_minus_specificity"],
                     rows)
    _write_result(args.out, "roc", config, setting.seed, result)
    return 0


def _cmd_sensitivity(args) -> int:
    setting, (grid,) = _run_specs(
        args, [LevelGrid(args.alpha1_list, args.alpha2_list)])
    config = _sim_config(args, setting, alpha1_list=list(grid.alpha1_list),
                         alpha2_list=list(grid.alpha2_list))
    cells = []
    for i, a1 in enumerate(grid.alpha1_list):
        for j, a2 in enumerate(grid.alpha2_list):
            cells.append({
                "alpha1": a1, "alpha2": a2,
                "sensitivity": _jf(grid.mean_sensitivity[i, j]),
                "specificity": _jf(grid.mean_specificity[i, j]),
                "se_sensitivity": _jf(grid.se_sensitivity[i, j]),
                "se_specificity": _jf(grid.se_specificity[i, j]),
            })
    result = {"b": grid.b, "n_failed": grid.n_failed, "cells": cells}
    header = ["alpha1"] + [f"alpha2={a2:g}" for a2 in grid.alpha2_list]
    rows = [[f"{a1:g}"] + [f"{sens:.3f}/{spec:.3f}" for sens, spec in
                           zip(grid.mean_sensitivity[i], grid.mean_specificity[i])]
            for i, a1 in enumerate(grid.alpha1_list)]
    write_csv_atomic(os.path.join(args.out, "sensitivity.csv"), header, rows)
    write_csv_atomic(
        os.path.join(args.out, "cells.csv"),
        ["alpha1", "alpha2", "sensitivity", "specificity",
         "se_sensitivity", "se_specificity"],
        [[c["alpha1"], c["alpha2"], repr(c["sensitivity"]),
          repr(c["specificity"]), repr(c["se_sensitivity"]),
          repr(c["se_specificity"])] for c in cells])
    _write_result(args.out, "sensitivity", config, setting.seed, result)
    return 0


def _add_sim_args(sub):
    sub.add_argument("--setting", type=int, required=True, choices=[1, 2, 3, 4])
    for dim in ("--n", "--p", "--k", "--s0"):
        sub.add_argument(dim, type=int, default=None)
    sub.add_argument("--b", type=int, default=None, help="replication count")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: MULTISCREEN_THREADS or 1)")
    sub.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiscreen",
        description="Multi-study variable screening and selection")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    screen = subs.add_parser("screen", help="screen features in a dataset")
    screen.add_argument("--manifest", required=True)
    screen.add_argument("--alpha1", type=float, default=_DEF_ALPHA1)
    screen.add_argument("--alpha2", type=float, default=_DEF_ALPHA2)
    screen.add_argument("--method", choices=["tsa", "onestep", "minsis"],
                        default="tsa")
    screen.add_argument("--d", type=int, default=None,
                        help="kept-set size (minsis only; default floor(n/log n))")
    screen.add_argument("--out", required=True)
    screen.set_defaults(func=_cmd_screen)

    multipc = subs.add_parser("multipc", help="staged partial-correlation selection")
    multipc.add_argument("--manifest", required=True)
    multipc.add_argument("--alpha1", type=float, default=_DEF_ALPHA1)
    multipc.add_argument("--alpha2", type=float, default=_DEF_ALPHA2)
    multipc.add_argument("--max-order", type=int, default=2)
    multipc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    multipc.add_argument("--out", required=True)
    multipc.set_defaults(func=_cmd_multipc)

    select = subs.add_parser("select", help="screen, tune, and fit the group model")
    select.add_argument("--manifest", required=True)
    select.add_argument("--alpha1", type=float, default=_DEF_ALPHA1)
    select.add_argument("--alpha2", type=float, default=_DEF_ALPHA2)
    select.add_argument("--tune", choices=["bic", "cv"], default="bic")
    select.add_argument("--grid", type=int, default=50)
    select.add_argument("--out", required=True)
    select.set_defaults(func=_cmd_select)

    simulate = subs.add_parser("simulate", help="run screening replications")
    _add_sim_args(simulate)
    simulate.add_argument("--alpha1", type=float, default=_DEF_ALPHA1)
    simulate.add_argument("--alpha2", type=float, default=_DEF_ALPHA2)
    simulate.set_defaults(func=_cmd_simulate)

    roc = subs.add_parser("roc", help="ranking-screener ROC plus the two-step point")
    _add_sim_args(roc)
    roc.set_defaults(func=_cmd_roc)

    sensitivity = subs.add_parser("sensitivity",
                                  help="sweep the two significance levels")
    _add_sim_args(sensitivity)
    sensitivity.add_argument("--alpha1-list", type=float, nargs="+",
                             default=[0.01, 0.001, 0.0001])
    sensitivity.add_argument("--alpha2-list", type=float, nargs="+",
                             default=[0.15, 0.05, 0.01, 0.001])
    sensitivity.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "threads", None) is None and hasattr(args, "threads"):
        try:
            args.threads = _env_threads()
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MultiscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
