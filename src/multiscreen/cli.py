"""Batch command-line interface.

Every subcommand returns its result and its human-readable CSV tables;
``main`` then writes the tables and a machine-readable ``result.json``
into ``--out``, so a command that fails writes nothing. Nothing validates
``result.json`` at run time: the tests check it against the schema
shipped in ``multiscreen/schemas``. ``result.json`` records every parsed
flag but ``--out`` and ``--seed`` as its ``config``. Exit codes: 0
success, 2 input/usage error (a data file that cannot be read, or an
``OSError`` while writing into ``--out``, included), 3 numerical failure.
All randomness is seeded from the command line.

CSV cells are Python values written with ``str()``: a float as its
shortest repr, a non-finite one as ``nan`` or ``inf``. A handler returns
its result ready for JSON: every float that can be non-finite has gone
through ``_json``, which makes it null.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
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
# Parsed flags that result.json does not record under "config".
_UNRECORDED = ("command", "func", "out", "seed")
# Simulation flag -> SimSetting field.
_SIM_FIELDS = {"n": "n", "p": "p", "k": "K", "s0": "s0", "b": "B",
               "seed": "seed"}


def _json(value):
    """The JSON form of a result value: a dataclass becomes an object of
    its fields, a dict, list or tuple is converted element by element, and
    a non-finite float becomes null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return _json(vars(value))
    return value


def _write_outputs(args, result: dict, tables: dict) -> None:
    """Write each CSV table, then ``result.json``, into ``args.out``."""
    for name, (header, rows) in tables.items():
        write_csv_atomic(os.path.join(args.out, name), header, rows)
    flags = vars(args)
    write_json_atomic(os.path.join(args.out, "result.json"), {
        "command": args.command,
        "config": {k: v for k, v in flags.items() if k not in _UNRECORDED},
        "seed": flags.get("seed"),
        "versions": {"multiscreen": __version__, "numpy": np.__version__},
        "result": result,
    })


def _cmd_screen(args):
    if args.d is not None and args.method != "minsis":
        raise InputError("--d is only valid with --method minsis")
    data = load_multistudy(args.manifest)
    names = data.feature_names
    result = {"study_ids": [s.id for s in data.studies], "method": args.method}
    if args.method == "minsis":
        d = _top_d(min(s.n for s in data.studies), args.d)
        ranking = min_sis_rank(data)
        kept, dropped = top_d_selection(ranking, min(d, data.p), data.p)
        kept_set = set(kept)
        ranked = [(j, rank, score)
                  for rank, (j, score) in enumerate(ranking, start=1)]
        result["d"] = d
        result["ranking"] = [{"index": j, "name": names[j],
                              "score": _json(score), "rank": rank,
                              "kept": j in kept_set} for j, rank, score in ranked]
        header = ["feature", "index", "rank", "score", "kept"]
        rows = [[names[j], j, rank, score, j in kept_set]
                for j, rank, score in sorted(ranked)]
    else:
        screening = tsa_sis(data, ScreeningConfig(args.alpha1, args.alpha2)) \
            if args.method == "tsa" else one_step_sis(data, args.alpha1)
        kept, dropped = screening.kept, screening.dropped
        kept_set = set(kept)
        header = ["feature", "index", "t_stats", "l_hat", "kappa_hat",
                  "l_stat", "chi2_threshold", "kept"]
        # One pass over the columns gives each feature's JSON object and
        # CSV row; an aggregate that was not tested (NaN) is null in JSON
        # and an empty cell in the CSV.
        features, rows = [], []
        result["features"] = features
        for j, (t, in_l, kappa, l_stat, chi2) in enumerate(zip(
                screening.t_stats.tolist(), screening.l_hat.tolist(),
                screening.kappa_hat.tolist(), screening.l_stat.tolist(),
                screening.chi2_threshold.tolist())):
            l_hat = list(itertools.compress(range(data.k), in_l))
            features.append({"index": j, "name": names[j], "t_stats": t,
                             "l_hat": l_hat, "kappa_hat": kappa,
                             "l_stat": _json(l_stat),
                             "chi2_threshold": _json(chi2),
                             "kept": j in kept_set})
            rows.append([names[j], j, ";".join(map(str, t)),
                         ";".join(map(str, l_hat)), kappa,
                         *("" if math.isnan(v) else v for v in (l_stat, chi2)),
                         j in kept_set])
    result["kept"] = [names[j] for j in kept]
    result["dropped"] = [names[j] for j in dropped]
    return result, {"records.csv": (header, rows)}


def _cmd_multipc(args):
    data = load_multistudy(args.manifest)
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
    return result, {"active_sets.csv": (["stage", "feature"], rows)}


def _cmd_select(args):
    data = load_multistudy(args.manifest)
    model = tsa_sis_group_lasso(data, ScreeningConfig(args.alpha1, args.alpha2),
                                method=args.tune, grid_size=args.grid)
    names = [data.feature_names[j] for j in model.selected]
    result = {
        "screened": [data.feature_names[j] for j in model.screened],
        "selected": names,
        "lambda": model.lambda_,
        "empty_screen": model.empty_screen,
        "tuning": model.diagnostics or [],
    }
    if model.fit is not None:
        result["fit"] = {
            "converged": model.fit.converged,
            "iterations": model.fit.iterations,
            "kkt_residual": model.fit.kkt_residual,
            "objective": model.fit.objective_trace[-1],
            "warning": model.fit.warning,
        }
    coef_rows = []
    summary_rows = []
    if names:
        result["ols"] = []
        for fit in ols_refit(data, model.selected):
            coef = list(zip(names, fit.coef.tolist(), fit.coef_se.tolist()))
            coef_rows += [[fit.study_id, *row] for row in coef]
            summary = {"intercept": fit.intercept,
                       "intercept_se": fit.intercept_se,
                       "r2": fit.r2, "adj_r2": fit.adj_r2}
            summary_rows.append([fit.study_id, *summary.values()])
            result["ols"].append({
                "study_id": fit.study_id, **summary,
                "coefficients": {name: {"estimate": est, "se": se}
                                 for name, est, se in coef},
            })
    return _json(result), {
        "coefficients.csv": (["study", "feature", "estimate", "se"],
                             coef_rows),
        "fit_summary.csv": (["study", "intercept", "intercept_se", "r2",
                             "adj_r2"], summary_rows),
    }


def _run_specs(args, specs):
    """The command's one pass over the replications of its setting. The
    setting's dimensions it used are written back onto ``args``. Each
    failed replication's message goes to stderr, not into result.json."""
    setting = SimSetting.preset(args.setting, **{
        field: getattr(args, flag) for flag, field in _SIM_FIELDS.items()
        if getattr(args, flag) is not None})
    results = replicate(setting, specs, threads=args.threads)
    for message in dict.fromkeys(m for r in results for m in r.failures):
        print(f"warning: {message}", file=sys.stderr)
    for flag, field in _SIM_FIELDS.items():
        setattr(args, flag, getattr(setting, field))
    return results


def _cmd_simulate(args):
    (summary,) = _run_specs(
        args, [MethodSpec("tsa", args.alpha1, args.alpha2)])
    header = ["mean_sensitivity", "se_sensitivity", "mean_specificity",
              "se_specificity", "mean_fp", "mean_fn", "b", "n_failed"]
    return _json(summary), {
        "metrics.csv": (["rep", "sensitivity", "specificity", "fp", "fn"],
                        [[i, *dataclasses.astuple(m)]
                         for i, m in enumerate(summary.per_rep)]),
        "summary.csv": (header, [[getattr(summary, name) for name in header]]),
    }


def _cmd_roc(args):
    curve, tsa = _run_specs(
        args, [RocGrid(), MethodSpec("tsa", _DEF_ALPHA1, _DEF_ALPHA2)])
    sens, fpr = tsa.mean_sensitivity, 1.0 - tsa.mean_specificity
    result = {
        "b": curve.b,
        "n_failed": curve.n_failed,
        "min_sis": curve.points,
        "tsa_point": {"alpha1": _DEF_ALPHA1, "alpha2": _DEF_ALPHA2,
                      "sensitivity": sens, "one_minus_specificity": fpr,
                      "n_failed": tsa.n_failed},
    }
    rows = [["minsis", *dataclasses.astuple(pt)] for pt in curve.points]
    rows.append(["tsa", "", sens, fpr])
    return _json(result), {"roc.csv": (["method", "d", "sensitivity",
                                        "one_minus_specificity"], rows)}


def _cmd_sensitivity(args):
    (grid,) = _run_specs(
        args, [LevelGrid(args.alpha1_list, args.alpha2_list)])
    header = ["alpha1", "alpha2", "sensitivity", "specificity",
              "se_sensitivity", "se_specificity"]
    stats = np.stack([grid.mean_sensitivity, grid.mean_specificity,
                      grid.se_sensitivity, grid.se_specificity], axis=-1)
    rows = [[*levels, *cell] for levels, cell in zip(
        itertools.product(grid.alpha1_list, grid.alpha2_list),
        stats.reshape(-1, 4).tolist())]
    result = {"b": grid.b, "n_failed": grid.n_failed,
              "cells": [dict(zip(header, row)) for row in rows]}
    table = [[f"{a1:g}"] + [f"{sens:.3f}/{spec:.3f}" for sens, spec in
                            zip(grid.mean_sensitivity[i], grid.mean_specificity[i])]
             for i, a1 in enumerate(grid.alpha1_list)]
    return _json(result), {
        "sensitivity.csv": (["alpha1"] + [f"alpha2={a2:g}"
                                          for a2 in grid.alpha2_list], table),
        "cells.csv": (header, rows),
    }


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. A flag that several commands share
    is declared once, in a parent parser."""
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", required=True)
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--alpha1", type=float, default=_DEF_ALPHA1)
    levels.add_argument("--alpha2", type=float, default=_DEF_ALPHA2)
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--setting", type=int, required=True, choices=[1, 2, 3, 4])
    for dim in ("--n", "--p", "--k", "--s0"):
        sim.add_argument(dim, type=int)
    sim.add_argument("--b", type=int, help="replication count")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1,
                     help="processes, at most one per usable CPU (default 1)")

    parser = argparse.ArgumentParser(
        prog="multiscreen",
        description="Multi-study variable screening and selection")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        sub = subs.add_parser(name, help=help, parents=parents)
        sub.add_argument("--out", required=True)
        sub.set_defaults(func=func)
        return sub

    screen = command("screen", _cmd_screen, "screen features in a dataset",
                     manifest, levels)
    screen.add_argument("--method", choices=["tsa", "onestep", "minsis"],
                        default="tsa")
    screen.add_argument("--d", type=int,
                        help="kept-set size (minsis only; default floor(n/log n))")

    multipc = command("multipc", _cmd_multipc,
                      "staged partial-correlation selection", manifest, levels)
    multipc.add_argument("--max-order", type=int, default=2)
    multipc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    select = command("select", _cmd_select,
                     "screen, tune, and fit the group model", manifest, levels)
    select.add_argument("--tune", choices=["bic", "cv"], default="bic")
    select.add_argument("--grid", type=int, default=50)

    command("simulate", _cmd_simulate, "run screening replications",
            sim, levels)
    command("roc", _cmd_roc,
            "ranking-screener ROC plus the two-step point", sim)
    sensitivity = command("sensitivity", _cmd_sensitivity,
                          "sweep the two significance levels", sim)
    sensitivity.add_argument("--alpha1-list", type=float, nargs="+",
                             default=[0.01, 0.001, 0.0001])
    sensitivity.add_argument("--alpha2-list", type=float, nargs="+",
                             default=[0.15, 0.05, 0.01, 0.001])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if not args.out or (os.path.exists(args.out)
                            and not os.path.isdir(args.out)):
            raise InputError(f"--out must name a directory, got {args.out!r}")
        result, tables = args.func(args)
        try:
            _write_outputs(args, result, tables)
        except OSError as exc:
            raise InputError(f"cannot write into --out: {exc}") from None
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MultiscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
