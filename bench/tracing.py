"""Span tracing of the multiscreen modules, installed from outside the package.

The traced run replaces each function listed in ``TARGETS`` by a wrapper at
every name a caller looks it up under (for example both
``multiscreen.screening.compute_t_matrix`` and
``multiscreen.simulate.compute_t_matrix``), so calls made between modules
are seen too. Spans (name, start, end, parent span, run id) and counts are
kept in memory and written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Module -> traced functions. The CLI's per-command handlers are traced as
# ``cli.<command>``; their self time is payload and record building.
TARGETS = {
    "stats_core": ("normal_quantile", "chi2_quantile"),
    "simulate": ("gen_instance",),
    "screening": ("compute_t_matrix", "compute_correlation_matrix",
                  "tsa_kept_mask", "tsa_sis", "one_step_sis", "min_sis_rank"),
    "multi_pc": ("multi_pc_run", "partial_t", "residualize"),
    "group_select": ("select_lambda", "group_lasso_fit", "lambda_max",
                     "ols_refit"),
    "data_io": ("load_multistudy", "write_json_atomic", "write_csv_atomic"),
    "cli": ("_cmd_simulate", "_cmd_roc", "_cmd_sensitivity", "_cmd_screen",
            "_cmd_multipc", "_cmd_select"),
}
MODULES = tuple(TARGETS)
COMMANDS = ("simulate", "roc", "sensitivity", "screen", "multipc", "select")


def _span_name(module: str, func: str) -> str:
    return f"{module}.{func.removeprefix('_cmd_')}"


class Tracer:
    """In-memory span recorder plus the counts taken from traced results."""

    def __init__(self):
        self.run_id = ""
        self.spans: list = []      # [name, start, end, parent index, run id]
        self._stack: list[int] = []
        self.values = defaultdict(float)   # summed counts
        self.fits: list[tuple[int, bool, float]] = []
        self.manifests: set[str] = set()
        self.active_sizes: tuple[int, ...] = ()

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Patch every lookup site; returns a callable that undoes it."""
        wrappers = {}
        for module, funcs in TARGETS.items():
            mod = importlib.import_module(f"multiscreen.{module}")
            for func in funcs:
                original = getattr(mod, func)
                name = _span_name(module, func)
                wrappers[id(original)] = (original, self.wrap(
                    name, original, _HOOKS.get(name)))
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "multiscreen" and not mod_name.startswith("multiscreen."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))

        def uninstall():
            for mod, attr, value in undo:
                setattr(mod, attr, value)
        return uninstall

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**extra, "span_fields": ["name", "start", "end", "parent", "run_id"],
               "spans": self.spans}
        path.write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# Counts taken from arguments and results at the layer boundary.
# ---------------------------------------------------------------------------

def _normal_quantile(tr, args, kwargs, result):
    tr.values["normal_quantile.values"] += math.prod(getattr(result, "shape", ()))


def _kept(tr, args, kwargs, result):
    kept = result.sum() if hasattr(result, "sum") else len(result.kept)
    tr.values["screening.kept"] += int(kept)


def _multi_pc_run(tr, args, kwargs, result):
    sizes = tuple(len(s) for s in result.active_sets)
    tr.active_sizes = sizes
    tr.values["multi_pc.pairs_bound"] += sum(
        a * math.comb(a - 1, m) for m, a in enumerate(sizes[:-1], start=1))


def _group_lasso_fit(tr, args, kwargs, result):
    tr.fits.append((result.iterations, result.converged, result.kkt_residual))


def _load_multistudy(tr, args, kwargs, result):
    manifest = Path(args[0])
    tr.manifests.add(str(manifest.resolve()))
    doc = json.loads(manifest.read_text())
    tr.values["load_multistudy.bytes_read"] += os.path.getsize(manifest) + sum(
        os.path.getsize(manifest.parent / e["data_path"]) for e in doc["entries"])


def _written(key):
    def hook(tr, args, kwargs, result):
        tr.values[key] += os.path.getsize(args[0])
    return hook


_HOOKS = {
    "stats_core.normal_quantile": _normal_quantile,
    "screening.tsa_sis": _kept,
    "screening.one_step_sis": _kept,
    "screening.tsa_kept_mask": _kept,
    "multi_pc.multi_pc_run": _multi_pc_run,
    "group_select.group_lasso_fit": _group_lasso_fit,
    "data_io.load_multistudy": _load_multistudy,
    "data_io.write_json_atomic": _written("write_json_atomic.bytes"),
    "data_io.write_csv_atomic": _written("write_csv_atomic.bytes"),
}


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

def per_layer(tracer: Tracer, replications: int) -> dict:
    """Per-layer metric values of one traced round; quantities of a layer
    the workload never calls read 0."""
    tot = tracer.totals()

    def calls(name):
        return tot[name][0] if name in tot else 0

    def self_s(name):
        return tot[name][2] if name in tot else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    v = tracer.values
    fits = tracer.fits
    sweeps = sum(f[0] for f in fits)
    sizes = tracer.active_sizes + (0, 0)
    m = {
        "stats_core.normal_quantile.calls": calls("stats_core.normal_quantile"),
        "stats_core.normal_quantile.values": v["normal_quantile.values"],
        "stats_core.normal_quantile.self_s": self_s("stats_core.normal_quantile"),
        "stats_core.chi2_quantile.calls": calls("stats_core.chi2_quantile"),
        "stats_core.chi2_quantile.self_s": self_s("stats_core.chi2_quantile"),
        "stats_core.chi2_quantile.us_per_call": 1e6 * ratio(
            tot["stats_core.chi2_quantile"][1] if "stats_core.chi2_quantile" in tot else 0.0,
            calls("stats_core.chi2_quantile")),
        "simulate.gen_instance.calls": calls("simulate.gen_instance"),
        "simulate.gen_instance.self_s": self_s("simulate.gen_instance"),
        "simulate.instances_per_rep": ratio(calls("simulate.gen_instance"),
                                            replications),
    }
    for func in ("compute_t_matrix", "compute_correlation_matrix"):
        m[f"screening.{func}.calls"] = calls(f"screening.{func}")
        m[f"screening.{func}.self_s"] = self_s(f"screening.{func}")
    for func in ("tsa_kept_mask", "tsa_sis", "one_step_sis", "min_sis_rank"):
        m[f"screening.{func}.self_s"] = self_s(f"screening.{func}")
    m["screening.kept"] = v["screening.kept"]
    m["multi_pc.multi_pc_run.self_s"] = self_s("multi_pc.multi_pc_run")
    for func in ("partial_t", "residualize"):
        m[f"multi_pc.{func}.calls"] = calls(f"multi_pc.{func}")
        m[f"multi_pc.{func}.self_s"] = self_s(f"multi_pc.{func}")
    m["multi_pc.active_sizes.stage1"] = sizes[0]
    m["multi_pc.active_sizes.stage2"] = sizes[1]
    m["multi_pc.pairs_bound"] = v["multi_pc.pairs_bound"]
    fit_s = self_s("group_select.group_lasso_fit")
    m.update({
        "group_select.select_lambda.self_s": self_s("group_select.select_lambda"),
        "group_select.group_lasso_fit.calls": calls("group_select.group_lasso_fit"),
        "group_select.group_lasso_fit.self_s": fit_s,
        "group_select.sweeps": sweeps,
        "group_select.sweeps_max": max((f[0] for f in fits), default=0),
        "group_select.fits_nonconverged": sum(1 for f in fits if not f[1]),
        "group_select.converged_ratio": ratio(sum(1 for f in fits if f[1]),
                                              len(fits)),
        "group_select.kkt_max": max((f[2] for f in fits), default=0.0),
        "group_select.sweeps_per_s": ratio(sweeps, fit_s),
        "group_select.lambda_max.self_s": self_s("group_select.lambda_max"),
        "group_select.ols_refit.self_s": self_s("group_select.ols_refit"),
        "data_io.load_multistudy.calls": calls("data_io.load_multistudy"),
        "data_io.load_multistudy.self_s": self_s("data_io.load_multistudy"),
        "data_io.load_multistudy.bytes_read": v["load_multistudy.bytes_read"],
        "data_io.loads_per_manifest": ratio(calls("data_io.load_multistudy"),
                                            len(tracer.manifests)),
    })
    for func in ("write_json_atomic", "write_csv_atomic"):
        m[f"data_io.{func}.calls"] = calls(f"data_io.{func}")
        m[f"data_io.{func}.self_s"] = self_s(f"data_io.{func}")
        m[f"data_io.{func}.bytes"] = v[f"{func}.bytes"]
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = self_s(f"cli.{cmd}")
    return m


def modules_seen(tracer: Tracer) -> list[str]:
    return sorted({span[0].split(".")[0] for span in tracer.spans})
