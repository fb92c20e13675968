"""Public names resolve: each module's ``__all__`` lists only names the
module defines, and every name the package imports from a module exists
there and is in that module's ``__all__`` when it has one. The fields of
the exported dataclasses are pinned, so changing one is a deliberate edit
here."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import multiscreen

MODULES = sorted(m.name for m in pkgutil.iter_modules(multiscreen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"multiscreen.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from multiscreen.{name} import *", namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(multiscreen.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"multiscreen.{module}")
        assert hasattr(mod, name), f"{module}.{name}"
        assert name in getattr(mod, "__all__", [name]), f"{module}.{name}"
        assert getattr(multiscreen, name) is getattr(mod, name)


# Field names, in order, of every dataclass the package exports.
RESULT_FIELDS = {
    "FeatureScreenRecord": ("feature", "t_stats", "l_hat", "kappa_hat",
                            "l_stat", "chi2_threshold", "kept"),
    "GroupLassoFit": ("features", "beta", "intercepts", "lambda_",
                      "objective_trace", "converged", "iterations",
                      "kkt_residual", "beta_std", "selected", "warning"),
    "LevelGrid": ("alpha1_list", "alpha2_list"),
    "MethodSpec": ("name", "alpha1", "alpha2", "d"),
    "MultiPcState": ("stage", "active_sets", "stopped_reason"),
    "MultiStudy": ("studies", "feature_names"),
    "OlsStudyFit": ("study_id", "intercept", "intercept_se", "coef",
                    "coef_se", "r2", "adj_r2", "sigma2"),
    "RepMetrics": ("sensitivity", "specificity", "fp", "fn"),
    "ReplicationSummary": ("b", "n_failed", "mean_sensitivity",
                           "se_sensitivity", "mean_specificity",
                           "se_specificity", "mean_fp", "mean_fn", "per_rep",
                           "failures"),
    "RocCurve": ("points", "b", "n_failed", "failures"),
    "RocGrid": ("d_grid",),
    "RocPoint": ("d", "sensitivity", "one_minus_specificity"),
    "ScreeningConfig": ("alpha1", "alpha2"),
    "ScreeningResult": ("kept", "dropped", "records", "config", "method"),
    "SelectionModel": ("screened", "selected", "lambda_", "fit",
                       "diagnostics", "tune_method", "empty_screen"),
    "SensitivityGrid": ("alpha1_list", "alpha2_list", "mean_sensitivity",
                        "mean_specificity", "se_sensitivity",
                        "se_specificity", "b", "n_failed", "failures"),
    "SimSetting": ("n", "p", "K", "s0", "beta_low", "beta_high",
                   "heterogeneous", "hetero_sd", "noise_sd", "r_pool", "B",
                   "seed", "fix_r"),
    "Study": ("id", "x", "y"),
    "StudyManifest": ("entries", "feature_columns"),
    "TStat": ("value", "sigma_hat", "theta_hat", "n"),
}


def test_result_type_fields():
    exported = {name: getattr(multiscreen, name) for name in dir(multiscreen)}
    fields = {name: tuple(f.name for f in dataclasses.fields(obj))
              for name, obj in exported.items()
              if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert fields == RESULT_FIELDS
