"""Public names resolve: each module's ``__all__`` lists only names the
module defines, and every name the package imports from a module exists
there and is in that module's ``__all__`` when it has one. The fields of
the exported dataclasses are pinned, so changing one is a deliberate edit
here. Only ``_forked`` forks, opens pipes or counts CPUs, no module reads
the environment, ``multi_pc`` calls no BLAS or LAPACK routine, only
``stats_core._integer`` decides what an integer is and only
``stats_core._real`` what a real number is, and every indented JSON
document goes through ``data_io``'s one encoder. README's Public API list
names every exported name."""

import ast
import dataclasses
import importlib
import pkgutil
import re
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


def _package_imports():
    tree = ast.parse(Path(multiscreen.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_resolve():
    imports = _package_imports()
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"multiscreen.{module}")
        assert hasattr(mod, name), f"{module}.{name}"
        assert name in getattr(mod, "__all__", [name]), f"{module}.{name}"
        assert getattr(multiscreen, name) is getattr(mod, name)


# Field names, in order, of every dataclass the package exports.
RESULT_FIELDS = {
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
    "ScreeningResult": ("kept", "dropped", "t_stats", "l_hat", "kappa_hat",
                        "l_stat", "chi2_threshold", "config", "method"),
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


FORK_CALLS = {"fork", "forkpty", "pipe", "pipe2"}


def test_only_the_forked_module_forks_or_pipes():
    # forked_map owns the package's child processes: their item order,
    # error rule and reaping. A module calling os.fork or os.pipe itself
    # would bypass them.
    found = set()
    for path in Path(multiscreen.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in FORK_CALLS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                found.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found |= {(path.name, alias.name) for alias in node.names
                          if alias.name in FORK_CALLS}
    assert found == {("_forked.py", "fork"), ("_forked.py", "pipe")}


def _names():
    # (module, name) for every attribute and name each module spells:
    # os.environ, usable_cpus, ... whether called, imported or passed on.
    for path in Path(multiscreen.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                yield path.name, node.attr
            elif isinstance(node, ast.Name):
                yield path.name, node.id
            elif isinstance(node, ast.alias):
                yield path.name, node.name


def test_only_the_forked_module_counts_cpus():
    # forked_map alone sizes its children, at most one per usable CPU.
    found = {(module, name) for module, name in _names()
             if name in ("sched_getaffinity", "usable_cpus")}
    assert found == {("_forked.py", "sched_getaffinity"),
                     ("_forked.py", "usable_cpus")}


# numpy names that reach BLAS or LAPACK.
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot",
              "einsum"}


def test_multi_pc_calls_no_blas_or_lapack():
    # multi_pc projects by exact sums and elementwise arithmetic in a fixed
    # order, so its statistics do not move with the row order or the BLAS
    # kernel.
    path = Path(multiscreen.__file__).parent / "multi_pc.py"
    tree = ast.parse(path.read_text())
    assert {name for module, name in _names()
            if module == "multi_pc.py"} & BLAS_NAMES == set()
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_no_module_reads_the_environment():
    # No environment variable changes what the package computes or forks.
    assert {(module, name) for module, name in _names()
            if name in ("environ", "environb", "getenv", "getenvb")} == set()


def test_only_integer_decides_what_an_integer_is():
    # Every count and index goes through stats_core._integer, so a
    # hand-written isinstance check elsewhere would be a second rule.
    found = set()
    for path in Path(multiscreen.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):   # breadth first: inner functions last
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("integer", "Integral"):
                found.add((path.name, owner.get(node)))
    assert found == {("stats_core.py", "_integer")}


def _spelled(node):
    # The names a node spells: a bare name, name.attr on a name, or each
    # name a from-import binds, as module.name.
    if isinstance(node, ast.ImportFrom):
        return {f"{node.module}.{alias.name}" for alias in node.names}
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return {f"{node.value.id}.{node.attr}"}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_only_real_decides_what_a_real_number_is():
    # Every real scalar goes through stats_core._real and every real array
    # through stats_core._real_array, which leaves its 0-d values to _real,
    # so a numbers.Real or np.ndim test elsewhere would be a second rule.
    # A plain import does not count; every use of what it binds does.
    real_names = {"numbers", "Real", "numbers.Real", "ndim", "np.ndim",
                  "numpy.ndim"}
    found = set()
    for path in Path(multiscreen.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):   # breadth first: inner functions last
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        found |= {(path.name, owner.get(node)) for node in ast.walk(tree)
                  if _spelled(node) & real_names}
    assert found == {("stats_core.py", "_real")}


def test_readme_lists_every_exported_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(name for _, name in _package_imports())


def test_one_writer_indents_json():
    # write_json_atomic writes every indented document through one encoder,
    # data_io._write_json, so no module calls json.dump or passes indent=.
    # The table cache's compact json.dumps calls are the only others.
    found, dumps = set(), set()
    for path in Path(multiscreen.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):   # breadth first: inner functions last
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                found |= {(path.name, "indent=") for kw in node.keywords
                          if kw.arg == "indent"}
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and node.attr in ("dump", "dumps")):
                (found if node.attr == "dump" else dumps).add(
                    (path.name, owner.get(node)))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found |= {(path.name, alias.name) for alias in node.names
                          if alias.name in ("dump", "dumps")}
    assert found == set()
    assert dumps == {("data_io.py", "_cache_tag"), ("data_io.py", "_store")}
