import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from vpmeans.cli import SUITES

# the modules whose public functions the per-layer benchmark tracer wraps;
# its timing wrapper cannot time a generator, so it refuses one
TRACED_MODULES = ("special", "quadrature", "kernel", "function_space", "operators",
                  "smoothness", "experiments", "cli")


@pytest.mark.parametrize("short", TRACED_MODULES)
def test_no_public_generator_functions(short):
    module = importlib.import_module(f"vpmeans.{short}")
    public = {name: obj for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__}
    assert public
    assert [name for name, obj in public.items() if inspect.isgeneratorfunction(obj)] == []


@pytest.mark.parametrize("short", TRACED_MODULES + ("memo",))
def test_exports_resolve(short):
    module = importlib.import_module(f"vpmeans.{short}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_only_module_exports():
    import vpmeans
    modules = [importlib.import_module(f"vpmeans.{short}") for short in TRACED_MODULES + ("memo",)]
    exported = {id(getattr(module, name)) for module in modules for name in module.__all__}
    stale = [name for name, obj in vars(vpmeans).items()
             if not name.startswith("_") and not inspect.ismodule(obj)
             and id(obj) not in exported]
    assert stale == []


# the per-layer benchmark tracer binds these calls' arguments by name to
# derive its counts; a renamed parameter must fail here before it breaks it
TRACER_BOUND_SIGNATURES = {
    "kernel.multiplier_sequence": ("n", "lam", "k_max"),
    "special.q_table": ("k_max", "lam", "theta"),
    "function_space.synthesis_context": ("lam", "k_max", "kind", "size"),
    "function_space.lp_norms_batch": ("coeff_matrix", "lam", "p", "order", "reference"),
}


@pytest.mark.parametrize("name", sorted(TRACER_BOUND_SIGNATURES))
def test_tracer_bound_parameter_names(name):
    short, attr = name.split(".")
    func = getattr(importlib.import_module(f"vpmeans.{short}"), attr)
    assert tuple(inspect.signature(func).parameters) == TRACER_BOUND_SIGNATURES[name]


@pytest.mark.parametrize("short", TRACED_MODULES)
def test_no_exported_function_takes_both_lam_and_d(short):
    # lam fixes the dimension, d = 2 lam + 2: a function given both could be
    # handed a pair that disagrees
    module = importlib.import_module(f"vpmeans.{short}")
    both = [name for name in module.__all__ if inspect.isfunction(getattr(module, name))
            and {"lam", "d"} <= set(inspect.signature(getattr(module, name)).parameters)]
    assert both == []


# metrics the benchmark computes itself rather than reads from a traced layer
BENCHMARK_OWN_METRICS = {"experiments.csv_drift_max_rel"}


def test_benchmark_layer_metrics_name_public_functions():
    # the traced benchmark reads each per-layer metric <module>.<function>.<stat>
    # from the function it names (experiments.<suite>.s from the suite's
    # runner): a rename must fail here before that metric silently reads 0
    metrics = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    named = {tuple(m["name"].split(".")[:2]) for m in metrics
             if m["name"].split(".")[0] in TRACED_MODULES
             and ".".join(m["name"].split(".")[:2]) not in BENCHMARK_OWN_METRICS}
    assert len(named) > 10
    unresolved = []
    for short, attr in sorted(named):
        module = importlib.import_module(f"vpmeans.{short}")
        if short == "experiments":
            ok = attr in SUITES
        else:
            obj = getattr(module, attr, None)
            ok = (not attr.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)
        if not ok:
            unresolved.append(f"{short}.{attr}")
    assert unresolved == []


def test_benchmark_suite_map_matches_cli_suites():
    # the traced benchmark times experiments.<suite>.s through the runner that
    # perfbench/run.py's SUITE_FUNCTIONS names: read as text, nothing imported
    source = (Path(__file__).parents[1] / "perfbench" / "run.py").read_text()
    suite_functions = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                           if isinstance(node, ast.Assign) and len(node.targets) == 1
                           and getattr(node.targets[0], "id", None) == "SUITE_FUNCTIONS")
    assert tuple(suite_functions) == SUITES
    experiments = importlib.import_module("vpmeans.experiments")
    for name in suite_functions.values():
        obj = getattr(experiments, name, None)
        assert name in experiments.__all__ and inspect.isfunction(obj)
        assert obj.__module__ == experiments.__name__


PACKAGE = Path(__file__).parents[1] / "src" / "vpmeans"

# the one recurrence and its stream: the benchmark tracer refuses generators,
# and tracing the stream would move the self time of q_table and
# synthesis_context, so quadrature and function_space read them privately
SHARED_PRIVATE_NAMES = {("special", "_gegenbauer_steps"), ("special", "_q_rows")}


def test_no_module_imports_a_private_name_of_the_package():
    # every layer is read through its public names (the summary reads the
    # run's records from memo.RUN_RECORDS, which the layers write)
    private = [(path.stem, node.module, alias.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "vpmeans")
               for alias in node.names if alias.name.startswith("_")
               and ((node.module or "").split(".")[-1], alias.name) not in SHARED_PRIVATE_NAMES]
    assert private == []


@pytest.mark.parametrize("short", sorted(path.stem for path in PACKAGE.glob("*.py")
                                         if not path.stem.startswith("_")))
def test_exports_list_every_public_function_and_class(short):
    module = importlib.import_module(f"vpmeans.{short}")
    defined = [name for name, obj in vars(module).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert defined
    assert [name for name in defined if name not in module.__all__] == []


# ROADMAP's ceiling on the size of the package
SRC_LINE_CEILING = 2450


def test_package_stays_within_line_ceiling():
    # counted as the benchmark's src_lines() counts, every .py of the package
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in sorted(PACKAGE.glob("*.py")))
    assert 0 < lines <= SRC_LINE_CEILING
