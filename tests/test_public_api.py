import importlib
import inspect

import pytest

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
