"""Per-layer tracing of vpmeans, installed from outside the package.

Every public function of the traced modules is wrapped once, and the wrapper
is bound at every module attribute that holds the original, so callers that
imported a function by name (`from .kernel import multiplier_sequence`) are
traced too.  Each call records its inclusive time and its self time (inclusive
minus the time of traced calls it made).  A few functions also record the
number of distinct argument sets and counts derived from their arguments.
"""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("special", "quadrature", "kernel", "function_space", "operators",
           "smoothness", "experiments", "cli")

# scalar hot paths, tens of millions of calls per run: wrapping them would
# swamp the trace; their work is counted by multiplier_sequence.entries
UNTRACED = {"kernel.multiplier_weight", "special.log_gamma"}

DISTINCT = {"kernel.multiplier_sequence", "special.q_table", "smoothness.modulus",
            "function_space.synthesis_context", "quadrature.gauss_legendre"}

# functions with counts derived from their arguments (Tracer._derive)
DERIVED = {"kernel.multiplier_sequence", "function_space.lp_norms_batch",
           "special.q_table", "function_space.synthesis_context"}

# (function, ancestor): count calls of function made anywhere below ancestor
NESTED_COUNTS = {"quadrature.integrate_theta": "kernel.lemma_integral"}

MIB = 2.0 ** 20


def _key(obj):
    """Hashable, run-independent identity of an argument value."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return ("ndarray", arr.shape, arr.dtype.str,
                hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
    if isinstance(obj, dict):
        return tuple(sorted((k, _key(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__qualname__,) + tuple(
            _key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return repr(obj)


def _p_label(p):
    return "pinf" if p == math.inf else f"p{p:g}"


class Tracer:
    """Call statistics of the traced functions of one process."""

    def __init__(self):
        self.timing = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, s, self_s
        self.counts = defaultdict(int)                     # derived counters
        self.seen = defaultdict(set)                        # distinct argument sets
        self.wrapped = set()
        self._stack = []                                    # [child time, name]
        self._fs = None

    # -- derived counts, computed from the bound call arguments ---------------

    def _derive(self, name, args, new):
        """Record derived counts; return the name the call is timed under."""
        if name == "kernel.multiplier_sequence":
            n, k_max = int(args["n"]), int(args["k_max"])
            self.counts[name + ".entries"] += k_max + 1
            self.counts[name + ".nonzero"] += min(n, k_max) + 1
        elif name == "function_space.lp_norms_batch":
            p = float(args["p"])
            shape = np.shape(args["coeff_matrix"])
            k_max = shape[0] - 1
            columns = shape[1] if len(shape) > 1 else 1
            if p == math.inf:
                rows = self._fs.DENSE_GRID_SIZE
            else:
                rows = args["order"] if args["order"] is not None else 2 * k_max + 32
            name = f"{name}.{_p_label(p)}"
            self.counts[name + ".columns"] += columns
            self.counts[name + ".gflop"] += 2.0 * rows * (k_max + 1) * columns / 1e9
        elif name == "special.q_table":
            cells = np.size(args["theta"]) * (int(args["k_max"]) + 1)
            self.counts[name + ".cells"] += cells
        elif name == "function_space.synthesis_context" and new:
            # a repeated argument set returns the cached table
            rows, cols = int(args["size"]), int(args["k_max"]) + 1
            self.counts[name + ".table_mb"] += rows * cols * 8 / MIB
        return name

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, func):
        sig = inspect.signature(func)
        bind = name in DISTINCT or name in DERIVED
        ancestor = NESTED_COUNTS.get(name)
        stack = self._stack
        timing = self.timing
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name
            if bind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                new = False
                if name in DISTINCT:
                    key = _key(bound.arguments)
                    seen = self.seen[name]
                    new = key not in seen
                    seen.add(key)
                label = self._derive(name, bound.arguments, new)
            if ancestor is not None and any(f[1] == ancestor for f in stack):
                self.counts[f"{ancestor}.nested.{name}"] += 1
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = timing[label]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

        return traced

    def install(self, package):
        """Wrap the public functions of `package`'s traced modules and rebind
        every module attribute of the package that refers to one of them."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            if short == "function_space":
                self._fs = module
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                if inspect.isgeneratorfunction(obj):
                    raise TypeError(f"cannot time generator function {name}")
                wrappers[obj] = self._wrap(name, obj)
                self.wrapped.add(name)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def report(self):
        """Flat {metric name: number} of everything recorded."""
        out = {}
        for name, (calls, total, own) in self.timing.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        for name, keys in self.seen.items():
            out[f"{name}.distinct"] = len(keys)
        out.update(self.counts)
        return out
