"""Outside-in tracing of the library's layers.

The benchmark wraps the public functions and methods of each layer
module from here, without touching the library: a wrapper records one
span per call (name, start, end, parent, operation id, whether an
exception escaped) and keeps it in memory until the run ends.

``cd_mul`` runs some 280 000 times in a desk_cold pass, more often than
everything else together, so its wrapper only counts calls; its time
stays in the catalog span that called it.

Callers reach most functions through a module attribute (``la.int_rank``
resolves through ``jordanaff.exactla``), so the wrapper is installed on
the defining module, and on every other ``jordanaff`` module that
imported the same function by name (``calabi.build_model``).
``cd_mul`` belongs to ``composition_algebras``, which is no layer; the
catalog imported the name, so it is counted there, as catalog work.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("catalog", "serialization", "jordan", "exactla", "structure",
          "hypersurface", "calabi")

# Trivial conversions called inside every product; a span on each would
# cost more than the work it times.
SKIP = {"jordan": ("coerce", "zero", "basis_element"),
        "exactla": ("as_fraction", "fvec", "fmat")}

# Per-call metrics: "<layer>.<function>_s" is the time inside the
# outermost calls of the function, "_calls" the number of calls.
CALL_METRICS = (
    "catalog.build_s", "catalog.cd_mul_calls", "serialization.loads_s",
    "jordan.check_jordan_s", "jordan.check_triple_s", "jordan.decompose_s",
    "jordan.product_calls", "jordan.p_operator_calls",
    "exactla.int_rank_s", "exactla.int_rank_calls", "exactla.solve_tall_s",
    "exactla.mat_vec_calls", "exactla.mat_vec_s",
    "exactla.clear_denominators_calls", "exactla.int_matmul_calls",
    "structure.restricted_pair_s", "structure.check_pair_s",
    "hypersurface.build_model_s", "hypersurface.check_gauss_s",
    "hypersurface.check_quadratic_expansion_s",
    "hypersurface.check_cubic_form_s", "hypersurface.reconstruct_algebra_s",
    "calabi.check_composition_s",
)

OP = "op"  # the root span the benchmark opens around each operation


def layer_metric_names():
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors"]
    return names + list(CALL_METRICS) + ["trace.overhead_s"]


class Tracer:
    """Span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans = []   # [name, parent index, op id, start, end, error]
        self.counts = defaultdict(int)  # calls of count-only wrappers
        self._stack = []
        self._patches = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, tracer.op_id,
                    clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def call(self, op_id, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        return self._wrap(OP, fn)(*args)

    # -- installing the wrappers ------------------------------------------

    def install(self, jordanaff):
        """Wrap every layer's public functions and methods."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{jordanaff.__name__}.{layer}"]
            skip = SKIP.get(layer, ())
            for owner in [module] + [c for c in vars(module).values()
                                     if inspect.isclass(c)
                                     and c.__module__ == module.__name__]:
                for attr, fn in list(vars(owner).items()):
                    if (attr.startswith("_") or attr in skip
                            or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    wrapped[id(fn)] = (fn, wrapper)
                    self._patch(owner, attr, wrapper)
        catalog = sys.modules[f"{jordanaff.__name__}.catalog"]
        self._patch(catalog, "cd_mul",
                    self._count("catalog.cd_mul", catalog.cd_mul))
        # names other modules imported from a layer
        for modname, module in list(sys.modules.items()):
            if not modname.startswith(jordanaff.__name__) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self, passes):
        """Per-layer metrics per traced pass, from the recorded spans.

        ``op.self_s`` is the benchmark's own time inside operations.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, parent, _, start, end, error) in enumerate(spans):
            layer = name.partition(".")[0]
            out[f"{layer}.self_s"] += end - start - child[idx]
            if name == OP:  # benchmark code inside the operation
                continue
            out[f"{layer}.calls"] += 1
            out[f"{name}_calls"] += 1
            outer_layer = spans[parent][0].partition(".")[0] \
                if parent >= 0 else ""
            if error and outer_layer != layer:
                out[f"{layer}.errors"] += 1
            if not self._nested_in_same(idx):
                out[f"{name}_s"] += end - start
        for name, count in self.counts.items():
            out[f"{name.partition('.')[0]}.calls"] += count
            out[f"{name}_calls"] += count
        return {k: v / passes for k, v in out.items()}

    def _nested_in_same(self, idx):
        spans = self.spans
        name = spans[idx][0]
        parent = spans[idx][1]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][1]
        return False

    def write(self, path):
        """Write every span as one CSV line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,parent,op,start,end,error\n")
            for idx, (name, parent, op, start, end, error) in \
                    enumerate(self.spans):
                fh.write(f"{idx},{name},{parent},{op},{start:.9f},"
                         f"{end:.9f},{int(error)}\n")
            for name, count in self.counts.items():
                fh.write(f"# calls counted without spans: {name} {count}\n")
