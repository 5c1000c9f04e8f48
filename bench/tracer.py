"""Layer tracing for the lfac benchmark, from outside the package.

A Tracer wraps the public functions of each lfac module and the public
operator methods of Scalar, Character and SplitRational.  It records one
span per call (id, name, layer, start, end, parent id, operation id) and
the counters the per-layer metrics need.  Self time is computed as each span
closes: its duration minus the time its child spans cover.

``from .x import f`` copies the binding, and the DSL and catalog tables keep
functions in dicts and closures, so a wrapped function is replaced wherever
an lfac module holds it: module attributes, values of module-level dicts and
closure cells of the functions found there.  ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# operator methods wrapped on their class; other methods (equality, hashing,
# str) run inside the span of whatever called them
METHODS = {
    "scalar": ("Scalar", ("__add__", "__radd__", "__sub__", "__rsub__",
                          "__mul__", "__rmul__", "__truediv__",
                          "__rtruediv__", "__neg__", "__pow__")),
    "chars": ("Character", ("__mul__", "__pow__")),
    "splitrat": ("SplitRational", ("__init__", "__mul__", "__truediv__",
                                   "__pow__", "inverse", "shift")),
}

# Scalar ops a Laurent-monomial fast path can take when every operand is a
# monomial; additions always need the general path
_MONOMIAL_OPS = {"__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__neg__", "__pow__"}
_UNARY_OPS = {"__neg__", "__pow__"}


def _is_monomial(x) -> bool:
    if not hasattr(x, "sort_key"):  # ints and Fractions are constants
        return True
    _, num, den = x.sort_key()
    return len(num) <= 1 and len(den) == 1


class Tracer:
    """Spans and counters for one traced pass: install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()       # by layer
        self.fn_self_s: Counter = Counter()    # by wrapped function
        self.op = 0                            # set by the workload, per op
        self.refusal = Exception               # set by install
        self._next_id = 0
        self._stack: list[list] = []
        self._undo: list = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, layer: str, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0]   # id, name, child time
            tracer._next_id += 1
            stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self_t = t1 - t0 - frame[2]
                tracer.self_s[layer] += self_t
                tracer.fn_self_s[name] += self_t
                tracer.spans.append((frame[0], name, layer, t0, t1,
                                     parent[0] if parent else None, tracer.op))
                tracer.counts["calls." + name] += 1
                if note is not None:
                    note(tracer, args, result, error,
                         parent[1] if parent else "")
                if parent is not None:
                    # the bookkeeping above is tracing cost: count it as
                    # child time of the parent, not as its self time
                    parent[2] += perf_counter() - t0
        return traced

    def install(self, modules: dict):
        """Wrap the public functions of each module in ``modules`` (layer
        name to lfac module) and the operator methods in METHODS."""
        self.refusal = sys.modules["lfac.errors"].LfacError
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped[obj] = self._wrap(layer, name, obj, _NOTES.get(name))
            cls_name, methods = METHODS.get(layer, (None, ()))
            for meth in methods:
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(layer, "%s.%s.%s" % (
                        layer, cls_name, meth), fn, _method_note(layer, meth))
                new = wrapped[fn]
                if (layer, meth) == ("splitrat", "__init__"):
                    new = self._counting_init(new, fn)
                self._undo.append((setattr, cls, meth, fn))
                setattr(cls, meth, new)
        for name, mod in sorted(sys.modules.items()):
            if name == "lfac" or name.startswith("lfac."):
                self._rebind(vars(mod), wrapped)

    def _rebind(self, namespace: dict, wrapped: dict):
        for key, val in list(namespace.items()):
            if isinstance(key, str) and key.startswith("__"):
                continue
            if isinstance(val, dict):
                self._rebind(val, wrapped)
            if not inspect.isfunction(val):
                continue
            if val in wrapped:
                self._undo.append((dict.__setitem__, namespace, key, val))
                namespace[key] = wrapped[val]
            for cell in val.__closure__ or ():
                try:
                    inner = cell.cell_contents
                except ValueError:  # an empty cell
                    continue
                if inspect.isfunction(inner) and inner in wrapped:
                    self._undo.append((_set_cell, cell, None, inner))
                    cell.cell_contents = wrapped[inner]

    def _counting_init(self, traced_init, init):
        """SplitRational.__init__ that also counts the factors passed in (a
        generator is materialized first) against the factors kept."""
        pos = list(inspect.signature(init).parameters).index("factors")
        counts = self.counts

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            if "factors" in kwargs:
                kwargs["factors"] = factors = list(kwargs["factors"])
            elif len(args) >= pos:
                factors = list(args[pos - 1])
                args = args[:pos - 1] + (factors,) + args[pos:]
            else:
                factors = ()
            traced_init(obj, *args, **kwargs)
            counts["splitrat.factors_in"] += len(factors)
            counts["splitrat.factors_kept"] += len(obj.factors)
        return counting_init

    def uninstall(self):
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)

    # ------------------------------------------------------------- results

    def layer_metrics(self) -> dict:
        """The per-layer metrics of this pass, keyed by metric name."""
        c, s = self.counts, self.self_s
        ops = c["scalar.ops"]
        dsl_s = s["dsl"]
        check_s = sum(t for n, t in self.fn_self_s.items()
                      if n.startswith("verify.check_"))
        return {
            "scalar.ops": ops,
            "scalar.ops_nonmonomial": c["scalar.ops_nonmonomial"],
            "scalar.monomial_share":
                1 - c["scalar.ops_nonmonomial"] / ops if ops else 0.0,
            "scalar.self_s": s["scalar"],
            "chars.ops": c["chars.ops"],
            "chars.self_s": s["chars"],
            "splitrat.constructs": c["calls.splitrat.SplitRational.__init__"],
            "splitrat.mul_calls": c["calls.splitrat.SplitRational.__mul__"],
            "splitrat.shift_calls": c["calls.splitrat.SplitRational.shift"],
            "splitrat.merge_ratio":
                c["splitrat.factors_kept"] / c["splitrat.factors_in"]
                if c["splitrat.factors_in"] else 0.0,
            "splitrat.self_s": s["splitrat"],
            "wdrep.tensor_calls": c["calls.wdrep.tensor"],
            "wdrep.tensor_lfactor_calls": c["calls.wdrep.tensor_lfactor"],
            "wdrep.lfactor_calls": c["calls.wdrep.lfactor"],
            "wdrep.blocks_out": c["wdrep.blocks_out"],
            "wdrep.self_s": s["wdrep"],
            "catalog.nov_lfactor_calls": c["calls.catalog.nov_lfactor"],
            "catalog.rs_lfactor_calls": c["calls.catalog.rs_lfactor"],
            "catalog.from_catalog_calls": c["calls.catalog.from_catalog"],
            "catalog.self_s": s["catalog"],
            "poles.calls": sum(n for k, n in c.items()
                               if k.startswith("calls.poles.")),
            "poles.entries": c["poles.entries"],
            "poles.self_s": s["poles"],
            "dsl.evaluate_calls": c["calls.dsl.evaluate_text"],
            "dsl.chars_per_s": c["dsl.chars"] / dsl_s if dsl_s else 0.0,
            "dsl.refused": c["dsl.refused"],
            "dsl.self_s": dsl_s,
            "render.text_calls": c["calls.render.text"],
            "render.json_calls": c["calls.render.to_json"],
            "render.bytes_out": c["render.bytes_out"],
            "render.self_s": s["render"],
            # the suites draw in their own loop and in the public generators;
            # everything in verify outside the check_* calls is drawing
            "verify.gen_self_s": s["verify"] - check_s,
        }

    def write(self, path, header: dict):
        """Write the header, the counters, self times and every span."""
        doc = dict(header)
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["self_s"] = dict(sorted(self.fn_self_s.items()))
        doc["span_fields"] = ["id", "name", "layer", "start", "end",
                              "parent", "op"]
        doc["spans"] = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _set_cell(cell, _key, value):
    cell.cell_contents = value


# ------------------------------------------------------------------ counters

def _method_note(layer, meth):
    if layer == "scalar":
        n_operands = 1 if meth in _UNARY_OPS else 2

        def note(tracer, args, result, error, parent):
            tracer.counts["scalar.ops"] += 1
            if meth not in _MONOMIAL_OPS \
                    or not all(map(_is_monomial, args[:n_operands])):
                tracer.counts["scalar.ops_nonmonomial"] += 1
        return note
    if layer == "chars":
        def note(tracer, args, result, error, parent):
            tracer.counts["chars.ops"] += 1
        return note
    return None


def _note_tensor(tracer, args, result, error, parent):
    if error is None:
        tracer.counts["wdrep.blocks_out"] += len(result.blocks)


def _note_poles(tracer, args, result, error, parent):
    if error is None:
        tracer.counts["poles.entries"] += len(result.entries)


def _note_evaluate(tracer, args, result, error, parent):
    tracer.counts["dsl.chars"] += len(args[0])
    # a refusal is a typed error leaving the outermost evaluate_text call
    if isinstance(error, tracer.refusal) and parent != "dsl.evaluate_text":
        tracer.counts["dsl.refused"] += 1


def _note_render(tracer, args, result, error, parent):
    if error is None and not parent.startswith("render."):
        out = result if isinstance(result, str) \
            else json.dumps(result, sort_keys=True)
        tracer.counts["render.bytes_out"] += len(out.encode("utf-8"))


_NOTES = {
    "wdrep.tensor": _note_tensor,
    "poles.exceptional_poles": _note_poles,
    "poles.subregular_poles": _note_poles,
    "dsl.evaluate_text": _note_evaluate,
    "render.text": _note_render,
    "render.to_json": _note_render,
    "render.unicodize": _note_render,
}
