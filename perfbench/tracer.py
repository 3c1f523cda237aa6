"""Layer tracing installed from outside the library, by rebinding.

`Tracer.install` replaces each traced layer function with a timing
wrapper in every loaded ``gradedtwist.*`` module that holds it by name,
and replaces the traced ``Matrix``, ``ModuleHomSpace`` and group methods
on their classes. `Tracer.uninstall` puts every original back, so the
untraced passes of a run execute the unmodified library.

Three kinds of wrapper share one call stack:

- ``SPAN`` records (name, start, end, parent span, verdict id) for a
  stage-level call such as ``backward`` or ``gamma_algebra``;
- ``AGG`` only adds to per-name counters, for hot primitives such as
  ``mat_mul``, so it allocates nothing per call;
- ``COUNT`` counts calls and takes no time stamps (group products).

A name's self time is the duration of its calls minus the time of the
traced calls made inside them. Work the tracer does itself to count
nonzero entries (the observers below) is excluded from every self time
and reported on its own as ``observe_s``.
"""

from __future__ import annotations

import importlib
import json
import os
import time

SPAN = "span"
AGG = "agg"
COUNT = "count"


class Stat:
    """Per-name totals. `calls` counts outermost calls only, so nested
    calls of one name (parse_module -> parse_algebra) count once."""

    __slots__ = ("calls", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def keep_max(self, key, size, shape):
        if size > self.extra.get(key, (-1, None))[0]:
            self.extra[key] = (size, shape)


def _nonzero(values) -> int:
    return sum(1 for x in values if x)


def _observe_mat_mul(stat, args, result):
    a, b = args
    inner = a.cols
    stat.add("dense_mults", a.rows * inner * b.cols)
    # a product x*y with both factors nonzero is useful work; the number
    # of such pairs is sum_k nnz(column k of a) * nnz(row k of b)
    adata, bdata = a.data, b.data
    useful = 0
    for k in range(inner):
        left = _nonzero(adata[k::inner])
        if left:
            useful += left * _nonzero(bdata[k * b.cols:(k + 1) * b.cols])
    stat.add("useful_mults", useful)


def _observe_kron(stat, args, result):
    f, g = args
    stat.add("out_entries", len(result.data))
    stat.add("nonzero_entries", _nonzero(f.data) * _nonzero(g.data))


def _observe_rref(stat, args, result):
    m = args[0]
    stat.add("entries", m.rows * m.cols)
    stat.keep_max("max_shape", m.rows * m.cols, f"{m.rows}x{m.cols}")


def _observe_build_rs(stat, args, result):
    r = result[0]
    stat.keep_max("max_shape", r.rows * r.cols, f"{r.rows}x{r.cols}")


def _observe_file_size(stat, args, result):
    stat.add("bytes", os.path.getsize(args[0]))


_PARSERS = ("parse_field", "parse_matrix", "parse_group", "parse_algebra", "parse_module",
            "parse_morphism", "parse_twist", "parse_phi")
_EMITTERS = ("emit_field", "emit_matrix", "emit_group", "emit_algebra", "emit_module",
             "emit_morphism", "emit_twist", "emit_phi", "emit_hom_basis")

# (metric prefix, defining module, attribute or Class.method, kind, observer)
TARGETS = (
    [
        ("exactmath.mat_mul", "exactmath", "mat_mul", AGG, _observe_mat_mul),
        ("exactmath.kron", "exactmath", "kron", AGG, _observe_kron),
        ("exactmath.rref", "exactmath", "rref", AGG, _observe_rref),
        ("exactmath.kernel_matrix", "exactmath", "kernel_matrix", AGG, None),
        ("exactmath.solve", "exactmath", "solve", AGG, None),
        ("exactmath.inverse", "exactmath", "inverse", AGG, None),
        ("exactmath.Matrix", "exactmath", "Matrix.__init__", AGG, None),
        ("groups.mul", "groups", "FiniteGroup.mul", COUNT, None),
        ("groups.mul", "groups", "IntegerWindow.mul", COUNT, None),
        ("groups.mul", "groups", "mul", COUNT, None),
        ("graded.check_algebra", "graded", "check_algebra", SPAN, None),
        ("graded.check_module", "graded", "check_module", SPAN, None),
        ("graded.check_algebra_morphism", "graded", "check_algebra_morphism", SPAN, None),
        ("graded.cauchy_algebra_oracle", "graded", "cauchy_algebra_oracle", SPAN, None),
        ("twist.check_twist_condition", "twist", "check_twist_condition", SPAN, None),
        ("twist.twist_algebra", "twist", "twist_algebra", SPAN, None),
        ("twist.twist_from_phi", "twist", "twist_from_phi", SPAN, None),
        ("enriched.build_RS", "enriched", "build_RS", SPAN, _observe_build_rs),
        ("enriched.hom_kernel", "enriched", "ModuleHomSpace.__init__", SPAN, None),
        ("enriched.contains", "enriched", "ModuleHomSpace.contains", AGG, None),
        ("enriched.coords", "enriched", "ModuleHomSpace.coords", AGG, None),
        ("enriched.compose_homs", "enriched", "compose_homs", AGG, None),
        ("enriched.gamma_algebra", "enriched", "gamma_algebra", SPAN, None),
        ("enriched.endo_iso", "enriched", "endo_iso", SPAN, None),
        ("equivalence.equivalence_from_twist", "equivalence", "equivalence_from_twist", SPAN, None),
        ("equivalence.check_equivalence", "equivalence", "check_equivalence", SPAN, None),
        ("equivalence.gamma_twist_phi", "equivalence", "gamma_twist_phi", SPAN, None),
        ("equivalence.backward", "equivalence", "backward", SPAN, None),
        ("serialize.parse", "serialize", "read_json", AGG, _observe_file_size),
        ("serialize.emit", "serialize", "write_json", AGG, _observe_file_size),
    ]
    + [("serialize.parse", "serialize", name, AGG, None) for name in _PARSERS]
    + [("serialize.emit", "serialize", name, AGG, None) for name in _EMITTERS]
)

_MODULES = ("exactmath", "groups", "report", "graded", "twist", "enriched",
            "equivalence", "serialize", "fixtures", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.verdict = None
        self.observe_s = 0.0
        self._stack: list = []   # frames [child seconds, enclosing span index]
        self._saved: list = []   # (holder, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"gradedtwist.{m}") for m in _MODULES]
        for name, owner, attr, kind, observe in TARGETS:
            module = importlib.import_module(f"gradedtwist.{owner}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, self._wrap(name, original, kind, observe))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, kind, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def _rebind(self, holder, attr, wrapper):
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def _wrap(self, name, fn, kind, observe):
        stat = self.stats.setdefault(name, Stat())
        if kind == COUNT:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, perf = self._stack, self.spans, time.perf_counter
        tracer = self
        is_span = kind == SPAN

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = parent
            if is_span:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            stat.depth += 1
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                stat.depth -= 1
                if not stat.depth:
                    stat.calls += 1
                stat.self_s += (t1 - t0) - frame[0]
                if is_span:
                    spans[index] = (name, t0, t1, parent, tracer.verdict)
                if ok and observe is not None:
                    observe(stat, args, result)
                t2 = perf()
                tracer.observe_s += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t0
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer numbers, keyed by metric name, as (value, unit)."""
        s = self.stats
        per = 1.0 / passes

        def calls(name):
            return (s[name].calls * per, "count")

        def self_s(name):
            return (s[name].self_s * per, "s")

        def extra(name, key):
            return (s[name].extra.get(key, 0) * per, "count")

        def ratio(name, num, den):
            d = s[name].extra.get(den, 0)
            return (s[name].extra.get(num, 0) / d if d else 0.0, "ratio")

        def max_shape(name):
            return (s[name].extra.get("max_shape", (0, None))[0], "entries")

        out = {
            "exactmath.mat_mul.calls": calls("exactmath.mat_mul"),
            "exactmath.mat_mul.self_s": self_s("exactmath.mat_mul"),
            "exactmath.mat_mul.dense_mults": extra("exactmath.mat_mul", "dense_mults"),
            "exactmath.mat_mul.useful_ratio": ratio("exactmath.mat_mul", "useful_mults", "dense_mults"),
            "exactmath.kron.calls": calls("exactmath.kron"),
            "exactmath.kron.self_s": self_s("exactmath.kron"),
            "exactmath.kron.out_entries": extra("exactmath.kron", "out_entries"),
            "exactmath.kron.nonzero_ratio": ratio("exactmath.kron", "nonzero_entries", "out_entries"),
            "exactmath.rref.calls": calls("exactmath.rref"),
            "exactmath.rref.self_s": self_s("exactmath.rref"),
            "exactmath.rref.entries": extra("exactmath.rref", "entries"),
            "exactmath.rref.max_shape": max_shape("exactmath.rref"),
            "exactmath.kernel_matrix.self_s": self_s("exactmath.kernel_matrix"),
            "exactmath.solve.calls": calls("exactmath.solve"),
            "exactmath.solve.self_s": self_s("exactmath.solve"),
            "exactmath.inverse.calls": calls("exactmath.inverse"),
            "exactmath.inverse.self_s": self_s("exactmath.inverse"),
            "exactmath.Matrix.constructed": calls("exactmath.Matrix"),
            "exactmath.Matrix.init_s": self_s("exactmath.Matrix"),
            "groups.mul.calls": calls("groups.mul"),
        }
        for name in ("graded.check_algebra", "graded.check_module",
                     "graded.check_algebra_morphism", "graded.cauchy_algebra_oracle",
                     "twist.check_twist_condition", "twist.twist_algebra", "twist.twist_from_phi"):
            out[f"{name}.self_s"] = self_s(name)
        out["enriched.build_RS.calls"] = calls("enriched.build_RS")
        out["enriched.build_RS.self_s"] = self_s("enriched.build_RS")
        out["enriched.build_RS.max_shape"] = max_shape("enriched.build_RS")
        out["enriched.hom_kernel.self_s"] = self_s("enriched.hom_kernel")
        for name in ("enriched.contains", "enriched.compose_homs", "enriched.coords"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        for name in ("enriched.gamma_algebra", "enriched.endo_iso",
                     "equivalence.equivalence_from_twist", "equivalence.check_equivalence",
                     "equivalence.gamma_twist_phi", "equivalence.backward"):
            out[f"{name}.self_s"] = self_s(name)
        for name in ("serialize.parse", "serialize.emit"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.bytes"] = (s[name].extra.get("bytes", 0) * per, "bytes")
        return out

    def shapes(self) -> dict:
        """Largest shapes seen, as RxC strings, for the text report."""
        return {
            name: stat.extra["max_shape"][1]
            for name, stat in self.stats.items()
            if "max_shape" in stat.extra
        }

    def write(self, path):
        """Write the spans and the per-name totals as one JSON file."""
        data = {
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p, "verdict": v}
                for n, a, b, p, v in self.spans
            ],
            "totals": {
                name: {"calls": st.calls, "self_s": st.self_s,
                       **{k: v for k, v in st.extra.items() if k != "max_shape"}}
                for name, st in sorted(self.stats.items())
            },
            "observe_s": self.observe_s,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
