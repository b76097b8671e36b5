"""Per-layer tracing of relroots from outside the package.

``Tracer.install()`` replaces the public functions and methods of every
relroots module with timing wrappers, and also rebinds the names that other
relroots modules imported with ``from .x import y``, so calls through those
names are counted too.  Nothing under ``src/`` changes.

Each wrapped call is a span with a name, a start, an end and a parent.  The
tracer keeps aggregate figures per function (calls, outermost inclusive
time, self time) for every span, and keeps the individual span records for
the outer ``SPAN_DEPTH`` levels of nesting, where there are few of them,
except for polyring arithmetic, which is only aggregated.  A
layer's self time is the time of its spans minus the time of their child
spans, whatever layer the children belong to.  ``metrics()`` turns the
aggregates into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("polyring", "rootcore", "chevalley", "folding", "relcalc",
          "theoremlab", "finitelab", "cli")

# Operators that count as work of their class; other dunders (hashing,
# repr, equality of small value objects) are left unwrapped.
WRAPPED_DUNDERS = {
    "PolyElem": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "__pow__"),
    "UnipotentMatrix": ("__matmul__", "__eq__"),
    "FqMatrix": ("__matmul__",),
}

# Cheap queries called in inner loops: wrapping them would multiply the
# tracing overhead without feeding any metric.
UNWRAPPED = {
    "PolyElem.is_zero", "PolyElem.is_constant", "PolyElem.sorted_terms",
    "Root.is_positive", "RelativeRoot.is_positive", "RelativeRoot.scaled",
    "RootSystem.root_from_coords", "RelativeRootSystem.fiber",
    "VarRegistry.zero", "VarRegistry.one", "VarRegistry.index",
    "FqMatrix.key",
}

SPAN_DEPTH = 4

IDENTITY_FUNCS = ("theoremlab.verify_C2_identities",
                  "theoremlab.verify_G2_identities",
                  "theoremlab.verify_case_schemas")
SPANNING_FUNCS = ("relcalc.check_spanning_lemma2_2", "relcalc.check_spanning_lemma3")

# (metric, unit, better): the per-layer metrics of a traced run
PER_LAYER = (
    ("polyring.mul_calls", "count", "lower"),
    ("polyring.add_calls", "count", "lower"),
    ("polyring.scale_calls", "count", "lower"),
    ("polyring.self_s", "s", "lower"),
    ("rootcore.build_s", "s", "lower"),
    ("rootcore.self_s", "s", "lower"),
    ("chevalley.basis_builds", "count", "lower"),
    ("chevalley.basis_s", "s", "lower"),
    ("chevalley.products", "count", "lower"),
    ("chevalley.factors", "count", "lower"),
    ("chevalley.entries_out", "count", "lower"),
    ("chevalley.product_s", "s", "lower"),
    ("chevalley.collects", "count", "lower"),
    ("chevalley.collect_s", "s", "lower"),
    ("chevalley.matrix_eq_s", "s", "lower"),
    ("chevalley.self_s", "s", "lower"),
    ("folding.systems", "count", "lower"),
    ("folding.build_s", "s", "lower"),
    ("folding.classify_s", "s", "lower"),
    ("folding.decompositions", "count", "lower"),
    ("folding.checks", "count", "lower"),
    ("folding.checks_per_decomposition", "ratio", "lower"),
    ("folding.check_s", "s", "lower"),
    ("folding.self_s", "s", "lower"),
    ("relcalc.tables", "count", "lower"),
    ("relcalc.table_reuse", "ratio", "higher"),
    ("relcalc.table_s", "s", "lower"),
    ("relcalc.surjectivity_s", "s", "lower"),
    ("relcalc.span_s", "s", "lower"),
    ("relcalc.self_s", "s", "lower"),
    ("theoremlab.catalog_s", "s", "lower"),
    ("theoremlab.identity_s", "s", "lower"),
    ("theoremlab.identity_products", "count", "lower"),
    ("theoremlab.self_s", "s", "lower"),
    ("finitelab.generators_s", "s", "lower"),
    ("finitelab.closure_s", "s", "lower"),
    ("finitelab.derived_s", "s", "lower"),
    ("finitelab.elements", "count", "higher"),
    ("finitelab.elements_per_s", "1/s", "higher"),
    ("finitelab.retained_mb", "MB", "lower"),
    ("finitelab.retained_ratio", "ratio", "higher"),
    ("finitelab.self_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)


class _Stat:
    __slots__ = ("calls", "outer", "incl", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.outer = 0  # calls not made from inside a call of the same function
        self.incl = 0.0  # outermost calls only, so recursion is not doubled
        self.self_time = 0.0
        self.active = 0


def _retained(elements):
    """(element bytes, bytes of the distinct buffers the elements keep alive)."""
    owners = {}
    data = 0
    for a in elements.values():
        data += a.nbytes
        root = a
        while root.base is not None and hasattr(root.base, "nbytes"):
            root = root.base
        owners[id(root)] = root.nbytes
    return data, sum(owners.values())


class Tracer:
    def __init__(self):
        self.stats = {}  # "layer.qualname" -> _Stat
        self.stack = []  # frames: [child_time, span_id]
        self.spans = []  # [name, start, end, parent_id]
        self.counters = {"chevalley.factors": 0, "chevalley.entries_out": 0,
                         "theoremlab.identity_products": 0,
                         "finitelab.elements": 0, "finitelab.element_bytes": 0,
                         "finitelab.retained_bytes": 0}
        self.table_keys = set()
        self.hook_s = 0.0
        self._identity_depth = 0
        self._installed = []  # (owner, attribute, original)
        self._hooks = self._post_hooks()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack, spans = self.stack, self.spans
        clock = time.perf_counter
        post = self._hooks.get(name)
        identity = name in IDENTITY_FUNCS
        spanned = not name.startswith("polyring.")  # too many to keep one by one
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(stack)
            span_id = -1
            if spanned and depth < SPAN_DEPTH:
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, span_id]
            stack.append(frame)
            stat.active += 1
            if identity:
                tracer._identity_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat.active -= 1
                if identity:
                    tracer._identity_depth -= 1
                stat.calls += 1
                if not stat.active:
                    stat.outer += 1
                    stat.incl += dt
                stat.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span_id >= 0:
                    spans[span_id][1] = t0
                    spans[span_id][2] = t1
            if post is not None:
                h0 = clock()
                post(args, result)
                h = clock() - h0
                tracer.hook_s += h
                if stack:
                    stack[-1][0] += h  # hook time is tracer time, not the caller's
            return result

        return wrapper

    def _post_hooks(self):
        c = self.counters

        def product(args, result):
            c["chevalley.factors"] += len(args[2])  # every caller passes a list
            c["chevalley.entries_out"] += sum(
                1 for col in result.cols.values() for v in col.values()
                if not v.is_zero())
            if self._identity_depth:
                c["theoremlab.identity_products"] += 1

        def table(args, result):
            rrs, _cb, A, B = args[:4]
            spec = rrs.spec
            self.table_keys.add((str(spec.root_type),
                                 tuple(a.perm for a in spec.gamma),
                                 tuple(spec.levi), A.coords, B.coords))

        def group(args, result):
            data, kept = _retained(result.elements)
            c["finitelab.elements"] += len(result.elements)
            c["finitelab.element_bytes"] += data
            c["finitelab.retained_bytes"] += kept

        return {"chevalley.product_of_root_elements": product,
                "relcalc.compute_relative_commutator_maps": table,
                "finitelab.generate_elementary_group": group}

    def install(self):
        """Wrap every public callable of every layer, then rebind imports."""
        modules = {layer: importlib.import_module("relroots." + layer)
                   for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(layer, obj, replaced)
                elif callable(obj):
                    wrapper = self._wrap("%s.%s" % (layer, attr), obj)
                    replaced[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
        # names bound by ``from .x import y`` in the other modules
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(mod, attr, wrapper)
        return self

    def _install_class(self, layer, cls, replaced):
        dunders = WRAPPED_DUNDERS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if "%s.%s" % (cls.__name__, attr) in UNWRAPPED:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                wrapper = type(raw)(replaced.get(id(fn)) or self._wrap(name, fn))
                replaced[id(fn)] = wrapper.__func__
            elif inspect.isfunction(raw):
                wrapper = replaced.get(id(raw))  # aliases such as __radd__ = __add__
                if wrapper is None:
                    wrapper = self._wrap(name, raw)
                    replaced[id(raw)] = wrapper
            else:
                continue
            self._set(cls, attr, wrapper)

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def _sum(self, attr, names):
        return sum(getattr(self.stats[n], attr) for n in names if n in self.stats)

    def calls(self, *names):
        return self._sum("calls", names)

    def incl(self, *names):
        return self._sum("incl", names)

    def self_s(self, layer):
        return sum(s.self_time for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def metrics(self):
        c = self.counters
        m = {}
        m["polyring.mul_calls"] = self.calls("polyring.PolyElem.__mul__")
        m["polyring.add_calls"] = self.calls("polyring.PolyElem.__add__")
        m["polyring.scale_calls"] = self.calls("polyring.PolyElem.scale")
        m["rootcore.build_s"] = self.incl("rootcore.build_root_system")
        m["chevalley.basis_builds"] = self.calls("chevalley.build_chevalley_basis")
        m["chevalley.basis_s"] = self.incl("chevalley.build_chevalley_basis")
        m["chevalley.products"] = self.calls("chevalley.product_of_root_elements")
        m["chevalley.factors"] = c["chevalley.factors"]
        m["chevalley.entries_out"] = c["chevalley.entries_out"]
        m["chevalley.product_s"] = self.incl("chevalley.product_of_root_elements")
        m["chevalley.collects"] = self.calls("chevalley.collect")
        m["chevalley.collect_s"] = self.incl("chevalley.collect")
        m["chevalley.matrix_eq_s"] = self.incl("chevalley.UnipotentMatrix.__eq__")
        m["folding.systems"] = self.calls("folding.build_relative_system")
        m["folding.build_s"] = self.incl("folding.build_relative_system")
        m["folding.classify_s"] = self.incl("folding.classify_relative_type")
        m["folding.decompositions"] = self._sum("outer", ["folding.decompose_relative_root"])
        m["folding.checks"] = self.calls("folding.check_lemma1_decomposition")
        m["folding.checks_per_decomposition"] = (
            m["folding.checks"] / m["folding.decompositions"]
            if m["folding.decompositions"] else 0.0)
        m["folding.check_s"] = self.incl("folding.check_lemma1_decomposition")
        tables = self.calls("relcalc.compute_relative_commutator_maps")
        m["relcalc.tables"] = tables
        m["relcalc.table_reuse"] = len(self.table_keys) / tables if tables else 0.0
        m["relcalc.table_s"] = self.incl("relcalc.compute_relative_commutator_maps")
        m["relcalc.surjectivity_s"] = self.incl("relcalc.check_N11_surjectivity")
        m["relcalc.span_s"] = self.incl(*SPANNING_FUNCS)
        m["theoremlab.catalog_s"] = self.incl("theoremlab.verify_lemma1_catalog")
        m["theoremlab.identity_s"] = self.incl(*IDENTITY_FUNCS)
        m["theoremlab.identity_products"] = c["theoremlab.identity_products"]
        gen_s = self.incl("finitelab.adjoint_generators")
        m["finitelab.generators_s"] = gen_s
        closure_s = self.incl("finitelab.generate_elementary_group") - gen_s
        m["finitelab.closure_s"] = closure_s
        m["finitelab.derived_s"] = self.incl("finitelab.derived_subgroup_index")
        m["finitelab.elements"] = c["finitelab.elements"]
        m["finitelab.elements_per_s"] = (c["finitelab.elements"] / closure_s
                                         if closure_s > 0 else 0.0)
        m["finitelab.retained_mb"] = c["finitelab.retained_bytes"] / 2 ** 20
        m["finitelab.retained_ratio"] = (
            c["finitelab.element_bytes"] / c["finitelab.retained_bytes"]
            if c["finitelab.retained_bytes"] else 0.0)
        m["cli.report_s"] = self.incl("cli.make_report")
        for layer in LAYERS:
            m[layer + ".self_s"] = self.self_s(layer)
        assert set(m) == {name for name, _, _ in PER_LAYER}
        return m

    def function_table(self):
        return {n: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self_time}
                for n, s in sorted(self.stats.items()) if s.calls}

    def write(self, path, workload):
        """Metrics, per-function figures and the outer spans, as one JSON file."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            json.dump({
                "workload": workload,
                "metrics": self.metrics(),
                "hook_s": self.hook_s,
                "functions": self.function_table(),
                "spans": [{"name": n, "start": a - t0, "end": b - t0, "parent": p}
                          for n, a, b, p in self.spans],
            }, fh, indent=1)
