"""Spans and counters recorded around the package's functions, from outside.

The package imports names by value (``from .ringmat import
principal_permanents``) and keeps route functions in tables, so a wrapper
put on one module attribute alone would miss every caller that holds its
own reference.  ``Tracer.install`` therefore replaces the function in
every loaded ``redeiberge`` namespace, and in every module-level dict of
those namespaces, that refers to it; ``uninstall`` puts the originals
back.

Spans are kept in memory as (name, start, end, parent, op, outermost for
the name, outermost for the module) and written out as JSON lines when
the run ends.  A span's self time is its duration minus the durations of
its direct child spans.  Busy time of a name (or of a module) counts only
spans with no enclosing span of the same name (or module), so nested
calls are not counted twice.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from math import factorial
from time import perf_counter

PACKAGE = "redeiberge"


def _by_arg(index: int, key: str, default: str, template: str):
    """Span name taken from one argument of the call, e.g. a route name."""

    def name_of(args, kwargs):
        value = args[index] if len(args) > index else kwargs.get(key, default)
        return template.format(value)

    return name_of


def _count_routes(counts, args, kwargs, result):
    counts["redei.routes"] += len(result)


def _count_perm_yield(counts, args, kwargs, result):
    verts = args[1] if len(args) > 1 else kwargs.get("verts")
    n = args[0].n if verts is None else len(set(verts))
    counts["digraph.perms_with_cycles_in_either.kept"] += len(result)
    counts["digraph.perms_with_cycles_in_either.space"] += factorial(n)


def _spec(module, attr, names=None, name_of=None, on_result=None):
    return (module, attr, names or (f"{module}.{attr}",), name_of, on_result)


# Each U_D route is traced through the function that implements it, so a
# route counts whether it runs from the route table or is called directly
# (u_digraph and the identity suite call powersum-GS directly).
_ROUTES = {
    "u_via_fundamental": "F-definition",
    "u_via_path_covers": "path-cover",
    "u_via_powersum_GS": "powersum-GS",
    "u_via_subset_formula": "subset-formula",
    "u_via_matrix_route": "matrix-det",
    "u_via_schur_JT": "schur-JT",
    "u_via_immanant_LR": "immanant-LR",
    "u_tournament": "tournament",
}

# Hot leaf helpers (guard, SymFun construction, cycle_type, phi,
# is_digraph_cycle) are counted or left out: a span costs about a
# microsecond, and they run thousands of times per digraph.
SPANNED = (
    *(_spec("redei", fn, (f"redei.route.{route}",)) for fn, route in _ROUTES.items()),
    _spec(
        "redei",
        "u_acyclic",
        tuple(f"redei.route.acyclic-{f}" for f in ("powersum", "schur", "records")),
        _by_arg(1, "flavor", "powersum", "redei.route.acyclic-{}"),
    ),
    _spec("cli", "identity_suite"),
    _spec("redei", "u_all_routes", on_result=_count_routes),
    _spec("redei", "verify_chow_identities"),
    _spec("redei", "u_from_chow"),
    _spec("redei", "hook_coefficient"),
    _spec("redei", "routes_agree"),
    _spec("ringmat", "det_ring"),
    _spec("ringmat", "matrix_series"),
    _spec("ringmat", "immanant"),
    _spec("ringmat", "principal_permanents"),
    _spec("ringmat", "principal_determinants"),
    _spec("ringmat", "_anchored_cycle_weights"),
    _spec("symfun", "multiply"),
    _spec("symfun", "to_p"),
    _spec("symfun", "convert"),
    _spec("symfun", "littlewood_richardson"),
    _spec("walks", "verify_walk_identity"),
    _spec("walks", "xi"),
    _spec("digraph", "enumerate_path_cycle_covers"),
    _spec("digraph", "enumerate_cycle_covers"),
    _spec("digraph", "perms_with_cycles_in_either", on_result=_count_perm_yield),
    _spec("hamilton", "ham_report"),
    _spec("hamilton", "parity_suite"),
    _spec("hamilton", "ham_detper"),
    _spec("hamilton", "ham_dp"),
    _spec(
        "hamilton",
        "ham_cycles",
        tuple(f"hamilton.ham_cycles.{r}" for r in ("formula_a", "formula_b", "bruteforce")),
        _by_arg(1, "route", "formula_a", "hamilton.ham_cycles.{}"),
    ),
    _spec("combinat", "character"),
)

# Modules whose spans are summed into <module>.busy_s, .self_s and .calls.
MODULES = ("cli", "redei", "hamilton", "ringmat", "symfun", "walks", "digraph", "combinat")


def _zero_row() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0}


class Tracer:
    """Wraps the package's functions; records only while ``active``."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.active = False
        self.op = None
        self.span_names: list = []
        self._stack: list = []
        self._depth: defaultdict = defaultdict(int)
        self._undo: list = []

    # ------------------------------------------------------------ recording

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name (the benchmark's own op span)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name, name_of=None, on_result=None):
        module = name.split(".", 1)[0]
        depth, stack, spans, counts = self._depth, self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name_of(args, kwargs) if name_of else name
            outer, mouter = depth[label] == 0, depth[module] == 0
            depth[label] += 1
            depth[module] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[label] -= 1
                depth[module] -= 1
                spans[idx] = (label, t0, t1, parent, self.op, outer, mouter)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --------------------------------------------------------- installation

    def _replace(self, original, wrapper) -> int:
        """Put wrapper wherever a package namespace, or a dict in one, holds original."""
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            space = vars(mod)
            tables = [space] + [v for v in space.values() if type(v) is dict]
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = wrapper
                        self._undo.append((table, key, original))
                        replaced += 1
        return replaced

    def install(self) -> None:
        """Wrap every SPANNED function and the two counted hot helpers."""
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES + ("guards",)}
        for mod, attr, names, name_of, on_result in SPANNED:
            original = getattr(mods[mod], attr)
            self.span_names.extend(names)
            wrapper = self._wrap(original, names[0], name_of, on_result)
            if not self._replace(original, wrapper):
                raise RuntimeError(f"{mod}.{attr} not found in any {PACKAGE} namespace")
        guard = mods["guards"].guard
        self._replace(guard, self._count(guard, "guards.calls"))
        symfun_cls = mods["symfun"].SymFun
        init = symfun_cls.__init__
        symfun_cls.__init__ = self._count(init, "symfun.SymFun.constructed")
        self._undo.append((symfun_cls, "__init__", init))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ summaries

    def summary(self) -> dict:
        """Per span name and per module: calls, busy seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, *_rest in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: _zero_row() for name in self.span_names + list(MODULES)}
        for i, (name, t0, t1, _parent, _op, outer, mouter) in enumerate(self.spans):
            dur = t1 - t0
            for key, is_outer in ((name, outer), (name.split(".", 1)[0], mouter)):
                row = out.setdefault(key, _zero_row())
                row["calls"] += 1
                row["self_s"] += dur - child[i]
                if is_outer:
                    row["busy_s"] += dur
        return out

    def write_jsonl(self, path: str, meta: dict, origin: float) -> None:
        """One line of run metadata, then one line per span (times from origin)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, t0, t1, parent, op, *_flags) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": t0 - origin,
                    "end": t1 - origin,
                    "parent": parent,
                    "op": op,
                }
                fh.write(json.dumps(record) + "\n")
