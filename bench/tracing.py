"""Spans around the public functions of the pg552 layers, recorded from
outside the package by replacing module attributes with timing wrappers.

A function is replaced in the module that defines it and in every loaded
``pg552`` module that imported it by name (``cli``, ``geometric_search``,
the package itself), so calls resolved through any of those names are
timed.  ``PermutationGroup`` is wrapped method by method on the class.
Spans stay in memory until :meth:`Tracer.take` hands them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer module -> public functions wrapped in it
FUNCTIONS = {
    "symmetry": ("canonical_form", "refine", "is_isomorphic", "is_self_dual",
                 "aut_incidence", "aut_graph"),
    "graphs": ("local_configuration", "srg_check"),
    "cliques": ("max_cliques",),
    "geometric_search": ("all_geometries_on", "mms_counterexample_search"),
    "incidence": ("verify_pg", "point_graph", "line_graph", "from_text", "to_text"),
    "construction": ("build_vls", "build_new"),
}
# PermutationGroup method -> span name suffix
METHODS = {"__init__": "init", "add": "add", "contains": "contains"}
# span name -> (counter name, how a result counts)
COUNTERS = {
    "symmetry.PermutationGroup.add": ("accepted", bool),
    "cliques.max_cliques": ("found", lambda rep: len(rep.all_cliques)),
    "geometric_search.all_geometries_on": ("solutions", len),
}


class Tracer:
    """Records one span per wrapped call: ``[name, start, end, parent, n]``,
    where ``parent`` is the index of the enclosing wrapped call's span (or
    -1) and ``n`` the call's contribution to its counter, if it has one."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name, (None, None))[1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = int(count(result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper recording spans called ``name``."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        """Wrap every traced function of pg552, as currently imported."""
        homes = {m: importlib.import_module(f"pg552.{m}") for m in FUNCTIONS}
        loaded = [m for n, m in sys.modules.items() if n == "pg552" or n.startswith("pg552.")]
        for mod_name, names in FUNCTIONS.items():
            home = homes[mod_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in loaded:
                    if vars(mod).get(fn_name) is original:
                        self._undo.append((mod, fn_name, original))
                        setattr(mod, fn_name, traced)
        cls = homes["symmetry"].PermutationGroup
        for meth, suffix in METHODS.items():
            self.patch(cls, meth, f"symmetry.PermutationGroup.{suffix}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand out the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def totals(spans, scale: float = 1.0) -> dict[str, float]:
    """Per span name: ``.calls``, busy ``.s``, ``.self_s`` (busy time minus
    the time of directly nested wrapped calls) and the counter, if any.
    Times are multiplied by ``scale``."""
    nested = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            nested[parent] += (end - start) * scale
    out: dict[str, float] = {}
    for i, (name, start, end, _, n) in enumerate(spans):
        busy = (end - start) * scale
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + busy
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + busy - nested[i]
        if n is not None:
            key = f"{name}.{COUNTERS[name][0]}"
            out[key] = out.get(key, 0) + n
    return out
