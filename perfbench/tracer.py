"""Outside-in tracer: spans and exact call counts at the superroot module
boundaries, recorded by wrapping public functions from the benchmark.

A function is wrapped under every name a superroot module holds it by,
so a call through a re-imported name (``steinberg.positive_system``,
``clifford.eval_weight_on_cartan``, ...) is seen like any other.  Each
binding gets its own wrapper, so the self-test can show that calls
through each name it expects were seen.  Spans (name, start, end, parent, operation) stay in
memory until :meth:`Tracer.write`; self time is a span's duration minus
the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("lattice", "rootdata", "liesuper", "clifford", "steinberg", "hyperalg", "cli")

# (span name, defining module, attribute).  Spans also count calls.
SPANS = (
    ("lattice.hnf", "lattice", "hnf"),
    ("lattice.integer_kernel", "lattice", "integer_kernel"),
    ("lattice.in_lattice", "lattice", "in_lattice"),
    ("rootdata.positive_system", "rootdata", "positive_system"),
    ("rootdata.builders", "rootdata", "build_gl"),
    ("rootdata.builders", "rootdata", "build_q"),
    ("rootdata.builders", "rootdata", "build_p"),
    ("liesuper.lie_algebra_for", "liesuper", "lie_algebra_for"),
    ("liesuper.check_admissible_base", "liesuper", "check_admissible_base"),
    ("liesuper.subalgebra_closure", "liesuper", "subalgebra_closure"),
    ("clifford.gram_form", "clifford", "gram_form"),
    ("clifford.form_rank", "clifford", "form_rank"),
    ("steinberg.steinberg_decompose", "steinberg", "steinberg_decompose"),
    ("steinberg.is_restricted", "steinberg", "is_restricted"),
    ("steinberg.char_ring", "steinberg", "char_add"),
    ("steinberg.char_ring", "steinberg", "char_mul"),
    ("steinberg.char_ring", "steinberg", "frobenius_twist"),
    ("steinberg.char_ring", "steinberg", "steinberg_character"),
    ("hyperalg.verify_commutator_formula", "hyperalg", "verify_commutator_formula"),
)

# (counter name, defining module, attribute).  Hot or tiny calls: counted, no span.
COUNTS = (
    ("lattice.pair", "lattice", "pair"),
    ("rootdata.order_eval", "rootdata", "OrderFunctional.eval"),
    ("liesuper.super_commutator", "liesuper", "super_commutator"),
    ("liesuper.bracket", "liesuper", "LieSuperAlgebra.bracket"),
    ("liesuper.algebra_init", "liesuper", "LieSuperAlgebra.__init__"),
    ("liesuper.K_alpha", "liesuper", "K_alpha"),
    ("liesuper.eval_weight_on_cartan", "liesuper", "eval_weight_on_cartan"),
    ("steinberg.flat_checks", "steinberg", "is_flat"),
    ("steinberg.flat_checks", "steinberg", "is_dominant"),
)


# Counters read off a call's result, by _after_call.
RESULT_COUNTS = (
    "liesuper.bracket_entries",
    "steinberg.flat_accepts",
    "steinberg.digits_out",
    "hyperalg.comparisons",
)


def _after_call(counts: Dict[str, int], name: str, args, result) -> None:
    if name == "liesuper.algebra_init":
        counts["liesuper.bracket_entries"] += len(args[0].bracket_table)
    elif name == "steinberg.flat_checks" and result:
        counts["steinberg.flat_accepts"] += 1
    elif name == "steinberg.steinberg_decompose":
        counts["steinberg.digits_out"] += len(result)
    elif name == "hyperalg.verify_commutator_formula":
        counts["hyperalg.comparisons"] += result.checked


class Tracer:
    """Spans and counters of one traced phase; the wrappers are in place
    only between :meth:`install` and :meth:`uninstall`."""

    def __init__(self) -> None:
        # Span rows: [name, start, end, parent index or -1, operation index].
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.binding_hits: Dict[str, int] = {}
        self._stack: List[int] = []
        self._op = -1
        self._bindings: List[Tuple[object, str, object, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding; the first call finds them."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings:
            setattr(owner, attr, original)

    def _find_bindings(self) -> List[Tuple[object, str, object, object]]:
        mods = {m: importlib.import_module("superroot." + m) for m in MODULES}
        everyone = [importlib.import_module("superroot")] + list(mods.values())
        targets = [(n, m, a, True) for n, m, a in SPANS]
        targets += [(n, m, a, False) for n, m, a in COUNTS]
        found = []
        for name, mod, attr, is_span in targets:
            self.counts.setdefault(name + ".calls", 0)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mods[mod], cls_name)
                found.append(self._binding(owner, meth, name, "%s.%s" % (mod, attr), is_span))
                continue
            original = getattr(mods[mod], attr)
            for module in everyone:
                for key, val in list(vars(module).items()):
                    if val is original:
                        where = "%s.%s" % (module.__name__.split(".")[-1], key)
                        found.append(self._binding(module, key, name, where, is_span))
        for key in RESULT_COUNTS:
            self.counts.setdefault(key, 0)
        return found

    def _binding(self, owner, attr: str, name: str, where: str, is_span: bool):
        original = getattr(owner, attr)
        self.binding_hits.setdefault(where, 0)
        make = self._span_wrapper if is_span else self._count_wrapper
        return owner, attr, original, make(original, name, where)

    def _count_wrapper(self, fn: Callable, name: str, where: str) -> Callable:
        counts, hits, calls = self.counts, self.binding_hits, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            hits[where] += 1
            result = fn(*args, **kwargs)
            _after_call(counts, name, args, result)
            return result

        return wrapper

    def _span_wrapper(self, fn: Callable, name: str, where: str) -> Callable:
        counts, hits, calls = self.counts, self.binding_hits, name + ".calls"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            hits[where] += 1
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            _after_call(counts, name, args, result)
            return result

        return wrapper

    # -- operations ---------------------------------------------------------

    def begin_op(self, name: str) -> None:
        """Open the root span of one benchmark operation."""
        self._op = len(self.spans)
        self._stack.append(self._op)
        self.spans.append(["op." + name, time.perf_counter(), 0.0, -1, self._op])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = -1

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _parent, _op), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta or {},
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "bindings": self.binding_hits,
                },
                fh,
                separators=(",", ":"),
            )
