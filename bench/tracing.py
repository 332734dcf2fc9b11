"""Spans around the public functions of every `projd` module, from outside.

`Tracer.install` replaces each public function of a `projd` module (and
each public method of a class defined there) by a wrapper that records a
span: name, start, end, parent span and, for a few functions, an outcome
used for ratios.  A function imported by name into another module, such
as `separation.semigroup_member`, is replaced at every binding, so calls
through any module are seen.  Nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "ringspec", "fgab", "diophantine", "charts", "separation",
          "sheaves")

# Outcome recorded with a span, for the counts and ratios of layer_metrics.
OUTCOMES = {
    "diophantine.semigroup_member": lambda r: r is not None,
    "diophantine.minimal_nonneg_solutions": len,
    "separation.mu_surjective": lambda r: r.weak,
    "charts.chart_algebra": lambda r: sorted(r.free_coords),
}


class Tracer:
    """Records spans of the current process into `spans` while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, outcome=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[4] = outcome
        self._stack.pop()

    def _wrap(self, name: str, fn):
        outcome_of = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, None if outcome_of is None else outcome_of(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the loaded projd modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("projd") and mod is not None}
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            if short not in LAYERS:
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._undo.append((value, meth, fn))
                            setattr(value, meth,
                                    self._wrap(f"{short}.{attr}.{meth}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# Metrics whose spans are named differently: each sums the spans listed.
SPAN_OF = {
    "cli.parse": ("cli.parse_ring_spec", "cli.ring_spec_from_dict"),
    "cli.execute": ("cli.execute",),
    "ringspec.is_relevant": ("ringspec.RingSpec.is_relevant",),
    "ringspec.irrelevant_generators": ("ringspec.RingSpec.irrelevant_generators",),
}


def layer_metrics(ops_spans: list[list], passes: int) -> dict[str, float]:
    """Aggregate the spans of traced ops into per-pass layer metrics.

    `ops_spans` holds one span list per op.  Counts and times are divided
    by `passes`; a span's self time is its duration minus the time covered
    by its direct children.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    outcome = defaultdict(float)
    distinct_charts = 0
    for spans in ops_spans:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        supports = set()
        for (name, start, end, parent, result), covered in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - covered
            if result is None:
                continue
            if name == "charts.chart_algebra":
                supports.add(tuple(result))
            else:
                outcome[name] += result
        distinct_charts += len(supports)

    def total(table, metric):
        return sum(table[n] for n in SPAN_OF.get(metric, (metric,)))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_s.items()
                                     if n.startswith(layer + "."))
    out["op.self_s"] = self_s["op"]
    for metric in ("cli.parse", "cli.execute", "ringspec.irrelevant_generators",
                   "diophantine.semigroup_member", "diophantine.hilbert_basis",
                   "diophantine.minimal_nonneg_solutions",
                   "separation.separated_submodels", "sheaves.global_sections"):
        out[f"{metric}.self_s"] = total(self_s, metric)
    for metric in ("ringspec.is_relevant", "ringspec.irrelevant_generators",
                   "fgab.smith_normal_form", "diophantine.semigroup_member",
                   "diophantine.hilbert_basis", "diophantine.minimal_nonneg_solutions",
                   "charts.chart_algebra", "separation.mu_surjective"):
        out[f"{metric}.calls"] = total(calls, metric)
    out = {k: v / passes for k, v in out.items()}
    out["diophantine.minimal_nonneg_solutions.solutions"] = (
        outcome["diophantine.minimal_nonneg_solutions"] / passes)
    out["diophantine.semigroup_member.hit_ratio"] = ratio(
        outcome["diophantine.semigroup_member"], calls["diophantine.semigroup_member"])
    out["separation.mu_surjective.weak_ratio"] = ratio(
        outcome["separation.mu_surjective"], calls["separation.mu_surjective"])
    out["charts.chart_algebra.distinct_ratio"] = ratio(
        distinct_charts, calls["charts.chart_algebra"])
    return out
