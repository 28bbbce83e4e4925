"""In-process span tracer for the traced perfbench run.

The tracer replaces the public functions of each treemult module, as
``treemult.verify`` binds them, with wrappers that record one span per
call: layer, function, start, end, parent span and root span.  Spans stay
in memory until the run ends.  A span's self time is its duration minus
the time its direct child spans cover, so the self times of all spans sum
to the duration of the root spans.

Only the boundaries ``verify`` crosses are wrapped, plus the
``families -> spectrum.multiplicity`` call that ``classify`` makes for its
eigenvalue-carrying condition.  Tree work done inside ``classify`` (vertex
deletion, canonical codes) is therefore families self time, and the rank
engine's arithmetic is spectrum self time.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("tree", "poly", "spectrum", "families", "verify")


def _percentile_ms(values: list[int], q: float) -> float:
    """Nearest-rank percentile of span durations, in milliseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, root, layer, name, start_ns, end_ns)
        self._stack: list[list] = []  # [id, root, layer, name, start_ns, child_ns]
        self._depth: Counter = Counter()  # open spans per layer
        self.calls: Counter = Counter()  # (layer, name) -> calls
        self.total_ns: Counter = Counter()  # (layer, name) -> inclusive time
        self.outcomes: Counter = Counter()  # (layer, name) -> useful outcomes
        self.self_ns: Counter = Counter()  # layer -> self time
        self.busy_ns: Counter = Counter()  # layer -> time inside its outermost spans
        self.durations: dict = defaultdict(list)  # (layer, name) -> span durations

    def enter(self, layer: str, name: str) -> None:
        span_id = len(self.spans) + len(self._stack)
        root = self._stack[-1][1] if self._stack else span_id
        self._depth[layer] += 1
        self._stack.append([span_id, root, layer, name, time.perf_counter_ns(), 0])

    def exit(self, outcomes: int) -> None:
        end = time.perf_counter_ns()
        span_id, root, layer, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][5] += dur
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy_ns[layer] += dur
        key = (layer, name)
        self.calls[key] += 1
        self.total_ns[key] += dur
        self.outcomes[key] += outcomes
        self.self_ns[layer] += dur - child_ns
        self.durations[key].append(dur)
        self.spans.append((span_id, parent, root, layer, name, start, end))

    @contextmanager
    def span(self, layer: str, name: str):
        self.enter(layer, name)
        try:
            yield
        finally:
            self.exit(0)

    def wrap(self, layer: str, name: str, fn, outcomes=None, materialize: bool = False):
        """Wrapper recording a span per call.  ``outcomes(result)`` counts
        the useful outcomes of a call that returned (default 1); a call that
        raised has none.  ``materialize`` drains a returned generator inside
        the span so that the span covers the generator's work."""

        def traced(*args, **kwargs):
            self.enter(layer, name)
            produced = 0
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
                produced = 1 if outcomes is None else outcomes(result)
                return result
            finally:
                self.exit(produced)

        return traced

    def root_ns(self, name: str | None = None) -> int:
        """Time inside root spans (named ``name``, if given)."""
        return sum(
            end - start
            for _, parent, _, _, span_name, start, end in self.spans
            if parent is None and name in (None, span_name)
        )

    def layer_metrics(self) -> dict:
        """Per-module calls, busy and self time, and the per-function
        figures the benchmark reports."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = sum(c for (lay, _), c in self.calls.items() if lay == layer)
            m[f"{layer}.busy_s"] = self.busy_ns[layer] / 1e9
            m[f"{layer}.self_s"] = self.self_ns[layer] / 1e9

        def seconds(layer, name):
            return self.total_ns[(layer, name)] / 1e9

        def frac(layer, name):
            calls = self.calls[(layer, name)]
            return self.outcomes[(layer, name)] / calls if calls else 0.0

        m["tree.enumerate_s"] = seconds("tree", "enumerate_trees")
        m["tree.trees"] = self.outcomes[("tree", "enumerate_trees")]
        m["tree.parse_s"] = seconds("tree", "parse_graph6")
        m["poly.exact_div_s"] = seconds("poly", "exact_div")
        m["poly.exact_div_calls"] = self.calls[("poly", "exact_div")]
        m["poly.exact_div_hit_frac"] = frac("poly", "exact_div")
        m["spectrum.char_poly_s"] = seconds("spectrum", "char_poly")
        m["spectrum.char_poly_calls"] = self.calls[("spectrum", "char_poly")]
        m["spectrum.rank_s"] = seconds("spectrum", "rank_nullity")
        m["spectrum.rank_calls"] = self.calls[("spectrum", "rank_nullity")]
        m["spectrum.rank_ms_p50"] = _percentile_ms(self.durations[("spectrum", "rank_nullity")], 0.5)
        m["spectrum.rank_ms_p99"] = _percentile_ms(self.durations[("spectrum", "rank_nullity")], 0.99)
        m["spectrum.multiplicity_calls"] = self.calls[("spectrum", "multiplicity")]
        m["families.classify_s"] = seconds("families", "classify")
        m["families.classify_calls"] = self.calls[("families", "classify")]
        m["families.classify_ms_p50"] = _percentile_ms(self.durations[("families", "classify")], 0.5)
        m["families.classify_ms_p99"] = _percentile_ms(self.durations[("families", "classify")], 0.99)
        m["families.member_frac"] = frac("families", "classify")
        m["trace.wall_s"] = self.root_ns() / 1e9
        m["trace.spans"] = len(self.spans)
        return m


@contextmanager
def installed(tracer: Tracer):
    """Wrap treemult's layer boundaries for the duration of the block."""
    import treemult.families as families
    import treemult.spectrum as spectrum
    import treemult.verify as verify

    def is_member(result) -> int:
        return result.kind in (families.FamilyKind.GAMMA, families.FamilyKind.GAMMA2)

    targets = [
        (verify, "enumerate_trees", "tree", len, True),
        (verify, "emit_graph6", "tree", None, False),
        (verify, "parse_graph6", "tree", None, False),
        (verify, "pendant_count", "tree", None, False),
        (verify, "major_count", "tree", None, False),
        (verify, "is_path", "tree", None, False),
        (verify, "spec_orbits", "poly", None, False),
        (verify, "exact_div", "poly", None, False),
        (verify, "char_poly", "spectrum", None, False),
        (verify, "rank_nullity", "spectrum", None, False),
        (verify, "classify", "families", is_member, False),
        # classify's eigenvalue-carrying check imports this at call time
        (spectrum, "multiplicity", "spectrum", None, False),
    ]
    saved = []
    try:
        for module, attr, layer, outcomes, materialize in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, attr, original, outcomes, materialize))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
