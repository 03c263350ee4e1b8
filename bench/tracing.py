"""Spans at the starbench call boundaries, recorded from outside the program.

The traced run replaces public functions under the names their callers look
them up by, so no code inside ``src/`` changes. ``verify`` imported the
constructions into its own namespace, and ``minimal_dfa`` looks up
``determinize`` and ``minimize`` in the ``starbench.minimize`` module, so
both namespaces are patched. The module is reached through ``sys.modules``:
``starbench.minimize`` as an attribute is the re-exported function.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NFA_SPANS = ("ops.star_nfa", "ops.star_eps_nfa", "ops.concat_nfa",
             "ops.dfa_to_nfa", "ops.reverse_nfa")
VERIFY_SPANS = ("verify.verify_cell", "verify.run_pipeline")
ORACLE_SPANS = ("oracle.exhaustive_oracle", "oracle.membership_oracle")

# (module, attribute, span name)
PATCHES = (
    ("starbench", "verify_cell", "verify.verify_cell"),
    ("starbench", "exhaustive_oracle", "oracle.exhaustive_oracle"),
    ("starbench", "membership_oracle", "oracle.membership_oracle"),
    ("starbench.verify", "run_pipeline", "verify.run_pipeline"),
    ("starbench.verify", "build", "witnesses.build"),
    ("starbench.verify", "star_nfa", "ops.star_nfa"),
    ("starbench.verify", "star_eps_nfa", "ops.star_eps_nfa"),
    ("starbench.verify", "concat_nfa", "ops.concat_nfa"),
    ("starbench.verify", "dfa_to_nfa", "ops.dfa_to_nfa"),
    ("starbench.verify", "reverse_nfa", "ops.reverse_nfa"),
    ("starbench.verify", "product_dfa", "ops.product_dfa"),
    ("starbench.verify", "determinize", "minimize.determinize"),
    ("starbench.verify", "minimize", "minimize.minimize"),
    ("starbench.verify", "minimal_dfa", "minimize.minimal_dfa"),
    ("starbench.minimize", "determinize", "minimize.determinize"),
    ("starbench.minimize", "minimize", "minimize.minimize"),
)


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _size(value) -> int | None:
    """State count of an automaton argument or result, else None."""
    value = getattr(value, "dfa", value)  # SubsetDfa carries its Dfa
    size = getattr(value, "size", None)
    return size if isinstance(size, int) else None


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "child_s",
                 "in_states", "out_states", "rss_before", "rss_after")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.child_s = 0.0
        self.out_states: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Keeps every span in memory, in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            span.in_states = sum(s for s in map(_size, args) if s is not None)
            self.spans.append(span)
            self._stack.append(span)
            span.rss_before = maxrss_mb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_after = maxrss_mb()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            span.out_states = _size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCHES entry for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, states in and out, and the
        growth of peak RSS across the calls."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "in_states": 0,
                     "out_states": 0, "rss_growth_mb": 0.0})
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += span.self_s
            row["in_states"] += span.in_states
            row["out_states"] += span.out_states or 0
            row["rss_growth_mb"] += span.rss_after - span.rss_before
        return dict(out)

    def stages(self, root: Span) -> list[dict]:
        """The per-stage trace of one top-level call, in start order."""
        return [
            {"stage": s.name, "in_states": s.in_states,
             "out_states": s.out_states, "ms": s.duration * 1000,
             "maxrss_mb": s.rss_after}
            for s in self.spans if s.root is root and s is not root
        ]
