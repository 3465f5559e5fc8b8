"""Computation of :class:`~repro.analysis.facts.Facts` per regex and sketch.

One transfer per node kind, memoised per interned regex subtree and per
sketch (and hole depth).  Sketch facts follow Figure 12: a hole beyond the
precision bound is ⊤, and an unknown repetition count widens to "at least
one repetition" with an empty under side, so the facts of a sketch bracket
every depth-bounded completion of it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import caches
from repro.dsl import ast as rast
from repro.dsl.charclass import chars_of
from repro.sketch import ast as sast
from repro.analysis.facts import (
    EMPTY_FACTS,
    EPSILON_FACTS,
    TOP_FACTS,
    Facts,
    and_facts,
    char_class_facts,
    concat_facts,
    contains_facts,
    drop_under,
    ends_with_facts,
    not_facts,
    optional_facts,
    or_facts,
    repeat_facts,
    star_facts,
    starts_with_facts,
)

_REGEX_FACTS: "caches.GuardedWeakKeyDictionary" = caches.register_cache(
    "repro.analysis.analyzer._REGEX_FACTS", caches.GuardedWeakKeyDictionary()
)
#: Sketches are not interned, but they are hashable and weak-referenceable;
#: structural keying still shares entries across equal sketches.
_SKETCH_FACTS: "caches.GuardedWeakKeyDictionary" = caches.register_cache(
    "repro.analysis.analyzer._SKETCH_FACTS", caches.GuardedWeakKeyDictionary()
)
_UNARY_FACTS = {
    "StartsWith": starts_with_facts,
    "EndsWith": ends_with_facts,
    "Contains": contains_facts,
    "Optional": optional_facts,
    "KleeneStar": star_facts,
}
_BINARY_FACTS = {
    "Concat": concat_facts,
    "Or": or_facts,
    "And": and_facts,
}


class AnalysisCacheStats:
    """Global hit/miss counters for the per-subtree facts caches."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> Tuple[int, int]:
        return self.hits, self.misses


ANALYSIS_CACHE_STATS = AnalysisCacheStats()


# ---------------------------------------------------------------------------
# Concrete regexes
# ---------------------------------------------------------------------------

def facts_of_regex(regex: rast.Regex) -> Facts:
    """Facts about a concrete regex (``O = U = L(regex)``)."""
    cached = _REGEX_FACTS.get(regex)
    if cached is not None:
        ANALYSIS_CACHE_STATS.hits += 1
        return cached
    ANALYSIS_CACHE_STATS.misses += 1
    facts = _regex_facts_uncached(regex)
    return caches.cache_insert(_REGEX_FACTS, regex, facts)


def _regex_facts_uncached(regex: rast.Regex) -> Facts:
    if isinstance(regex, rast.CharClass):
        return char_class_facts(chars_of(regex.kind))
    if isinstance(regex, rast.Epsilon):
        return EPSILON_FACTS
    if isinstance(regex, rast.EmptySet):
        return EMPTY_FACTS
    if isinstance(regex, rast.StartsWith):
        return starts_with_facts(facts_of_regex(regex.arg))
    if isinstance(regex, rast.EndsWith):
        return ends_with_facts(facts_of_regex(regex.arg))
    if isinstance(regex, rast.Contains):
        return contains_facts(facts_of_regex(regex.arg))
    if isinstance(regex, rast.Not):
        return not_facts(facts_of_regex(regex.arg))
    if isinstance(regex, rast.Optional):
        return optional_facts(facts_of_regex(regex.arg))
    if isinstance(regex, rast.KleeneStar):
        return star_facts(facts_of_regex(regex.arg))
    if isinstance(regex, rast.Concat):
        return concat_facts(facts_of_regex(regex.left), facts_of_regex(regex.right))
    if isinstance(regex, rast.Or):
        return or_facts(facts_of_regex(regex.left), facts_of_regex(regex.right))
    if isinstance(regex, rast.And):
        return and_facts(facts_of_regex(regex.left), facts_of_regex(regex.right))
    if isinstance(regex, rast.Repeat):
        return repeat_facts(facts_of_regex(regex.arg), regex.count, regex.count)
    if isinstance(regex, rast.RepeatAtLeast):
        return repeat_facts(facts_of_regex(regex.arg), regex.count, None)
    if isinstance(regex, rast.RepeatRange):
        return repeat_facts(facts_of_regex(regex.arg), regex.low, regex.high)
    raise TypeError(f"unknown regex node: {regex!r}")


# ---------------------------------------------------------------------------
# Sketches
# ---------------------------------------------------------------------------

def facts_of_sketch(sketch: sast.Sketch, hole_depth: int = 3) -> Facts:
    """Facts bracketing every depth-bounded completion of an h-sketch."""
    per_depth = _SKETCH_FACTS.get(sketch)
    if per_depth is not None:
        cached = per_depth.get(hole_depth)
        if cached is not None:
            ANALYSIS_CACHE_STATS.hits += 1
            return cached
    ANALYSIS_CACHE_STATS.misses += 1
    facts = _sketch_facts_uncached(sketch, hole_depth)
    with caches.CACHE_LOCK:
        per_depth = _SKETCH_FACTS.get(sketch)
        if per_depth is None:
            per_depth = caches.GuardedDict()
            _SKETCH_FACTS[sketch] = per_depth
        existing = per_depth.get(hole_depth)
        if existing is not None:
            return existing
        per_depth[hole_depth] = facts
    return facts


def _sketch_facts_uncached(sketch: sast.Sketch, hole_depth: int) -> Facts:
    if isinstance(sketch, sast.ConcreteRegexSketch):
        return facts_of_regex(sketch.regex)
    if isinstance(sketch, sast.OpSketch):
        child_facts = [facts_of_sketch(arg, hole_depth) for arg in sketch.args]
        return _apply_op(sketch.op, child_facts)
    if isinstance(sketch, sast.IntOpSketch):
        arg_facts = facts_of_sketch(sketch.arg, hole_depth)
        if all(value is not None for value in sketch.ints):
            low, high = _concrete_bounds(sketch.op, sketch.ints)
            return repeat_facts(arg_facts, low, high)
        # Figure 12, rule 6: unknown integers widen to "at least once" and
        # forfeit the under side.
        return drop_under(repeat_facts(arg_facts, 1, None))
    if isinstance(sketch, sast.Hole):
        return _hole_facts(sketch.components, hole_depth)
    raise TypeError(f"unknown sketch node: {sketch!r}")


def _hole_facts(components: Tuple[sast.Sketch, ...], depth: int) -> Facts:
    """Rules 1–3 of Figure 12: holes beyond the precision bound are ⊤."""
    if not components or depth > 1:
        return TOP_FACTS
    combined = facts_of_sketch(components[0], depth)
    for component in components[1:]:
        other = facts_of_sketch(component, depth)
        # A completion embeds *one* component: over side is the union, but
        # the under side only keeps what every alternative guarantees.
        merged = or_facts(combined, other)
        combined = Facts(
            min_len=merged.min_len,
            max_len=merged.max_len,
            first=merged.first,
            last=merged.last,
            allowed=merged.allowed,
            required=merged.required,
            empty=merged.empty,
            universal=combined.universal and other.universal,
            must_empty=combined.must_empty and other.must_empty,
        )
    return combined


def _apply_op(op: str, child_facts: "list[Facts]") -> Facts:
    if op == "Not":
        return not_facts(child_facts[0])
    unary = _UNARY_FACTS.get(op)
    if unary is not None:
        return unary(child_facts[0])
    return _BINARY_FACTS[op](*child_facts)


def _concrete_bounds(
    op: str, ints: Tuple[Optional[int], ...]
) -> Tuple[int, Optional[int]]:
    if op == "Repeat":
        (n,) = ints
        assert n is not None
        return n, n
    if op == "RepeatAtLeast":
        (n,) = ints
        assert n is not None
        return n, None
    low, high = ints
    assert low is not None and high is not None
    return low, high
