"""Counters of the removed compiled-membership evaluator.

Nothing increments them any more, so they stay at zero.  They are kept only
because the benchmark's tracer reads them; this module goes once the
benchmark stops reading it.
"""


class MembershipStats:
    """Compiled-membership counters, always zero (see the module docstring)."""

    __slots__ = ("hits", "misses", "compiled", "compile_seconds")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.compiled = 0
        self.compile_seconds = 0.0


MEMBERSHIP_CACHE_STATS = MembershipStats()
