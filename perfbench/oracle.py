"""Independent re-check of every returned regex against its examples.

The program's own membership evaluator is what is under test, so the check
does not use it: a solution is rendered to a Python pattern
(``Solution.python_regex()``) and matched with ``re.fullmatch``.  Only a
regex outside the classical subset (no Python form) falls back to the
recursive reference matcher, which shares no code with the evaluators the
engine runs.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional


def check(regex_text: str, positive: Iterable[str], negative: Iterable[str]) -> Optional[str]:
    """None when ``regex_text`` accepts every positive and rejects every negative.

    Otherwise a one-line reason (the first disagreeing example, or a parse
    failure) for the mismatch log.
    """
    from repro.api.results import Solution
    from repro.dsl.parser import parse_regex
    from repro.dsl.semantics import RecursiveMatcher

    try:
        pattern = Solution(regex=regex_text, size=0, sketch_index=0, elapsed=0.0).python_regex()
    except Exception as exc:  # a solution the DSL parser rejects is a mismatch
        return f"unparseable solution {regex_text!r}: {exc}"
    if pattern is not None:
        compiled = re.compile(pattern)

        def accepts(text: str) -> bool:
            return compiled.fullmatch(text) is not None

    else:
        regex = parse_regex(regex_text)

        def accepts(text: str) -> bool:
            return RecursiveMatcher(text).matches(regex)

    for text in positive:
        if not accepts(text):
            return f"{regex_text!r} rejects positive {text!r}"
    for text in negative:
        if accepts(text):
            return f"{regex_text!r} accepts negative {text!r}"
    return None
