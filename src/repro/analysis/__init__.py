"""Abstract-interpretation static analysis of regexes and sketches.

The analyzer computes cheap, sound :class:`~repro.analysis.facts.Facts`
(match-length intervals, first/last/required character sets, nullability,
emptiness/universality) per interned subtree and serves two consumers:

* **diagnostics** — :func:`~repro.analysis.diagnostics.lint_problem` and
  friends power the ``regel lint`` CLI subcommand;
* **the service boundary** — ``POST /v1/lint`` and the pre-queue 422
  rejection of statically-unsatisfiable problems
  (:func:`~repro.analysis.diagnostics.problem_unsatisfiable`).

Soundness is the package-wide contract: the analysis may answer "maybe", it
never produces a wrong "no" (pinned by the differential tests in
``tests/test_analysis.py``).
"""

from repro.analysis.analyzer import (
    facts_of_regex,
    facts_of_sketch,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    has_errors,
    lint_examples,
    lint_problem,
    lint_regex,
    lint_sketch,
    problem_unsatisfiable,
)
from repro.analysis.facts import EMPTY_FACTS, EPSILON_FACTS, TOP_FACTS, Facts

__all__ = [
    "Diagnostic",
    "EMPTY_FACTS",
    "EPSILON_FACTS",
    "Facts",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "TOP_FACTS",
    "facts_of_regex",
    "facts_of_sketch",
    "has_errors",
    "lint_examples",
    "lint_problem",
    "lint_regex",
    "lint_sketch",
    "problem_unsatisfiable",
]
