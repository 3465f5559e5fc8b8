"""Generator for the DeepRegex-style dataset (Section 7, "DeepRegex data set").

The original corpus was produced by sampling a synchronous context-free
grammar that emits a regex together with a stylised English description, then
paraphrasing the English via Mechanical Turk.  We reproduce the same pipeline:

1. a synchronous grammar over *fragments* (quantified character classes and
   literals) and *compositions* (concatenation, union, containment, negation,
   optionality) emits aligned (regex, English, gold sketch) triples,
2. paraphrase noise (synonym substitution, filler insertion) perturbs the
   English,
3. regexes denoting the empty language are filtered out (the paper discards
   ~1,400 such benchmarks), and
4. positive/negative examples are sampled from the regex's automaton.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.automata.operations import language_nonempty
from repro.automata.sampling import language_is_universal
from repro.datasets.benchmark import Benchmark
from repro.datasets.examples_gen import attach_examples
from repro.dsl import ast as rast
from repro.dsl.printer import to_dsl_string
from repro.sketch.printer import sketch_to_string
from repro.sketch.ast import ConcreteRegexSketch, Hole


#: (regex, English phrase, plural English phrase) for the base concepts.
_BASE_CONCEPTS: list[tuple[rast.Regex, str, str]] = [
    (rast.NUM, "a digit", "digits"),
    (rast.NUM, "a number", "numbers"),
    (rast.LET, "a letter", "letters"),
    (rast.CAP, "a capital letter", "capital letters"),
    (rast.LOW, "a lower case letter", "lower case letters"),
    (rast.VOW, "a vowel", "vowels"),
    (rast.ALPHANUM, "an alphanumeric character", "alphanumeric characters"),
    (rast.SPEC, "a special character", "special characters"),
    (rast.literal("-"), "a dash", "dashes"),
    (rast.literal("."), "a dot", "dots"),
    (rast.literal(","), "a comma", "commas"),
    (rast.literal("_"), "an underscore", "underscores"),
    (rast.literal("@"), "an at sign", "at signs"),
]

_FILLERS = [
    "lines with",
    "items with",
    "strings with",
    "i need",
    "please match",
    "the string should have",
    "give me",
]

_SYNONYMS = {
    "followed by": ["then", "before", "and then"],
    "or": ["or else", "or"],
    "containing": ["that contain", "which include", "having"],
    "starting with": ["that start with", "beginning with"],
    "ending with": ["that end with", "finishing with"],
    "not containing": ["without", "that do not contain"],
}


def _fragment(rng: random.Random) -> Tuple[rast.Regex, str]:
    """One quantified base concept: (regex, English)."""
    regex, singular, plural = rng.choice(_BASE_CONCEPTS)
    choice = rng.randrange(6)
    if choice == 0:
        return regex, singular
    if choice == 1:
        count = rng.randint(2, 6)
        return rast.Repeat(regex, count), f"{count} {plural}"
    if choice == 2:
        count = rng.randint(1, 4)
        return rast.RepeatAtLeast(regex, count), f"at least {count} {plural}"
    if choice == 3:
        count = rng.randint(2, 6)
        return rast.RepeatRange(regex, 1, count), f"at most {count} {plural}"
    if choice == 4:
        return rast.RepeatAtLeast(regex, 1), f"one or more {plural}"
    return rast.KleeneStar(regex), f"any number of {plural}"


def _composition(rng: random.Random) -> Tuple[rast.Regex, str]:
    """A composed (regex, English) pair."""
    left, left_text = _fragment(rng)
    choice = rng.randrange(8)
    if choice == 0:
        return left, left_text
    right, right_text = _fragment(rng)
    if choice in (1, 2):
        return rast.Concat(left, right), f"{left_text} followed by {right_text}"
    if choice == 3:
        return rast.Or(left, right), f"{left_text} or {right_text}"
    if choice == 4:
        return rast.Concat(left, rast.Optional(right)), (
            f"{left_text} optionally followed by {right_text}"
        )
    if choice == 5:
        return rast.StartsWith(left), f"strings starting with {left_text}"
    if choice == 6:
        return rast.Contains(left), f"strings containing {left_text}"
    return rast.Not(rast.Contains(left)), f"strings not containing {left_text}"


def _paraphrase(text: str, rng: random.Random) -> str:
    """Cheap paraphrase noise standing in for Mechanical-Turk rewording."""
    for phrase, alternatives in _SYNONYMS.items():
        if phrase in text and rng.random() < 0.5:
            text = text.replace(phrase, rng.choice(alternatives), 1)
    if rng.random() < 0.5:
        text = f"{rng.choice(_FILLERS)} {text}"
    if rng.random() < 0.2:
        text = text + " only"
    return text


def deepregex_gold_sketch(regex: rast.Regex) -> str:
    """Gold sketch label: the root operator replaced by a hole over its arguments.

    This is exactly the labelling scheme the paper uses to train the parser on
    the DeepRegex dataset.
    """
    children = regex.children()
    if not children:
        sketch = Hole((ConcreteRegexSketch(regex),))
    else:
        sketch = Hole(tuple(ConcreteRegexSketch(child) for child in children))
    return sketch_to_string(sketch)


def generate_deepregex_dataset(
    count: int = 200,
    seed: int = 2020,
    with_examples: bool = True,
    num_positive: int = 4,
    num_negative: int = 5,
) -> List[Benchmark]:
    """Generate the DeepRegex-style corpus (default size 200, as in the paper)."""
    rng = random.Random(seed)
    benchmarks: List[Benchmark] = []
    seen_regexes: set[str] = set()
    attempts = 0
    while len(benchmarks) < count and attempts < count * 50:
        attempts += 1
        regex, english = _composition(rng)
        regex_text = to_dsl_string(regex)
        if regex_text in seen_regexes:
            continue
        # Filter degenerate benchmarks, as in Section 7: an empty language has
        # no positive examples and a universal one no negative examples.
        if not language_nonempty(regex) or language_is_universal(regex):
            continue
        seen_regexes.add(regex_text)
        benchmark = Benchmark(
            benchmark_id=f"deepregex-{len(benchmarks):03d}",
            description=_paraphrase(english, rng),
            regex_text=regex_text,
            gold_sketch_text=deepregex_gold_sketch(regex),
            source="deepregex",
        )
        if with_examples:
            benchmark = attach_examples(
                benchmark, num_positive=num_positive, num_negative=num_negative,
                rng=random.Random(rng.randrange(1 << 30)),
            )
            if not benchmark.positive:
                continue
        benchmarks.append(benchmark)
    return benchmarks
