"""Seeded workload inputs, generated in the benchmark process.

Every problem a run sends is built here, before the program under test is
started, and the run records a SHA-256 digest of its canonical problem list.
Two commits run byte-identical inputs for a seed exactly when their digests
agree; a change to the generators under ``src/`` shows up as a digest change
rather than as an unexplained shift in the numbers.

Nothing is dropped from a draw: slow and unsolved problems stay in, because
they are part of what a user of the system meets.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence

CORPUS_FIXTURE = "tests/fixtures/corpus/sample_corpus.ndjson"

#: Seed of the example sampler the StackOverflow-style dataset ships with.
#: The benchmark seed permutes the problems; it does not resample examples,
#: so every seed runs the same 62 tasks and ``solved_share`` stays comparable.
STACKOVERFLOW_EXAMPLE_SEED = 7

#: Generator seed of the corpus problems.  Examples and punched sketches are
#: fixed for every benchmark seed; the benchmark seed orders the problems and
#: shapes the request mix.  Letting it resample examples instead moved
#: solved_share by 10% and peak RSS by 14% between seeds, more than any bound
#: this benchmark could hold.
CORPUS_GENERATOR_SEED = 0


def digest(problems: Sequence) -> str:
    """SHA-256 over the canonical wire form of ``problems``, in order."""
    hasher = hashlib.sha256()
    for problem in problems:
        hasher.update(problem.canonical_json().encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def block_shuffle(items: List, rng: random.Random, block: int) -> List:
    """Shuffle within consecutive blocks of ``block`` items.

    Every seed then puts the same problems in each stretch of a run, so
    completion-time percentiles, the warmth of process-global caches and the
    memory high-water mark compare like with like across seeds, while the
    order within a stretch (and which problems share the two service
    workers) still varies.
    """
    shuffled: List = []
    for start in range(0, len(items), block):
        chunk = items[start : start + block]
        rng.shuffle(chunk)
        shuffled.extend(chunk)
    return shuffled


def nl_portfolio(seed: int, budget: float, block: int) -> List:
    """All 62 StackOverflow-style problems, shuffled within blocks, one budget."""
    from repro.api import Problem
    from repro.datasets import stackoverflow_dataset

    problems = [
        Problem(entry.description, entry.positive, entry.negative, budget=budget)
        for entry in stackoverflow_dataset(seed=STACKOVERFLOW_EXAMPLE_SEED)
    ]
    return block_shuffle(problems, random.Random(f"nl_portfolio|{seed}"), block)


def corpus_problems(root: str, generator_seed: int, budget: float) -> List:
    """Every problem ``repro.corpus`` generates from the committed sample."""
    from repro.corpus.generate import GeneratorConfig, generate_problems
    from repro.corpus.loader import load_corpus

    entries = load_corpus(f"{root}/{CORPUS_FIXTURE}").entries
    config = GeneratorConfig(seed=generator_seed, budget=budget)
    return generate_problems(entries, config).problems


def corpus_batch(root: str, seed: int, budget: float, stride: int, block: int) -> List:
    """Every ``stride``-th generated problem, shuffled within blocks by the seed.

    The systematic sample is fixed (it does not depend on the seed or on
    which problems are slow), so every seed submits the same problems.
    """
    problems = corpus_problems(root, CORPUS_GENERATOR_SEED, budget)[::stride]
    return block_shuffle(problems, random.Random(f"corpus_batch|{seed}"), block)


def service_mix(
    root: str,
    seed: int,
    budget: float,
    hot_repeats: int,
    hot_window: int,
    block: int,
    count: int,
) -> List:
    """A request sequence over the generated corpus with a sliding hot set.

    First sightings walk the generated corpus, block-shuffled by the seed.
    Each first sighting is followed by ``hot_repeats`` repeats of earlier
    first-seen problems at lags spread evenly over the last ``hot_window``,
    so the hot set is small at any moment, slides across the corpus, and
    every problem is repeated the same number of times.  The sequence is
    its first ``count`` requests; when they end on a block boundary, block
    shuffling keeps the problems in it, and with them the number of unsolved
    repeats (never cached, always re-run), the same for every seed.  The
    seed decides the order inside each block, and so which problems are hot
    together.
    """
    problems = corpus_problems(root, CORPUS_GENERATOR_SEED, budget)
    problems = block_shuffle(problems, random.Random(f"service_mix|{seed}"), block)
    requests: List = []
    lags = [1 + step * (hot_window // hot_repeats) for step in range(hot_repeats)]
    for seen, problem in enumerate(problems, start=1):
        requests.append(problem)
        requests.extend(problems[seen - 1 - lag] for lag in lags if lag < seen)
    return requests[:count]
