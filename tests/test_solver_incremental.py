"""Differential tests for the propagation-based solver.

The new compiled-store solver is pinned to two oracles on randomized
formulas, mirroring the ``RecursiveMatcher`` pattern of the evaluation layer:

* a **brute-force oracle** that enumerates every assignment of the (small)
  domains and evaluates the formula ground — SAT/UNSAT must agree, and every
  returned model must actually satisfy the formula,
* the **legacy backtracker** (:class:`repro.solver.legacy.LegacySolver`),
  the implementation the store replaced.

Plus behaviour tests for the incremental path: assumption literals,
push/pop frames, deadline and step budgets.
"""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    Add,
    AndF,
    Cmp,
    Const,
    Mul,
    NotF,
    OrF,
    Solver,
    TRUE,
    Var,
    conjoin,
    var_names,
)
from repro.solver import terms as T
from repro.solver.legacy import LegacySolver


# ---------------------------------------------------------------------------
# Ground evaluation (the specification)
# ---------------------------------------------------------------------------

def _term_value(term, env):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Add):
        return sum(_term_value(t, env) for t in term.terms)
    if isinstance(term, Mul):
        value = 1
        for t in term.terms:
            value *= _term_value(t, env)
        return value
    raise TypeError(term)


def _holds(formula, env):
    if isinstance(formula, T.BoolConst):
        return formula.value
    if isinstance(formula, Cmp):
        lhs, rhs = _term_value(formula.lhs, env), _term_value(formula.rhs, env)
        return {
            "<=": lhs <= rhs,
            "<": lhs < rhs,
            ">=": lhs >= rhs,
            ">": lhs > rhs,
            "==": lhs == rhs,
            "!=": lhs != rhs,
        }[formula.op]
    if isinstance(formula, AndF):
        return all(_holds(p, env) for p in formula.parts)
    if isinstance(formula, OrF):
        return any(_holds(p, env) for p in formula.parts)
    if isinstance(formula, NotF):
        return not _holds(formula.arg, env)
    if isinstance(formula, T.Exists):
        return _holds(formula.body, env)
    raise TypeError(formula)


def _brute_force_sat(formula, domains):
    names = sorted(domains)
    ranges = [range(domains[n][0], domains[n][1] + 1) for n in names]
    for values in itertools.product(*ranges):
        env = dict(zip(names, values))
        if _holds(formula, env):
            return env
    return None


# ---------------------------------------------------------------------------
# Random formula generation
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "c")

_terms = st.one_of(
    st.sampled_from(_NAMES).map(Var),
    st.integers(-3, 12).map(Const),
    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES)).map(
        lambda pair: Add((Var(pair[0]), Var(pair[1])))
    ),
    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES)).map(
        lambda pair: Mul((Var(pair[0]), Var(pair[1])))
    ),
    st.tuples(st.sampled_from(_NAMES), st.integers(1, 3)).map(
        lambda pair: Mul((Var(pair[0]), Const(pair[1])))
    ),
)

_atoms = st.tuples(
    st.sampled_from(("<=", "<", ">=", ">", "==", "!=")), _terms, _terms
).map(lambda t: Cmp(t[0], t[1], t[2]))


def _boolean(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda ps: AndF(ps)),
        st.lists(children, min_size=1, max_size=3).map(lambda ps: OrF(ps)),
        children.map(NotF),
    )


_formulas = st.recursive(_atoms, _boolean, max_leaves=8)

_DOMAINS = {name: (0, 6) for name in _NAMES}


class TestDifferentialVsBruteForce:
    @given(st.lists(_formulas, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_sat_agrees_and_models_satisfy(self, parts):
        formula = conjoin(parts) if len(parts) > 1 else parts[0]
        oracle = _brute_force_sat(formula, _DOMAINS)
        model = Solver().solve(formula, _DOMAINS)
        if oracle is None:
            assert model is None, f"solver found spurious model {model}"
        else:
            assert model is not None, f"solver missed model {oracle}"
            env = {name: model.get(name, _DOMAINS[name][0]) for name in _NAMES}
            assert _holds(formula, env), f"model {model} does not satisfy"

    @given(st.lists(_formulas, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_sat_agrees_with_legacy_backtracker(self, parts):
        formula = conjoin(parts) if len(parts) > 1 else parts[0]
        legacy = LegacySolver().solve(formula, _DOMAINS)
        model = Solver().solve(formula, _DOMAINS)
        assert (model is None) == (legacy is None)

    @given(st.lists(_formulas, min_size=1, max_size=3), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_assumptions_equal_conjoined_constraints(self, parts, pin):
        """solve(assumptions) ≡ solving the conjunction with the literal."""
        formula = conjoin(parts) if len(parts) > 1 else parts[0]
        instance = Solver().compile(formula, _DOMAINS)
        assumed = instance.solve([("a", "==", pin)])
        conjoined = Solver().solve(
            conjoin([formula, Cmp("==", Var("a"), Const(pin))]), _DOMAINS
        )
        assert (assumed is None) == (conjoined is None)
        if assumed is not None:
            env = {name: assumed.get(name, _DOMAINS[name][0]) for name in _NAMES}
            assert env["a"] == pin
            assert _holds(formula, env)


class TestIncrementalEnumeration:
    def _formula(self):
        return AndF([
            Cmp("<=", Add((Var("k1"), Var("k2"))), Const(7)),
            Cmp(">=", Var("k1"), Const(1)),
            Cmp(">=", Var("k2"), Const(1)),
        ])

    def test_blocking_assumptions_match_legacy_blocking_clauses(self):
        """Enumerating k1 by assumption literals = legacy conjoined blocking."""
        domains = {"k1": (1, 30), "k2": (1, 30)}
        instance = Solver().compile(self._formula(), domains, shared=("k1", "k2"))
        new_seen = []
        assumptions = []
        while True:
            model = instance.solve(assumptions, prefer=["k1", "k2"])
            if model is None or len(new_seen) >= 10:
                break
            new_seen.append(model["k1"])
            assumptions.append(("k1", "!=", model["k1"]))

        legacy_seen = []
        legacy = LegacySolver()
        blocked = self._formula()
        while True:
            model = legacy.solve(blocked, domains, prefer=["k1", "k2"])
            if model is None or len(legacy_seen) >= 10:
                break
            legacy_seen.append(model["k1"])
            blocked = AndF([blocked, NotF(Cmp("==", Var("k1"), Const(model["k1"])))])

        assert new_seen == legacy_seen == [1, 2, 3, 4, 5, 6]

    def test_push_pop_frames(self):
        domains = {"k1": (1, 30), "k2": (1, 30)}
        instance = Solver().compile(self._formula(), domains, shared=("k1",))
        assert instance.solve()["k1"] == 1
        instance.push(Cmp(">=", Var("k1"), Const(4)))
        assert instance.solve()["k1"] == 4
        instance.push(Cmp("==", Var("k2"), Const(3)))
        model = instance.solve()
        assert model["k1"] == 4 and model["k2"] == 3
        instance.pop()
        instance.pop()
        assert instance.solve()["k1"] == 1

    def test_push_unsat_frame_then_pop(self):
        domains = {"k1": (1, 30), "k2": (1, 30)}
        instance = Solver().compile(self._formula(), domains)
        instance.push(T.FALSE)
        assert instance.solve() is None
        instance.pop()
        assert instance.solve() is not None

    def test_assumption_on_variable_outside_the_formula(self):
        """Blocking literals may name κ the encoding never mentions."""
        instance = Solver().compile(TRUE, {"k": (1, 5)})
        model = instance.solve([("k", "!=", 1), ("k", "!=", 2)])
        assert model["k"] == 3
        assert instance.solve(
            [("k", "!=", v) for v in range(1, 6)]
        ) is None


class TestPropagationSoundness:
    def test_self_requeue_after_own_narrowing(self):
        """A conjunct that narrows its own variables must be revised again.

        Regression: HC4 narrows each monomial against totals computed before
        the narrowing, so a conjunct's own revision can leave its variables
        in a violating box; the propagation worklist must let the revising
        conjunct wake itself.  This instance once returned {'b': 0, 'c': 5}
        for an UNSAT conjunction.
        """
        formula = NotF(
            Cmp(
                "<=",
                Mul((Add((Const(8), Var("b"))), Add((Const(-3), Var("c"))))),
                Mul((Add((Var("c"), Const(4))), Add((Const(1), Var("c"))))),
            )
        )
        domains = {"b": (0, 5), "c": (0, 5)}
        instance = Solver().compile(formula, domains, shared=("b", "c"))
        model = instance.solve([("b", "<", 4)])
        blocked = conjoin([formula, Cmp("<", Var("b"), Const(4))])
        assert _brute_force_sat(blocked, domains) is None
        assert model is None

    def test_fixpoint_cache_isolated_between_solves(self):
        """Assumption narrowing must never leak into later solves."""
        formula = Cmp("<=", Add((Var("a"), Var("b"))), Const(6))
        instance = Solver().compile(formula, {"a": (0, 6), "b": (0, 6)})
        pinned = instance.solve([("a", ">=", 5)])
        assert pinned["a"] == 5
        fresh = instance.solve()
        assert fresh["a"] == 0


class TestBudgets:
    def test_deadline_raises_runtime_error(self):
        domains = {name: (0, 50) for name in ("a", "b", "c")}
        formula = AndF([
            Cmp("==", Add((Var("a"), Var("b"), Var("c"))), Const(75)),
            Cmp("!=", Add((Var("a"), Var("b"))), Const(50)),
        ])
        instance = Solver().compile(formula, domains)
        with pytest.raises(RuntimeError, match="deadline"):
            instance.solve(deadline=time.monotonic() - 1.0)

    def test_step_budget_raises_runtime_error(self):
        # Propagation alone cannot decide this; branching burns steps.
        domains = {name: (0, 20) for name in ("a", "b")}
        formula = OrF([
            Cmp("==", Mul((Var("a"), Var("b"))), Const(391)),
            Cmp("==", Mul((Var("a"), Var("b"))), Const(389)),
        ])
        with pytest.raises(RuntimeError, match="step budget"):
            Solver(max_steps=3).solve(formula, domains)

    def test_satisfiable_respects_deadline(self):
        domains = {name: (0, 50) for name in ("a", "b", "c")}
        formula = Cmp("==", Add((Var("a"), Var("b"), Var("c"))), Const(75))
        with pytest.raises(RuntimeError, match="deadline"):
            Solver().satisfiable(formula, domains, deadline=time.monotonic() - 1.0)

    def test_satisfiable_threads_prefer(self):
        formula = Cmp("<=", Add((Var("k"), Var("x"))), Const(10))
        assert Solver().satisfiable(
            formula, {"k": (1, 30), "x": (0, 30)}, prefer=["k"]
        )


class TestStatsCounters:
    def test_propagation_and_model_counters_advance(self):
        solver = Solver()
        formula = AndF([
            Cmp("==", Add((Var("a"), Var("b"))), Const(9)),
            Cmp(">=", Var("a"), Const(4)),
        ])
        model = solver.solve(formula, {"a": (0, 9), "b": (0, 9)})
        assert model is not None
        assert solver.stats.models == 1
        assert solver.stats.propagations > 0

    def test_conflict_counter_advances_on_unsat(self):
        solver = Solver()
        formula = AndF([
            Cmp(">=", Var("a"), Const(5)),
            Cmp("<=", Var("a"), Const(3)),
        ])
        assert solver.solve(formula, {"a": (0, 9)}) is None
        assert solver.stats.conflicts > 0
