import random
from pathlib import Path

import pytest
from hypothesis import given

from folc.algebra import EMPTY_SUBST, JSubst, make_subst, parse_subst
from folc.corpus import gen_formula
from folc.infer import InferPolicy, get_policy
from folc.oracle import IntervalBound, models
from folc import semantics
from folc.semantics import eval_set, evaluate, make_context
from folc.state import ERROR, EMPTY_STORE, Pair, Store, pair
from folc import syntax
from folc.syntax import And, Not, parse_formula, parse_substitution_pairs, parse_term
from conftest import int_formulas

B = IntervalBound(-3, 3)


def run(text, J, policy="baseline", theta="{}", store=()):
    phi = parse_formula(text, J.signature)
    sigma = Pair(Store([parse_formula(s, J.signature) for s in store]), parse_subst(theta, J))
    return evaluate(phi, sigma, make_context(J, get_policy(policy)))


class TestBaselineEvaluation:
    def test_equation_chain(self, int_alg):
        out = run("y = z - 1 & z = x + 2", int_alg, theta="{x/1}")
        assert out == (pair((), parse_subst("{x/1, y/2, z/3}", int_alg)),)

    def test_untestable_atom_errors(self, int_alg):
        assert run("y < z & y = 1 & z = 2", int_alg) == (ERROR,)

    def test_negation_of_tautology_is_empty(self, int_alg):
        assert run("~(x = x)", int_alg) == ()

    def test_exists_leaves_no_trace(self, int_alg):
        out = run("exists x. x = 1", int_alg)
        assert out == (pair((), EMPTY_SUBST),)
        # the result really satisfies the formula
        assert models(out[0], parse_formula("exists x. x = 1", int_alg.signature), int_alg, B)

    def test_established_negation(self, int_alg):
        out = run("x = 0 & ~(x = 1)", int_alg)
        assert out == (pair((), parse_subst("{x/0}", int_alg)),)


class TestEvalSet:
    def test_empty(self, int_alg):
        ctx = make_context(int_alg, get_policy("baseline"))
        assert eval_set(parse_formula("x = 1", int_alg.signature), (), ctx) == ()

    def test_error_flows(self, int_alg):
        ctx = make_context(int_alg, get_policy("baseline"))
        assert eval_set(parse_formula("x = 1", int_alg.signature), (ERROR,), ctx) == (ERROR,)

    def test_pointwise_union(self, int_alg):
        ctx = make_context(int_alg, get_policy("baseline"))
        states = (
            pair((), parse_subst("{y/1}", int_alg)),
            pair((), parse_subst("{y/2}", int_alg)),
        )
        out = eval_set(parse_formula("z = 1", int_alg.signature), states, ctx)
        assert out == (
            pair((), parse_subst("{y/1, z/1}", int_alg)),
            pair((), parse_subst("{y/2, z/1}", int_alg)),
        )

    def test_issues_no_fresh_name_its_states_hold(self, int_alg):
        # A fresh context must not issue $u1 again: DROP would capture $u1 < z.
        phi = parse_formula("exists w. w = 1", int_alg.signature)
        sigma = Pair(Store([parse_formula("$u1 < z", int_alg.signature, allow_fresh=True)]), EMPTY_SUBST)
        one = evaluate(phi, sigma, make_context(int_alg, get_policy("atoms")))
        out = eval_set(phi, (sigma,), make_context(int_alg, get_policy("atoms")))
        assert [str(s) for s in out] == [str(s) for s in one] == ["<$u1 < z | {}>"]


class TestNegationCases:
    def test_case_a_inner_inconsistent(self, int_alg):
        # x = 1 fails under {x/0}, so the negation keeps the input state
        out = run("~(x = 1)", int_alg, theta="{x/0}")
        assert out == (pair((), parse_subst("{x/0}", int_alg)),)

    def test_case_b_input_state_recurs(self, int_alg):
        assert run("~(1 = 1)", int_alg) == ()

    def test_case_c_stores_negation(self, int_alg):
        out = run("~(x = 1)", int_alg, policy="literals")
        (st,) = out
        assert st.store == Store([Not(parse_formula("x = 1", int_alg.signature))])
        assert st.subst == EMPTY_SUBST

    def test_case_c_under_baseline_errors(self, int_alg):
        assert run("~(x = 1)", int_alg) == (ERROR,)


class TestExistsClause:
    def test_quantified_trace_needs_elim(self, int_alg):
        # dropping w leaves an existential formula in the store; no shipped
        # policy admits those (the elim extension point), so infer errors
        out = run("exists w. (w = 1 & w < z)", int_alg, policy="atoms")
        assert out == (ERROR,)

    def test_passive_constraints_without_trace_survive(self, int_alg):
        out = run("exists w. (y < z & w = 1)", int_alg, policy="atoms")
        assert out == (Pair(Store([parse_formula("y < z", int_alg.signature)]), EMPTY_SUBST),)

    def test_error_passes_through_drop(self, int_alg):
        assert run("exists w. (y < w)", int_alg) == (ERROR,)

    def test_inconsistent_inner_states_filtered(self, int_alg):
        assert run("exists w. (w = 1 & w = 2)", int_alg, policy="atoms") == ()


class _Marking(InferPolicy):
    """atoms, with the false marker 1 < 0 added to each non-error answer.

    No shipped policy answers an inconsistent state; this one answers only
    those, so the clauses' consistency filters decide every output below.
    """

    name = "marking"

    def __init__(self, J):
        self.mark = parse_formula("1 < 0", J.signature)

    def apply(self, sigma, J):
        unmarked = Pair(Store([f for f in sigma.store if f != self.mark]), sigma.subst)
        out = get_policy("atoms").apply(unmarked, J)
        return tuple(s if s is ERROR else Pair(s.store.add(self.mark), s.subst) for s in out)


class TestConsistencyFilters:
    def answers(self, text, J):
        ctx = make_context(J, _Marking(J))
        return [str(s) for s in evaluate(parse_formula(text, J.signature), Pair(EMPTY_STORE, EMPTY_SUBST), ctx)]

    def test_negation_filters_its_body(self, int_alg):
        # the body's one answer <1 < 0 | {x/1}> is inconsistent: case (a), keep the input state
        assert self.answers("~(x = 1)", int_alg) == ["<1 < 0 | {}>"]

    def test_exists_filters_its_body(self, int_alg):
        # the body's one answer is inconsistent, so nothing survives to DROP
        assert self.answers("exists y. y = x", int_alg) == []


class TestErrorClause:
    def test_no_recovery(self, int_alg):
        phi = parse_formula("x = 1", int_alg.signature)
        ctx = make_context(int_alg, get_policy("baseline"))
        assert evaluate(phi, ERROR, ctx) == (ERROR,)


class TestAlgebraicProperties:
    @given(f1=int_formulas(), f2=int_formulas(), f3=int_formulas())
    def test_conjunction_associative(self, f1, f2, f3, int_alg):
        left = evaluate(
            And(And(f1, f2), f3),
            Pair(EMPTY_STORE, EMPTY_SUBST),
            make_context(int_alg, get_policy("literals")),
        )
        right = evaluate(
            And(f1, And(f2, f3)),
            Pair(EMPTY_STORE, EMPTY_SUBST),
            make_context(int_alg, get_policy("literals")),
        )
        assert left == right

    def test_conjunction_not_commutative(self, int_alg):
        ok = run("y = 1 & z = 2 & y < z", int_alg)
        err = run("y < z & y = 1 & z = 2", int_alg)
        assert ok == (pair((), parse_subst("{y/1, z/2}", int_alg)),)
        assert err == (ERROR,)
        assert ok != err

    def test_deterministic_across_runs(self, int_alg):
        rng = random.Random(21)
        for _ in range(40):
            phi = gen_formula(rng, int_alg, 4)
            first = evaluate(
                phi, Pair(EMPTY_STORE, EMPTY_SUBST), make_context(int_alg, get_policy("literals"))
            )
            second = evaluate(
                phi, Pair(EMPTY_STORE, EMPTY_SUBST), make_context(int_alg, get_policy("literals"))
            )
            assert first == second


    @pytest.mark.parametrize("policy", ["atoms", "literals", "baseline", "unify"])
    def test_a_repeated_answer_keeps_its_first_place(self, int_alg, herb, policy):
        # dedup keeps the first of equal states, so x/1 prints before x/2
        J, one, two = (herb, "a", "b") if policy == "unify" else (int_alg, "1", "2")
        out = run(f"(x = {one} | x = {two}) | x = {one}", J, policy=policy)
        assert [str(s) for s in out] == [f"<{{}} | {{x/{one}}}>", f"<{{}} | {{x/{two}}}>"]


class TestFreshNames:
    def test_counter_primed_past_existing_names(self, int_alg):
        # a store already carrying $u1 must not be reused for the next fresh name
        store = Store([parse_formula("$u1 < z", int_alg.signature, allow_fresh=True)])
        phi = parse_formula("exists w. (w = 1 & w < z)", int_alg.signature)
        events = []
        ctx = make_context(int_alg, get_policy("atoms"), trace=events.append)
        evaluate(phi, Pair(store, EMPTY_SUBST), ctx)
        assert ctx.fresh_counter >= 2
        assert any("$u2" in e["formula"] for e in events if e["event"] == "clause")
        assert not any(
            "$u1 = 1" in e["formula"] for e in events if e["event"] == "clause"
        )

    @pytest.mark.parametrize("theta, issued", [("{$u4/1}", "$u5"), ("{y/$u7 + 1}", "$u8")])
    def test_counter_primed_past_the_substitutions_names(self, int_alg, theta, issued):
        # a $u name the substitution binds, or one in a value, is not issued again
        pairs = parse_substitution_pairs(theta, int_alg.signature, allow_fresh=True)
        events = []
        ctx = make_context(int_alg, get_policy("atoms"), trace=events.append)
        phi = parse_formula("exists w. w < z", int_alg.signature)
        evaluate(phi, Pair(EMPTY_STORE, make_subst(pairs, int_alg)), ctx)
        assert {e["formula"] for e in events if e["event"] == "clause" and "$" in e["formula"]} == {
            f"{issued} < z"
        }

    def test_quantifier_free_evaluation_never_primes(self, int_alg, monkeypatch):
        def refuse(*args):
            raise AssertionError("primed with no fresh name issued")

        monkeypatch.setattr(semantics, "_prime_counter", refuse)
        store = Store([parse_formula("$u3 < z", int_alg.signature, allow_fresh=True)])
        out = evaluate(
            parse_formula("y = 1 & ~(y = 2) & (z = 2 | z = 5)", int_alg.signature),
            Pair(store, EMPTY_SUBST),
            make_context(int_alg, get_policy("literals")),
        )
        assert [str(s) for s in out] == ["<$u3 < z | {y/1, z/2}>", "<$u3 < z | {y/1, z/5}>"]

    def test_names_issued_as_if_primed_at_each_call(self, int_alg):
        # against a context primed past the inputs' $u<n> names before evaluation starts
        rng = random.Random(15)
        store = Store([parse_formula("$u4 < z", int_alg.signature, allow_fresh=True)])
        value = parse_term("$u7 + 1", int_alg.signature, allow_fresh=True)
        theta = make_subst([("y", value)], int_alg)
        for k in range(40):
            phi = gen_formula(rng, int_alg, 4)
            sigma = Pair(store, theta if k % 2 else EMPTY_SUBST)
            lazy_events, eager_events = [], []
            lazy = make_context(int_alg, get_policy("literals"), trace=lazy_events.append)
            eager = make_context(int_alg, get_policy("literals"), trace=eager_events.append)
            semantics._prime_counter(eager, phi, sigma)
            assert evaluate(phi, sigma, lazy) == semantics._eval(phi, sigma, eager)
            assert lazy_events == eager_events

    def test_two_calls_on_one_context(self, int_alg):
        def names(ctx, text, store=()):
            events = []
            ctx.trace = events.append
            fs = [parse_formula(f, int_alg.signature, allow_fresh=True) for f in store]
            evaluate(parse_formula(text, int_alg.signature), Pair(Store(fs), EMPTY_SUBST), ctx)
            clauses = {e["formula"] for e in events if e["event"] == "clause"}
            return sorted(f for f in clauses if "$" in f)

        ctx = make_context(int_alg, get_policy("atoms"))
        assert names(ctx, "exists w. w = 1") == ["$u1 = 1"]
        assert names(ctx, "exists w. w < z", ["$u5 < z"]) == ["$u6 < z"]
        assert ctx.fresh_counter == 6
        # a first call that issues no name still counts: its $u9 is passed too
        ctx = make_context(int_alg, get_policy("atoms"))
        assert names(ctx, "x = 1", ["$u9 < z"]) == []
        assert names(ctx, "exists w. w < z", ["$u5 < z"]) == ["$u10 < z"]

    def test_trace_events_emitted(self, int_alg):
        events = []
        ctx = make_context(int_alg, get_policy("baseline"), trace=events.append)
        evaluate(parse_formula("x = 1 | x = 2", int_alg.signature), Pair(EMPTY_STORE, EMPTY_SUBST), ctx)
        empty = "<{} | {}>"
        assert events == [
            {"event": "infer", "policy": "baseline", "state": "<x = 1 | {}>", "output": ["<{} | {x/1}>"]},
            {"event": "clause", "clause": "eq", "formula": "x = 1", "state": empty, "output": ["<{} | {x/1}>"]},
            {"event": "infer", "policy": "baseline", "state": "<x = 2 | {}>", "output": ["<{} | {x/2}>"]},
            {"event": "clause", "clause": "eq", "formula": "x = 2", "state": empty, "output": ["<{} | {x/2}>"]},
            {
                "event": "clause",
                "clause": "or",
                "formula": "x = 1 | x = 2",
                "state": empty,
                "output": ["<{} | {x/1}>", "<{} | {x/2}>"],
            },
        ]

    def test_no_sink_prints_nothing(self, int_alg, monkeypatch):
        def refuse(*args):
            raise AssertionError("printed with no trace sink attached")

        monkeypatch.setattr(Pair, "__str__", refuse)
        monkeypatch.setattr(Store, "write", refuse)
        monkeypatch.setattr(JSubst, "write", refuse)
        monkeypatch.setattr(syntax, "formula_to_str", refuse)
        out = run("y < z & y = 1 & z = 2", int_alg, policy="atoms")
        assert out == (pair((), parse_subst("{y/1, z/2}", int_alg)),)


def test_readme_library_example_runs():
    """README's Library block runs as written, its asserts included, so it cannot drift."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    assert block.count("\nassert ") == 2
    exec(compile(block, "README.md", "exec"), {})
