import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folc.algebra import EMPTY_SUBST, herbrand_algebra, int_algebra, make_subst, parse_subst
from folc.corpus import gen_formula, gen_state, persistence_corpus, soundness_corpus
from folc.infer import get_policy
from folc.oracle import (
    DepthBound,
    IntervalBound,
    _compile,
    _enum_entails,
    _enum_prepare,
    _enum_sat,
    check_soundness,
    ground_terms,
    lemma_safe,
    models,
    satisfiable,
    subst_formula,
)
from folc.state import Pair, Store, pair
from folc.syntax import (
    And,
    App,
    Atom,
    BOTTOM,
    Eq,
    Exists,
    Neq,
    Not,
    Or,
    Val,
    Var,
    free_vars,
    parse_formula,
)
from conftest import VARS, herb_formulas, int_formulas

B = IntervalBound(-3, 3)

x, y, z = Var("x"), Var("y"), Var("z")


def F(text, J, **kw):
    return parse_formula(text, J.signature, **kw)


class TestModels:
    def test_satisfied_conjunction(self, int_alg):
        sigma = pair((), parse_subst("{y/1, z/2}", int_alg))
        assert models(sigma, F("y < z & y = 1 & z = 2", int_alg), int_alg, B) is True

    def test_bottom(self, int_alg):
        assert models(pair((), EMPTY_SUBST), BOTTOM, int_alg, B) is False

    def test_store_used_as_premise(self, int_alg):
        sigma = pair([F("x < y", int_alg)], EMPTY_SUBST)
        assert models(sigma, F("x < y + 1", int_alg), int_alg, B) is True
        assert models(sigma, F("y < x", int_alg), int_alg, B) is False

    def test_herbrand_with_witness(self):
        from folc.algebra import herbrand_algebra

        H = herbrand_algebra([("c", 0), ("d", 0)])
        sigma = Pair(Store([F("x /= y", H)]), parse_subst("{x/c}", H))
        assert models(sigma, F("x /= y & x = c", H), H, DepthBound(1)) is True

    def test_unknown_on_nonlinear_int(self, int_alg):
        sigma = pair((), EMPTY_SUBST)
        assert models(sigma, F("x * x = 4", int_alg), int_alg, B) is None

    def test_quantified_witness_beyond_free_range(self):
        # the witness for x is one constructor deeper than any free candidate
        from folc.algebra import herbrand_algebra

        H = herbrand_algebra([("f", 1), ("a", 0), ("b", 0)])
        sigma = pair((), EMPTY_SUBST)
        assert models(sigma, F("exists x. f(y) = x", H), H, DepthBound(3)) is True


class TestSatisfiable:
    def test_witness(self, int_alg):
        assert satisfiable([F("x < y", int_alg)], EMPTY_SUBST, int_alg, IntervalBound(0, 1)) is True

    def test_irreflexive(self, int_alg):
        assert satisfiable([F("x < x", int_alg)], EMPTY_SUBST, int_alg, B) is False

    def test_herbrand_contradiction(self):
        from folc.algebra import herbrand_algebra

        H = herbrand_algebra([("a", 0), ("b", 0)])
        out = satisfiable([F("x /= y", H), F("x = y", H)], EMPTY_SUBST, H, DepthBound(0))
        assert out is False


class TestRationalEngine:
    def test_equation_system(self, rat_alg):
        sigma = pair((), parse_subst("{x/2, y/1}", rat_alg))
        assert models(sigma, F("x + y = 3 & x - y = 1", rat_alg), rat_alg, None) is True

    def test_unsat_parallel_lines(self, rat_alg):
        out = satisfiable([F("x + y = 3", rat_alg), F("x + y = 4", rat_alg)], EMPTY_SUBST, rat_alg, None)
        assert out is False

    def test_disequation_density(self, rat_alg):
        # x /= y cuts a proper hyperplane: still satisfiable alongside x < y
        out = satisfiable([F("x /= y", rat_alg), F("x < y", rat_alg)], EMPTY_SUBST, rat_alg, None)
        assert out is True
        out2 = satisfiable([F("x /= y", rat_alg), F("x = y", rat_alg)], EMPTY_SUBST, rat_alg, None)
        assert out2 is False

    def test_strictness_combination(self, rat_alg):
        out = satisfiable(
            [F("x < y", rat_alg), F("y < z", rat_alg), F("z < x", rat_alg)],
            EMPTY_SUBST,
            rat_alg,
            None,
        )
        assert out is False

    def test_entailment(self, rat_alg):
        sigma = pair([F("x + y = 3", rat_alg)], EMPTY_SUBST)
        assert models(sigma, F("2 * x + 2 * y = 6", rat_alg), rat_alg, None) is True
        assert models(sigma, F("x = 1", rat_alg), rat_alg, None) is False

    def test_nonlinear_unknown(self, rat_alg):
        assert satisfiable([F("x * x = 4", rat_alg)], EMPTY_SUBST, rat_alg, None) is None


class TestGroundTerms:
    def test_depth_layers(self, herb):
        depth0 = ground_terms(herb.signature, 0)
        assert App("a", ()) in depth0 and len(depth0) == 3
        depth1 = ground_terms(herb.signature, 1)
        assert App("f", (App("a", ()),)) in depth1
        assert App("g", (App("a", ()), App("b", ()))) in depth1


class TestSubstFormula:
    def test_capture_avoided(self, herb):
        # binding y -> x must not let x be captured by the binder
        theta = make_subst([("y", Var("x"))], herb)
        out = subst_formula(Exists("x", Eq(Var("x"), Var("y"))), theta, herb)
        assert isinstance(out, Exists)
        assert out.var != "x"
        assert out.body == Eq(Var(out.var), Var("x"))

    def test_bound_variable_shadowed(self, int_alg):
        theta = parse_subst("{x/1}", int_alg)
        out = subst_formula(Exists("x", Eq(Var("x"), Val(0))), theta, int_alg)
        assert out == Exists("x", Eq(Var("x"), Val(0)))


class TestSelfConsistency:
    @given(phi=int_formulas())
    @settings(max_examples=40)
    def test_negation_duality(self, phi, int_alg):
        sigma = pair((), EMPTY_SUBST)
        a = models(sigma, phi, int_alg, B)
        b = models(sigma, Not(phi), int_alg, B)
        if a is not None and b is not None:
            # both True is possible only when the store is unsatisfiable; the
            # empty store is satisfiable, so the verdicts must disagree
            assert not (a and b)

    def test_herbrand_monotone_for_positive(self):
        from folc.algebra import herbrand_algebra

        H = herbrand_algebra([("f", 1), ("a", 0), ("b", 0)])
        rng = random.Random(17)
        checked = 0
        for _ in range(150):
            names = ["x", "y"]
            phi = gen_formula(rng, H, rng.randint(1, 3), names)
            if _has_negation(phi):
                continue
            sigma = gen_state(rng, H, "diseq", names)
            small = models(sigma, phi, H, DepthBound(2))
            big = models(sigma, phi, H, DepthBound(3))
            if small is True and big is not None:
                assert big is True
                checked += 1
        assert checked > 5


def _has_negation(phi):
    if isinstance(phi, Not):
        return True
    if isinstance(phi, (And, Or)):
        return _has_negation(phi.lhs) or _has_negation(phi.rhs)
    if isinstance(phi, Exists):
        return _has_negation(phi.body)
    return False


# ---------------------------------------------------------------------------
# Reference: the tree walk over the full product of candidates that the
# oracle ran before it compiled queries, kept here to check the compiled
# backtracking search against.

_UNBOUND = object()


def _ref_tval(t, env, J):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Val):
        return t.value
    return J.eval_fn(t.symbol, [_ref_tval(a, env, J) for a in t.args])


def _ref_truth(f, env, J, qcands):
    if isinstance(f, Eq):
        return _ref_tval(f.lhs, env, J) == _ref_tval(f.rhs, env, J)
    if isinstance(f, Neq):
        return _ref_tval(f.lhs, env, J) != _ref_tval(f.rhs, env, J)
    if isinstance(f, Atom):
        return J.rel_truth(f.rel, [_ref_tval(a, env, J) for a in f.args])
    if isinstance(f, Not):
        return not _ref_truth(f.body, env, J, qcands)
    if isinstance(f, And):
        return _ref_truth(f.lhs, env, J, qcands) and _ref_truth(f.rhs, env, J, qcands)
    if isinstance(f, Or):
        return _ref_truth(f.lhs, env, J, qcands) or _ref_truth(f.rhs, env, J, qcands)
    if isinstance(f, Exists):
        shadowed = env.get(f.var, _UNBOUND)
        found = False
        for d in qcands:
            env[f.var] = d
            if _ref_truth(f.body, env, J, qcands):
                found = True
                break
        if shadowed is _UNBOUND:
            env.pop(f.var, None)
        else:
            env[f.var] = shadowed
        return found
    return False  # Bottom


def _ref_assignments(formulas, J, bound):
    prep = _enum_prepare(formulas, J, bound, 0)
    if prep is None:
        return None
    fv, free_cands, qcands = prep
    return qcands, (dict(zip(fv, c)) for c in itertools.product(free_cands, repeat=len(fv)))


def _ref_entails(premises, conclusion, J, bound):
    prep = _ref_assignments(premises + [conclusion], J, bound)
    if prep is None:
        return None
    q, envs = prep
    return not any(
        all(_ref_truth(p, env, J, q) for p in premises) and not _ref_truth(conclusion, env, J, q)
        for env in envs
    )


def _ref_sat(formulas, J, bound):
    prep = _ref_assignments(formulas, J, bound)
    if prep is None:
        return None
    q, envs = prep
    return any(all(_ref_truth(f, env, J, q) for f in formulas) for env in envs)


def _oracle_queries(J, policy, seed, n):
    """The entailment and satisfiability queries that models and satisfiable
    build for the first n cases of both seeded corpora: models(sigma, phi)
    and satisfiable(store; phi) under the case's substitution."""
    for corpus in (soundness_corpus, persistence_corpus):
        for phi, sigma in corpus(seed, J, policy, n):
            theta = sigma.subst
            yield [subst_formula(f, theta, J) for f in sigma.store], subst_formula(phi, theta, J)
            yield [subst_formula(f, theta, J) for f in [*sigma.store, phi]], None


@pytest.mark.parametrize(
    "J, policy, bound",
    [
        (int_algebra(), "literals", IntervalBound(-3, 3)),
        (herbrand_algebra([("f", 1), ("a", 0), ("b", 0)]), "diseq", DepthBound(3)),
    ],
    ids=["int", "herbrand"],
)
def test_compiled_search_matches_reference_walk(J, policy, bound):
    decided = 0
    for premises, conclusion in _oracle_queries(J, policy, 41, 550):
        if conclusion is None:
            got, want = _enum_sat(premises, J, bound, 0), _ref_sat(premises, J, bound)
        else:
            got = _enum_entails(premises, conclusion, J, bound, 0)
            want = _ref_entails(premises, conclusion, J, bound)
        assert got is want, (premises, conclusion)
        decided += want is not None
    assert decided >= 2000


_INT_Q = list(range(-2, 3))
_HERB_Q = [App(c, ()) for c in ("a", "b", "c")]


def _envs(values):
    """Environments over VARS; each name may be left unbound unless free."""
    return st.tuples(
        st.fixed_dictionaries({v: values for v in VARS}),
        st.fixed_dictionaries({v: st.booleans() for v in VARS}),
    )


def _assert_compiled_matches_walk(phi, drawn, J, qcands):
    values, keep = drawn
    fv = free_vars(phi)
    env = {v: d for v, d in values.items() if v in fv or keep[v]}
    before = dict(env)
    assert _compile(phi, J, qcands)(env) is _ref_truth(phi, dict(env), J, qcands)
    assert env == before


class TestCompiledTruth:
    @given(phi=int_formulas(), drawn=_envs(st.integers(min_value=-3, max_value=3)))
    def test_int_closure_matches_walk(self, phi, drawn, int_alg):
        _assert_compiled_matches_walk(phi, drawn, int_alg, _INT_Q)

    @given(phi=herb_formulas(), drawn=_envs(st.sampled_from(_HERB_Q)))
    def test_herbrand_closure_matches_walk(self, phi, drawn, herb):
        _assert_compiled_matches_walk(phi, drawn, herb, _HERB_Q)

    def test_nested_exists_shadowing_restores_environment(self, int_alg):
        # exists x. ((exists x. x = 3) & x = y + 1), then x = 0 on the free x:
        # the inner binder must hand the outer witness 2 back, and the outer
        # one the free value 0
        inner = Exists("x", Eq(x, Val(3)))
        outer = Exists("x", And(inner, Eq(x, App("+", (y, Val(1))))))
        qcands = list(range(-3, 4))
        env = {"x": 0, "y": 1}
        assert _compile(And(outer, Eq(x, Val(0))), int_alg, qcands)(env) is True
        assert env == {"x": 0, "y": 1}
        unbound = {"y": 1}
        assert _compile(outer, int_alg, qcands)(unbound) is True
        assert unbound == {"y": 1}


@pytest.mark.xfail(
    strict=True,
    reason="false preservation-validity violation: _int_candidates sizes the quantifier "
    "reach for coefficient 1, but after x/y + y the witness of exists y. x < y must "
    "exceed 2y",
)
def test_known_false_violation_quantifier_reach(int_alg):
    phi = F("exists y. x < y & x = y + y", int_alg)
    sigma = pair([F("~(y + y < y)", int_alg)], EMPTY_SUBST)
    report = check_soundness([(phi, sigma)], get_policy("literals"), int_alg, B)
    assert report.passed, report.violations


class TestCheckSoundness:
    def test_example_corpus_clean(self, int_alg):
        texts = [
            "y = z - 1 & z = x + 2",
            "y = 1 & z = 1 & y - 1 = z - 1",
            "y = 1 & z = 2 & y < z",
            "x = 0 & ~(x = 1)",
            "y - 1 = z - 1 & y = 1 & z = 1",
            "y < z & y = 1 & z = 2",
            "~(x = 1) & x = 0",
        ]
        corpus = [(F(t, int_alg), pair((), EMPTY_SUBST)) for t in texts]
        report = check_soundness(corpus, get_policy("baseline"), int_alg, B)
        assert report.passed and report.cases == 7

    def test_policy_examples_clean(self, int_alg, rat_alg, herb):
        cases = [
            ("atoms", int_alg, "y - 1 = z - 1 & y = 1 & z = 1"),
            ("atoms", int_alg, "y < z & y = 1 & z = 2"),
            ("literals", int_alg, "~(x = 1) & x = 0"),
            ("diseq", herb, "f(x) /= f(y) & g(x, b) = g(a, y)"),
        ]
        for name, J, text in cases:
            report = check_soundness(
                [(F(text, J), pair((), EMPTY_SUBST))], get_policy(name), J, None
            )
            assert report.passed, report.violations

    def test_report_shape(self, int_alg):
        report = check_soundness(
            soundness_corpus(3, int_alg, "baseline", 20), get_policy("baseline"), int_alg, B
        )
        d = report.to_dict()
        assert set(d) >= {"cases", "passed", "skipped_unknown", "violations"}
        assert report.passed


class TestLemmaFragment:
    def test_lemma_safe_predicate(self, int_alg):
        assert lemma_safe(F("x = 1 & y = 2", int_alg))
        assert lemma_safe(F("~(x = 1 | y = 2)", int_alg))
        assert not lemma_safe(F("x = 1 | y = 2", int_alg))
        assert not lemma_safe(F("exists x. (x = 1 | y = 2)", int_alg))

    def test_documented_disjunction_gap(self, int_alg):
        """The persistence lemma's literal statement fails when the evaluated
        formula forks into a disjunct whose stored constraints contradict the
        carried formula; this pins the counterexample that motivates
        lemma_safe."""
        from folc.semantics import evaluate, make_context
        from folc.state import cons

        phi1 = F("z = y", int_alg)
        phi2 = F("(z < y - 2 & y - 1 < z + x) | y < x", int_alg)
        sigma = pair((), EMPTY_SUBST)
        premise = satisfiable([And(phi1, phi2)], EMPTY_SUBST, int_alg, B)
        assert premise is True
        out = evaluate(phi2, sigma, make_context(int_alg, get_policy("literals")))
        branch = [st for st in cons(out, int_alg) if len(st.store) == 2]
        assert branch, "the forked disjunct state should survive"
        conclusion = satisfiable(
            list(branch[0].store) + [And(phi1, phi2)], branch[0].subst, int_alg, B
        )
        assert conclusion is False  # the lemma as literally stated fails here
