import ast
import collections
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folc.algebra import (
    EMPTY_SUBST,
    compose,
    herbrand_algebra,
    int_algebra,
    make_subst,
    parse_subst,
    rat_algebra,
)
from folc import oracle
from folc.corpus import gen_formula, gen_state, persistence_corpus, soundness_corpus
from folc.infer import get_policy
from folc.oracle import (
    DepthBound,
    IntervalBound,
    _DNF_CAP,
    _compile,
    _enum_entails,
    _enum_prepare,
    _enum_sat,
    _fm_feasible,
    _fm_feasible_base,
    _rat_dnf,
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
    Signature,
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

    @pytest.mark.parametrize(
        "texts, sat",
        [(("~(x < 1)", "x = 1"), True), (("~(x < 1)", "x = 2"), True), (("~(x <= 1)", "x = 1"), False)],
    )
    def test_negated_order_atoms(self, rat_alg, texts, sat):
        # ~(l < r) reads as r <= l and ~(l <= r) as r < l: the sides swap and
        # the strictness flips, which the boundary point x = 1 tells apart
        formulas = [F(t, rat_alg) for t in texts]
        assert satisfiable(formulas, EMPTY_SUBST, rat_alg, None) is sat

    def test_nonlinear_unknown(self, rat_alg):
        assert satisfiable([F("x * x = 4", rat_alg)], EMPTY_SUBST, rat_alg, None) is None


class TestGroundTerms:
    def test_depth_layers(self, herb):
        depth0 = ground_terms(herb.signature, 0)
        assert App("a", ()) in depth0 and len(depth0) == 3
        depth1 = ground_terms(herb.signature, 1)
        assert App("f", (App("a", ()),)) in depth1
        assert App("g", (App("a", ()), App("b", ()))) in depth1

    def test_limit_is_exact(self):
        sig = Signature([("a", 0), ("b", 0), ("g", 2)])
        assert len(ground_terms(sig, 1, limit=6)) == 6  # a, b and four g terms
        assert ground_terms(sig, 1, limit=5) is None
        assert len(ground_terms(sig, 2, limit=38)) == 38  # a, b and 36 g terms over those six
        assert ground_terms(sig, 2, limit=37) is None

    def test_wide_constructor_builds_no_combination_past_the_limit(self):
        # 220 combinations of 20,000 arguments each held 35.6 MB before giving up
        sig = Signature([("f", 20000), ("a", 0)])
        tracemalloc.start()
        try:
            terms = ground_terms(sig, 3, limit=220)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert terms is None and peak < 2_000_000


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
    return J.functions[t.symbol](*[_ref_tval(a, env, J) for a in t.args])


def _ref_truth(f, env, J, qcands):
    if isinstance(f, Eq):
        return _ref_tval(f.lhs, env, J) == _ref_tval(f.rhs, env, J)
    if isinstance(f, Neq):
        return _ref_tval(f.lhs, env, J) != _ref_tval(f.rhs, env, J)
    if isinstance(f, Atom):
        return J.relations[f.rel](_ref_tval(f.lhs, env, J), _ref_tval(f.rhs, env, J))
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
        (int_algebra(), "atoms", IntervalBound(-3, 3)),  # its stores restate conclusions
        (herbrand_algebra([("f", 1), ("a", 0), ("b", 0)]), "diseq", DepthBound(3)),
    ],
    ids=["int", "int-atoms", "herbrand"],
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


def test_conjuncts_split_only_what_a_conjunction_states(int_alg):
    a, b, c = (F(t, int_alg) for t in ("x = 1", "y < 2", "z /= 3"))
    assert oracle._conjuncts([And(a, Not(Or(b, Not(Not(c)))))]) == [a, Not(b), Not(c)]
    assert oracle._conjuncts([Not(And(a, b)), Or(a, b), Not(Not(And(b, c)))]) == [
        Not(And(a, b)),
        Or(a, b),
        b,
        c,
    ]


def test_cost_cap_decides_before_a_restated_conclusion(int_alg):
    # five variables over 15 candidates each cost past _COST_CAP: the query is
    # refused although its conclusion is one of its premises, so the decided
    # and skipped counts stay those of the cap alone
    chain = F("x < y & y < z & z < u & u < w", int_alg)
    assert _enum_entails([chain], chain, int_alg, B, 0) is None
    assert models(pair([chain], EMPTY_SUBST), chain, int_alg, B) is None
    short = F("x < y & y < z", int_alg)
    assert _enum_entails([short], short.lhs, int_alg, B, 0) is True


def _ref_fm_feasible(rows):
    """The sign branching the oracle ran before it checked disequations one at
    a time: every e /= 0 becomes e < 0 or -e < 0, and one of the 2^k
    branches must be feasible."""
    base = []
    for coeffs, const, rel in rows:
        if rel == "=":
            base += [(coeffs, const, "<="), ({v: -c for v, c in coeffs.items()}, -const, "<=")]
        elif rel != "/=":
            base.append((coeffs, const, rel))
    branches = [base]
    for coeffs, const, rel in rows:
        if rel == "/=":
            neg = {v: -c for v, c in coeffs.items()}
            branches = [b + [side] for b in branches for side in ((coeffs, const, "<"), (neg, -const, "<"))]
    return any(_fm_feasible_base(b) for b in branches)


def _fm_clauses(formulas):
    """Every row conjunction of the DNF that the rational oracle builds for
    the conjunction of formulas (all of them, not only those up to the first
    feasible one)."""
    clauses = [[]]
    for f in formulas:
        dnf = _rat_dnf(f, True)
        if dnf is None:
            return []
        clauses = [a + b for a in clauses for b in dnf]
        if len(clauses) > _DNF_CAP:
            return []
    return clauses


def test_per_disequation_fm_matches_sign_branching():
    J = rat_algebra()
    neq_counts = collections.Counter()
    for seed in (0, 7, 41):
        for premises, conclusion in _oracle_queries(J, "linear", seed, 400):
            formulas = premises if conclusion is None else premises + [Not(conclusion)]
            for rows in _fm_clauses(formulas):
                assert _fm_feasible(rows) is _ref_fm_feasible(rows), rows
                neq_counts[sum(rel == "/=" for _, _, rel in rows)] += 1
    assert sum(neq_counts.values()) >= 6000
    assert set(neq_counts) == set(range(6))


@pytest.mark.parametrize(
    "text, sat",
    [("0 <= x & x <= 1 & x /= 0 & x /= 1", True), ("x <= 0 & 0 <= x & x /= 0", False)],
    ids=["open-interval", "point"],
)
def test_disequations_decided_by_density(text, sat):
    # over the integers the first would be unsatisfiable; over Q the open
    # interval (0, 1) survives both cuts, while the point 0 does not
    J = rat_algebra()
    assert satisfiable([F(text, J)], EMPTY_SUBST, J, None) is sat
    (rows,) = _fm_clauses([F(text, J)])
    assert _ref_fm_feasible(rows) is sat


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
    test, names = _compile(phi, J, qcands)
    assert names == fv
    assert test(env) is _ref_truth(phi, dict(env), J, qcands)
    assert env == before


class TestCompiledTruth:
    @given(phi=int_formulas(), drawn=_envs(st.integers(min_value=-3, max_value=3)))
    def test_int_closure_matches_walk(self, phi, drawn, int_alg):
        _assert_compiled_matches_walk(phi, drawn, int_alg, _INT_Q)

    @given(phi=herb_formulas(), drawn=_envs(st.sampled_from(_HERB_Q)))
    def test_herbrand_closure_matches_walk(self, phi, drawn, herb):
        _assert_compiled_matches_walk(phi, drawn, herb, _HERB_Q)

    def test_exists_memo_keys_on_every_free_variable(self, int_alg):
        # one closure, called on environments that differ in x or z only: the
        # first exists reads the free x and z, the last one reads z and the x
        # that its enclosing binder shadows, which tries x = z + 1 (no y) before
        # x = z + 2; a memo key that left out any of these names would hand a
        # later call, or a later witness, an earlier one's verdict
        phi = F("(exists y. y + y = x + z) & exists x. (z < x & exists y. y + y = x + z)", int_alg)
        qcands = list(range(-4, 5))
        test, _ = _compile(phi, int_alg, qcands)
        verdicts = []
        for vx, vz in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 0)]:
            env = {"x": vx, "z": vz}
            verdicts.append(test(env))
            assert verdicts[-1] is _ref_truth(phi, dict(env), int_alg, qcands)
            assert env == {"x": vx, "z": vz}
        assert verdicts == [True, False, False, True, True, True]

    def test_nested_exists_shadowing_restores_environment(self, int_alg):
        # exists x. ((exists x. x = 3) & x = y + 1), then x = 0 on the free x:
        # the inner binder must hand the outer witness 2 back, and the outer
        # one the free value 0
        inner = Exists("x", Eq(x, Val(3)))
        outer = Exists("x", And(inner, Eq(x, App("+", (y, Val(1))))))
        qcands = list(range(-3, 4))
        env = {"x": 0, "y": 1}
        assert _compile(And(outer, Eq(x, Val(0))), int_alg, qcands)[0](env) is True
        assert env == {"x": 0, "y": 1}
        unbound = {"y": 1}
        assert _compile(outer, int_alg, qcands)[0](unbound) is True
        assert unbound == {"y": 1}


def test_oracle_stays_independent_of_the_code_it_checks():
    # The oracle is a test reference: it may call the evaluator through its
    # entry points, and build nothing on the policies it judges.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = collections.defaultdict(set)  # module, relative or under folc -> the names taken from it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported[(node.module or "").removeprefix("folc.")].update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.name.removeprefix("folc."), set()) for a in node.names)
    assert "infer" not in imported and "infer" not in imported[""]
    assert imported["semantics"] == {"make_context", "evaluate"}


def recheck_decides_failures_true(phi, sigma, policy, J):
    """Whether every check failing at the first pass is decided True by the
    recheck (boost 3), neither refused nor failed again."""
    first, _ = oracle._case_checks(phi, sigma, policy, J, B, 0)
    failing = [(name, detail()) for name, verdict, detail in first if verdict is False]
    again, _ = oracle._case_checks(phi, sigma, policy, J, B, 3)
    verdicts = {(name, detail()): verdict for name, verdict, detail in again}
    return bool(failing) and all(verdicts.get(check) is True for check in failing)


def test_known_false_violation_quantifier_reach(int_alg):
    # after x/y + y the witness of exists y. x < y must exceed 2y: the recheck's
    # quantifier reach scales with the coefficient mass
    phi = F("exists y. x < y & x = y + y", int_alg)
    sigma = pair([F("~(y + y < y)", int_alg)], EMPTY_SUBST)
    answer = pair([F("~(y + y < y)", int_alg)], parse_subst("{x/y + y}", int_alg))
    assert models(answer, phi.lhs, int_alg, B) is False
    assert models(answer, phi.lhs, int_alg, B, 3) is True
    report = check_soundness([(phi, sigma)], get_policy("literals"), int_alg, B)
    assert report.passed, report.violations


@pytest.mark.parametrize(
    "policy, text, store",
    [
        ("atoms", "exists x. ((y - 2 < 0 | -1 = z) & x = y + z)", ["y = z + x"]),
        ("literals", "exists y. y = z + x & z = x - y", []),
        ("baseline", "exists y. y < x & y + y = x", []),
        ("literals", "(1 < z | exists y. z + x = y - 1) & x = z + y", []),
    ],
)
def test_quantifier_reach_of_the_recheck_covers_coefficient_mass(policy, text, store, int_alg):
    # bench check-corpus ops check/3/913 and check/5/3524 at seed 29, check/2/7046
    # at seed 75 and check/7/1314 at seed 82: a reach sized for coefficient 1
    # misses their witnesses; the recheck finds them, it does not give up
    phi = F(text, int_alg)
    sigma = pair([F(s, int_alg) for s in store], EMPTY_SUBST)
    assert recheck_decides_failures_true(phi, sigma, get_policy(policy), int_alg)
    report = check_soundness([(phi, sigma)], get_policy(policy), int_alg, B)
    assert report.passed, report.violations


def test_recheck_widens_within_its_cost_cap(int_alg, monkeypatch):
    # the first case's answer <y - 2 < 0 | {y/z + x}>: the window scaled by mass 4
    # costs about 856,000, past the first pass's cap; held to that cap the recheck
    # takes a narrower window, which misses the witness 2z + x
    answer = pair([F("y - 2 < 0", int_alg)], parse_subst("{y/z + x}", int_alg))
    phi = F("exists x. ((y - 2 < 0 | -1 = z) & x = y + z)", int_alg)
    assert models(answer, phi, int_alg, B, 3) is True
    monkeypatch.setattr(oracle, "_WIDENED_COST_CAP", oracle._COST_CAP)
    assert models(answer, phi, int_alg, B, 3) is False


def test_recheck_still_reports_a_violation_with_mass_above_one(int_alg, monkeypatch):
    # y + y = z + z + 1 has no integer solution, however wide the recheck's window;
    # a window scaled by mass 4 over z and w costs past the first pass's cap, so
    # a recheck refused by that cap would turn this violation into a skip
    wrong = (pair([F("w - 2 < 0", int_alg)], parse_subst("{x/z + z + 1 + w}", int_alg)),)
    monkeypatch.setattr("folc.oracle.evaluate", lambda phi, sigma, ctx: wrong)
    phi = F("exists y. y + y = x - w", int_alg)
    report = check_soundness([(phi, pair((), EMPTY_SUBST))], get_policy("atoms"), int_alg, B)
    assert [(v["criterion"], v["detail"]) for v in report.violations] == [
        ("soundness-satisfaction", "<w - 2 < 0 | {x/z + z + 1 + w}> |= exists y. y + y = x - w")
    ]
    assert (report.decided, report.skipped_unknown) == (1, 0)


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

    def test_violation_details(self, int_alg, monkeypatch):
        """Each kind of failing check names its own state and the formula, as it always has."""
        F_ = lambda text: F(text, int_alg)
        right = pair((), parse_subst("{x/1, y/1}", int_alg))
        wrong = (pair([F_("y < x")], parse_subst("{x/2}", int_alg)), right)
        answers = {
            "x = 1 & y = 1": wrong,
            "y = 1": wrong,
            "~(z = 1) & x = x": (),
            "x = x": (pair((), parse_subst("{z/1}", int_alg)),),
        }
        monkeypatch.setattr("folc.oracle.evaluate", lambda phi, sigma, ctx: answers[str(phi)])
        corpus = [
            (F_("x = 1 & y = 1"), pair((), EMPTY_SUBST)),
            (F_("~(z = 1) & x = x"), pair((), parse_subst("{z/2}", int_alg))),
        ]
        report = check_soundness(corpus, get_policy("atoms"), int_alg, B)
        assert [(v["criterion"], v["detail"]) for v in report.violations] == [
            ("soundness-satisfaction", "<y < x | {x/2}> |= x = 1 & y = 1"),
            ("preservation-consistency", "sat(y < x; x = 1 & y = 1) under {x/2}"),
            ("soundness-refutation", "<{} | {z/2}> |= ~(~(z = 1) & x = x)"),
            ("preservation-validity", "<{} | {z/1}> |= ~(z = 1)"),
            ("preservation-consistency", "sat({}; ~(z = 1) & x = x) under {z/1}"),
        ]
        second = [(v["formula"], v["state"]) for v in report.violations[2:]]
        assert second == [("~(z = 1) & x = x", "<{} | {z/2}>")] * 3

    def test_passed_counts_cases_not_checks(self, int_alg):
        literals = get_policy("literals")

        class Rebinding:  # literals, but every answer binds x and y to 5
            name = "rebinding"
            check_algebra = literals.check_algebra

            def apply(self, sigma, J):
                five = parse_subst("{x/5, y/5}", J)
                answers = literals.apply(sigma, J)
                return tuple(Pair(s.store, compose(s.subst.without(("x", "y")), five, J)) for s in answers)

        corpus = [(F("y = 0 & x = 1", int_alg), pair((), parse_subst("{y/0}", int_alg)))]
        d = check_soundness(corpus, Rebinding(), int_alg, B).to_dict()
        assert (d["decided"], d["checks"], len(d["violations"]), d["passed"]) == (1, 3, 3, 0)

    def test_passing_checks_print_no_state(self, int_alg, monkeypatch):
        def refuse(self):
            raise AssertionError("a passing check printed a state")

        monkeypatch.setattr(Pair, "__str__", refuse)
        corpus = [(F("y = z - 1 & z = x + 2", int_alg), pair((), EMPTY_SUBST))]
        assert check_soundness(corpus, get_policy("atoms"), int_alg, B).passed


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
