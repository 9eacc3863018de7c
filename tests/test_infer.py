import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folc import infer
from folc.algebra import (
    EMPTY_SUBST,
    JSubst,
    apply_subst,
    compose,
    int_algebra,
    make_subst,
    parse_subst,
)
from folc.corpus import gen_atom, gen_store_formula, persistence_corpus, soundness_corpus
from folc.infer import (
    ATOMS,
    BASELINE,
    DISEQ,
    LINEAR,
    LITERALS,
    POLICIES,
    UNIFY,
    LiteralsPolicy,
    storeless_eval,
    aux,
    baseline_infer,
    equation_step,
    get_policy,
    mgu,
    rewrite_linear,
)
from folc.semantics import evaluate, make_context
from folc.state import EMPTY_STORE, ERROR, Pair, Store, pair
from folc.syntax import (
    BOTTOM,
    And,
    App,
    Atom,
    Eq,
    Exists,
    Neq,
    Not,
    Or,
    Val,
    Var,
    free_vars,
    parse_formula,
    term_vars,
)
from conftest import herb_terms, rat_terms

x, y, z = Var("x"), Var("y"), Var("z")


def F(text, J):
    return parse_formula(text, J.signature)


def T(text, J):
    from folc.syntax import parse_term

    return parse_term(text, J.signature)


class TestMgu:
    def test_decomposition(self, herb):
        assert mgu(T("g(x, b)", herb), T("g(a, y)", herb)) == parse_subst("{x/a, y/b}", herb)

    def test_occurs_check(self, herb):
        assert mgu(x, T("f(x)", herb)) is None

    def test_trivial(self, herb):
        assert mgu(x, x) == EMPTY_SUBST

    def test_variable_side_is_bound_whichever_side_it_is(self, herb):
        assert mgu(T("f(a)", herb), y) == parse_subst("{y/f(a)}", herb)
        assert mgu(y, T("f(a)", herb)) == parse_subst("{y/f(a)}", herb)

    def test_left_variable_bound_to_right(self, herb):
        assert mgu(x, y) == parse_subst("{x/y}", herb)
        assert mgu(T("f(x)", herb), T("f(y)", herb)) == parse_subst("{x/y}", herb)

    def test_clash(self, herb):
        assert mgu(T("a", herb), T("b", herb)) is None
        assert mgu(T("f(x)", herb), T("g(x, x)", herb)) is None

    @given(s=herb_terms(), t=herb_terms())
    def test_result_unifies_and_is_idempotent(self, s, t, herb):
        eta = mgu(s, t)
        if eta is None:
            return
        assert apply_subst(s, eta) == apply_subst(t, eta)
        for _, value in eta.bindings:
            assert apply_subst(value, eta) == value


class TestBaselineInfer:
    def test_binds_open_equation(self, int_alg):
        sigma = pair([F("y = z - 1", int_alg)], parse_subst("{x/1}", int_alg))
        assert baseline_infer(sigma, int_alg) == (pair((), parse_subst("{x/1, y/z - 1}", int_alg)),)

    def test_non_ground_atom_errors(self, int_alg):
        assert baseline_infer(pair([F("y < z", int_alg)], EMPTY_SUBST), int_alg) == (ERROR,)

    def test_ground_false_equation_fails(self, int_alg):
        assert baseline_infer(pair([F("1 = 2", int_alg)], EMPTY_SUBST), int_alg) == ()

    def test_error_and_identity(self, int_alg):
        assert baseline_infer(ERROR, int_alg) == (ERROR,)
        theta = parse_subst("{x/1}", int_alg)
        assert baseline_infer(pair((), theta), int_alg) == (pair((), theta),)

    def test_multi_formula_store_errors(self, int_alg):
        sigma = pair([F("x = 1", int_alg), F("y = 2", int_alg)], EMPTY_SUBST)
        assert baseline_infer(sigma, int_alg) == (ERROR,)


class TestAux:
    def test_no_active_is_fixpoint(self, int_alg):
        sigma = pair([F("y < z", int_alg)], EMPTY_SUBST)
        assert aux(ATOMS, sigma, int_alg) == (sigma,)

    def test_atoms_worked_example(self, int_alg):
        sigma = pair(
            [F("y < z", int_alg), F("y = 1", int_alg), F("z = 2", int_alg)], EMPTY_SUBST
        )
        assert aux(ATOMS, sigma, int_alg) == (
            pair((), parse_subst("{y/1, z/2}", int_alg)),
        )

    def test_measure_decreases(self, int_alg, herb, rat_alg):
        # every step either binds a variable of the applied store or
        # consumes a constraint without touching the substitution
        rng = random.Random(3)
        cases = [(ATOMS, int_alg), (LITERALS, int_alg), (UNIFY, herb), (DISEQ, herb), (LINEAR, rat_alg)]
        for policy, J in cases:
            for _ in range(60):
                formulas = [
                    gen_store_formula(rng, J, policy.name, ["x", "y"])
                    for _ in range(rng.randint(1, 3))
                ]
                formulas = [f for f in formulas if policy.admits(f)]
                sigma = pair(formulas, EMPTY_SUBST)
                for _ in range(30):
                    before = _measure(sigma, J)
                    succ = step(policy, sigma, J)
                    if succ is None or succ is sigma:
                        break
                    sigma = succ
                    assert _measure(sigma, J) < before


def _measure(sigma, J):
    applied_vars = set()
    for f in sigma.store:
        from folc.oracle import subst_formula

        applied_vars |= free_vars(subst_formula(f, sigma.subst, J))
    return (len(applied_vars), len(sigma.store))


def step(policy, sigma, J):
    """One round: resolve every constraint once and act on the last active one.

    Returns sigma itself when no constraint is active, None when the last
    active one fails, and otherwise the state with the passive constraints
    followed by the remaining active ones, in store order.
    """
    passive = []
    active = []
    outcome = None
    for f in sigma.store:
        resolved = policy.resolve(f, sigma.subst, J)
        if resolved[0] == "passive":
            passive.append(f)
        else:
            active.append(f)
            outcome = resolved
    if outcome is None:
        return sigma
    if outcome[0] == "fail":
        return None
    subst = compose(sigma.subst, outcome[1], J) if outcome[0] == "bind" else sigma.subst
    return Pair(Store(passive + active[:-1]), subst)


def reference_aux(policy, sigma, J):
    """aux by its definition: step repeated until it fails or changes nothing."""
    while True:
        succ = step(policy, sigma, J)
        if succ is None:
            return ()
        if succ is sigma:
            return (sigma,)
        sigma = succ


def _ordered(states):
    """States as their ordered store items, bindings and printed form: Store's == ignores order.

    Each also says whether its store equals one built afresh from its items,
    which a store whose key disagrees with its items does not.
    """
    return [(s.store.items, s.subst.bindings, str(s), s.store == Store(s.store.items)) for s in states]


def _conjuncts(phi):
    return _conjuncts(phi.lhs) + _conjuncts(phi.rhs) if isinstance(phi, And) else [phi]


STORE_POLICIES = ("atoms", "literals", "unify", "diseq", "linear")


class TestAuxAgainstRepeatedStep:
    @pytest.mark.parametrize("name", STORE_POLICIES)
    def test_corpus_states_and_chained_states(self, name, monkeypatch, int_alg, herb, rat_alg):
        """Every apply on an admitted store made while evaluating the corpora, conjunct by
        conjunct, matches step: aux and the one-formula shortcut in front of it alike."""
        J = {"unify": herb, "diseq": herb, "linear": rat_alg}.get(name, int_alg)
        policy = get_policy(name)
        apply = infer.StorePolicy.apply
        seen = {"calls": 0, "closed": 0}

        def checked(p, sigma, J):
            if sigma is ERROR or not len(sigma.store) or not all(map(p.admits, sigma.store)):
                return apply(p, sigma, J)
            want = reference_aux(p, sigma, J)
            seen["closed"] += sigma.store.closed_prefix(p, J, sigma.subst) > 0
            got = apply(p, sigma, J)
            assert _ordered(got) == _ordered(want), str(sigma)
            seen["calls"] += 1
            return got

        monkeypatch.setattr(infer.StorePolicy, "apply", checked)
        for seed in (41, 42):
            for phi, sigma in soundness_corpus(seed, J, name, 200) + persistence_corpus(
                seed, J, name, 200
            ):
                policy.apply(sigma, J)
                # the outputs of one evaluate, fed the next conjunct: their
                # stores come marked closed
                ctx = make_context(J, policy)
                states = [sigma]
                for conjunct in _conjuncts(phi):
                    states = [out for st in states for out in evaluate(conjunct, st, ctx)]
        # a disjunction chain: each bind leaves the empty store, which every
        # state of the chain then shares, whatever its substitution
        a, b = ("a", "b") if J.numeric is None else ("1", "2")
        chain = parse_formula(" & ".join(f"(x{i} = {a} | x{i} = {b})" for i in range(6)), J.signature)
        ctx = make_context(J, policy)
        states = [pair((), EMPTY_SUBST)]
        for conjunct in _conjuncts(chain):
            states = [out for st in states for out in evaluate(conjunct, st, ctx)]
        assert len(states) == 64 and len({id(s.store) for s in states}) == 1
        # under unify every admitted constraint binds or fails, so each
        # fixpoint store is empty and no prefix is ever known passive
        assert seen["calls"] > 1000 and (seen["closed"] > 10 or name == "unify"), seen

    def test_closed_record_needs_the_very_same_objects(self, monkeypatch, int_alg):
        calls = _count_resolves(monkeypatch)
        theta = parse_subst("{u/1}", int_alg)
        (closed,) = aux(LITERALS, pair([F("y < z", int_alg), F("x < y", int_alg)], theta), int_alg)
        cases = [
            (LITERALS, int_alg, theta, 2),  # the recorded objects: only w < x is resolved
            (ATOMS, int_alg, theta, 0),  # another policy
            (LITERALS, int_algebra(), theta, 0),  # another algebra object
            (LITERALS, int_alg, parse_subst("{u/1}", int_alg), 0),  # equal, not the same
        ]
        for policy, J, th, known in cases:
            grown = closed.store.add(F("w < x", int_alg))
            assert grown.closed_prefix(policy, J, th) == known
            sigma = Pair(grown, th)
            calls[0] = 0
            assert aux(policy, sigma, J) == (sigma,)
            assert calls[0] == 3 - known
            # now every item is known passive under these objects
            assert grown.closed_prefix(policy, J, th) == 3

    def test_one_atom_on_a_closed_store_costs_one_admission_and_one_resolve(
        self, monkeypatch, int_alg
    ):
        prefix = [F(f"y{i} < z{i}", int_alg) for i in range(30)]
        (closed,) = LITERALS.apply(pair(prefix, EMPTY_SUBST), int_alg)
        assert closed.store.closed_prefix(LITERALS, int_alg, EMPTY_SUBST) == 30
        admitted = []
        admits = LITERALS.admits
        monkeypatch.setattr(LITERALS, "admits", lambda f: admitted.append(f) or admits(f))
        calls = _count_resolves(monkeypatch)
        # x = 1 binds, and no prefix item mentions x: the successor is the
        # prefix's items, in order
        x_is_1 = F("x = 1", int_alg)
        (out,) = LITERALS.apply(Pair(closed.store.add(x_is_1), EMPTY_SUBST), int_alg)
        assert admitted == [x_is_1] and calls[0] == 1
        assert out.store.items == tuple(prefix) and out.store == Store(prefix)
        assert str(out.subst) == "{x/1}"
        # w < v survives the bind: it follows the prefix's items
        admitted.clear()
        calls[0] = 0
        sigma = Pair(closed.store.add(F("w < v", int_alg)).add(x_is_1), EMPTY_SUBST)
        (out,) = LITERALS.apply(sigma, int_alg)
        assert len(admitted) == 2 and calls[0] == 2
        assert out.store.items == (*prefix, F("w < v", int_alg))
        assert _ordered([out]) == _ordered(reference_aux(LITERALS, sigma, int_alg))

    def test_one_formula_past_the_prefix_is_resolved_once_and_aux_only_for_a_bind_into_it(
        self, monkeypatch, int_alg
    ):
        prefix = [F(f"y{i} < z{i}", int_alg) for i in range(30)]
        (closed,) = LITERALS.apply(pair(prefix, EMPTY_SUBST), int_alg)
        calls = _count_resolves(monkeypatch)
        auxes = []
        monkeypatch.setattr(infer, "aux", lambda *args: auxes.append(args) or aux(*args))

        def one(store, text):
            calls[0] = 0
            auxes.clear()
            sigma = Pair(store.add(F(text, int_alg)), EMPTY_SUBST)
            return sigma, LITERALS.apply(sigma, int_alg)

        sigma, out = one(closed.store, "w < v")  # passive: the input state itself
        assert out[0] is sigma and calls[0] == 1 and not auxes
        assert sigma.store.closed_prefix(LITERALS, int_alg, EMPTY_SUBST) == 31
        sigma, out = one(closed.store, "1 < 2")  # drop: the prefix, marked closed
        assert out[0].store.items == tuple(prefix) and calls[0] == 1 and not auxes
        assert out[0].store.closed_prefix(LITERALS, int_alg, EMPTY_SUBST) == 30
        sigma, out = one(closed.store, "2 < 1")  # fail
        assert out == () and calls[0] == 1 and not auxes
        sigma, out = one(EMPTY_STORE, "x = 1")  # a bind into an empty prefix wakes nothing
        assert str(out[0]) == "<{} | {x/1}>" and calls[0] == 1 and not auxes
        # a bind into a non-empty prefix: aux takes the outcome and resolves it no more
        sigma, out = one(closed.store, "x = 1")
        assert out[0].store.items == tuple(prefix) and calls[0] == 1 and len(auxes) == 1

    @pytest.mark.parametrize(
        "earlier, added, expected",
        [
            ("y < z & w < y", "v < u", "<y < z; w < y; v < u | {}>"),  # passive
            ("y < z & w < y", "1 < 2", "<y < z; w < y | {}>"),  # drop
            ("y < z & w < y", "2 < 1", None),  # fail
            ("z = 3 & w = 1", "y = 2", "<{} | {w/1, y/2, z/3}>"),  # bind, empty prefix
            ("z = 3 & y < z & w < v", "y = 1", "<w < v | {y/1, z/3}>"),  # wakes y < z: drop
            ("z = 3 & w < v & y < z", "y = 5", None),  # wakes y < z: fail
            ("x < y & y < z", "y = x + 1", "<x < y; y < z | {y/x + 1}>"),  # wakes both: passive
        ],
    )
    def test_one_formula_on_a_store_closed_by_evaluate(self, earlier, added, expected, int_alg):
        ctx = make_context(int_alg, LITERALS)
        (closed,) = evaluate(F(earlier, int_alg), pair((), EMPTY_SUBST), ctx)
        f = F(added, int_alg)
        sigma = Pair(closed.store.add(f), closed.subst)
        assert sigma.store.closed_prefix(LITERALS, int_alg, sigma.subst) == len(sigma.store) - 1
        want = reference_aux(LITERALS, sigma, int_alg)
        assert [str(s) for s in want] == ([] if expected is None else [expected])
        assert _ordered(LITERALS.apply(sigma, int_alg)) == _ordered(want)
        (closed,) = evaluate(F(earlier, int_alg), pair((), EMPTY_SUBST), ctx)
        assert _ordered(evaluate(f, closed, ctx)) == _ordered(want)

    def test_a_handed_in_verdict_under_another_theta_is_not_acted_on(self, int_alg):
        theta = parse_subst("{z/3}", int_alg)
        (closed,) = LITERALS.apply(pair([F("y < z", int_alg)], theta), int_alg)
        f = F("y = 1", int_alg)
        sigma = Pair(closed.store.add(f), theta)
        other = parse_subst("{y/2}", int_alg)
        stale = LITERALS.resolve(f, other, int_alg)
        assert stale == ("fail",)
        want = reference_aux(LITERALS, sigma, int_alg)
        assert [str(s) for s in want] == ["<{} | {y/1, z/3}>"]
        assert _ordered(aux(LITERALS, sigma, int_alg, (stale, other))) == _ordered(want)

    @pytest.mark.parametrize(
        "closed, added, expected",
        [
            # x = 2 makes both closed products linear, and each pivots on w:
            # the one the step acts on first decides how w is written
            (
                ["x * y = z + w", "u * v = 1", "x * z = w"],
                ["u * u = v", "x = 2"],
                "<u * v = 1; u * u = v | {w/2 * z, x/2, y/3/2 * z}>",
            ),
            # the woken x * z = w and the earlier 2 * y = z + w are active in
            # one round: the step acts on the entry, which comes last
            (
                ["u * v = 1", "x * z = w"],
                ["2 * y = z + w", "u * u = v", "x = 2"],
                "<u * v = 1; u * u = v | {w/2 * (3/2 * z) - z, x/2, y/3/2 * z}>",
            ),
        ],
    )
    def test_woken_prefix_items_turn_active_in_store_order(self, closed, added, expected, rat_alg):
        (sigma,) = LINEAR.apply(pair([F(t, rat_alg) for t in closed], EMPTY_SUBST), rat_alg)
        store = sigma.store
        for t in added:
            store = store.add(F(t, rat_alg))
        sigma = Pair(store, sigma.subst)
        assert store.closed_prefix(LINEAR, rat_alg, sigma.subst) == len(closed)
        want = reference_aux(LINEAR, sigma, rat_alg)
        assert str(want[0]) == expected
        assert _ordered(aux(LINEAR, sigma, rat_alg)) == _ordered(want)

    def test_a_record_for_another_policy_is_ignored(self, rat_alg):
        # x = y * y waits as non-linear under linear, but literals binds x
        sigma = pair([F("x = y * y", rat_alg)], EMPTY_SUBST)
        assert aux(LINEAR, sigma, rat_alg) == (sigma,)
        assert sigma.store.closed_prefix(LINEAR, rat_alg, EMPTY_SUBST) == 1
        assert str(aux(LITERALS, sigma, rat_alg)[0]) == "<{} | {x/y * y}>"

    def test_a_name_that_leaves_the_domain_wakes_its_constraints(self, herb):
        # theta need not be idempotent: binding y to x collapses x/y into x/x,
        # so x leaves the domain and f(x) /= z, which does not mention y,
        # turns into f(x) /= f(x)
        theta = parse_subst("{x/y, z/f(x)}", herb)
        sigma = pair([F("f(x) /= z", herb), F("f(y) = z", herb)], theta)
        assert str(step(DISEQ, sigma, herb)) == "<f(x) /= z | {y/x, z/f(x)}>"
        assert aux(DISEQ, sigma, herb) == reference_aux(DISEQ, sigma, herb) == ()

    @pytest.mark.parametrize("policy", [ATOMS, LITERALS], ids=lambda p: p.name)
    def test_a_bind_wakes_the_constraints_on_a_name_whose_value_it_rewrites(self, policy, int_alg):
        # x < 3 watches x alone, and y = 5 rewrites x's value y + 1 to 6
        theta = parse_subst("{x/y + 1}", int_alg)
        ctx = make_context(int_alg, policy)

        def answers(text, store=()):
            sigma = pair([F(t, int_alg) for t in store], theta)
            return [str(s) for s in evaluate(F(text, int_alg), sigma, ctx)]

        assert answers("x < 3 & y = 5") == []  # x < 3 in the closed prefix
        assert answers("x < 9 & y = 5") == ["<{} | {x/6, y/5}>"]
        assert answers("y = 5", ["x < 3"]) == []  # no closed record: x < 3 is an entry

    def test_inconsistent_admitted_store_fails_without_classify(self, int_alg):
        # 1 < 0 is ground and false; the binding of y after it leaves it so
        sigma = pair([F("y = 1", int_alg), F("1 < 0", int_alg), F("z = y", int_alg)], EMPTY_SUBST)
        assert ATOMS.apply(sigma, int_alg) == ()
        assert reference_aux(ATOMS, sigma, int_alg) == ()


def _count_resolves(monkeypatch):
    """Count LiteralsPolicy.resolve calls (the atoms and literals policies)."""
    count = [0]
    resolve = LiteralsPolicy.resolve

    def counting(self, f, theta, J):
        count[0] += 1
        return resolve(self, f, theta, J)

    monkeypatch.setattr(LiteralsPolicy, "resolve", counting)
    return count


def _atoms_chain_resolves(count, J, n, order=None):
    """Resolves over n links x_i < x_{i+1}, then the groundings x_i = i in order (default 0..n)."""
    order = range(n + 1) if order is None else order
    links = [f"x{i} < x{i + 1}" for i in range(n)] + [f"x{i} = {i}" for i in order]
    phi = parse_formula(" & ".join(links), J.signature)
    count[0] = 0
    answers = evaluate(phi, pair((), EMPTY_SUBST), make_context(J, ATOMS))
    assert [str(s) for s in answers] == [
        "<{} | {" + ", ".join(f"x{i}/{i}" for i in sorted(range(n + 1), key=str)) + "}>"
    ]
    return count[0]


def test_atoms_chain_resolves_grow_linearly(monkeypatch, int_alg):
    """n atoms x_i < x_{i+1}, then n + 1 groundings: each binding wakes only its neighbours."""
    count = _count_resolves(monkeypatch)
    small = _atoms_chain_resolves(count, int_alg, 100)
    large = _atoms_chain_resolves(count, int_alg, 200)
    assert large <= 2.5 * small, (small, large)


def test_wake_up_counts_are_pinned(monkeypatch, int_alg):
    """A bind wakes the constraints on the names it changes and no others: a rule
    that woke those on every name the new substitution binds resolves the
    chain grounded even names first 5,351 times."""
    count = _count_resolves(monkeypatch)
    assert _atoms_chain_resolves(count, int_alg, 100) == 401
    evens_first = [*range(0, 101, 2), *range(1, 101, 2)]
    assert _atoms_chain_resolves(count, int_alg, 100, evens_first) == 401
    # each bind leaves the empty store, so no bind wakes anything
    phi = parse_formula(" & ".join(f"(x{i} = 3 | x{i} = 4)" for i in range(10)), int_alg.signature)
    count[0] = 0
    assert len(evaluate(phi, pair((), EMPTY_SUBST), make_context(int_alg, ATOMS))) == 1024
    assert count[0] == 2046


class TestUnifyPolicy:
    def test_equation_chain(self, herb):
        sigma = pair([F("x = f(y)", herb), F("y = a", herb)], EMPTY_SUBST)
        assert UNIFY.apply(sigma, herb) == (pair((), parse_subst("{x/f(a), y/a}", herb)),)

    def test_constructor_clash(self, herb):
        assert UNIFY.apply(pair([F("a = b", herb)], EMPTY_SUBST), herb) == ()

    def test_identity(self, herb):
        theta = parse_subst("{x/a}", herb)
        assert UNIFY.apply(pair((), theta), herb) == (pair((), theta),)

    def test_step_on_empty_active_returns_state(self, herb):
        sigma = pair((), parse_subst("{x/a}", herb))
        assert step(UNIFY, sigma, herb) is sigma

    def test_occurs_check_is_inconsistency(self, herb):
        assert UNIFY.apply(pair([F("x = f(x)", herb)], EMPTY_SUBST), herb) == ()


class TestAtomsPolicy:
    def test_split_error_atoms_passive(self, int_alg):
        assert ATOMS.resolve(F("y < z", int_alg), EMPTY_SUBST, int_alg) == ("passive",)
        assert ATOMS.resolve(F("y = 1", int_alg), EMPTY_SUBST, int_alg) == (
            "bind",
            parse_subst("{y/1}", int_alg),
        )
        sigma = pair([F("y < z", int_alg), F("y = 1", int_alg)], EMPTY_SUBST)
        assert step(ATOMS, sigma, int_alg) == Pair(
            Store([F("y < z", int_alg)]), parse_subst("{y/1}", int_alg)
        )

    def test_ground_atom_is_active(self, int_alg):
        theta = parse_subst("{y/1, z/2}", int_alg)
        assert ATOMS.resolve(F("y < z", int_alg), theta, int_alg) == ("drop",)
        assert step(ATOMS, pair([F("y < z", int_alg)], theta), int_alg) == pair((), theta)

    def test_empty_store(self, int_alg):
        sigma = pair((), parse_subst("{x/1}", int_alg))
        assert step(ATOMS, sigma, int_alg) is sigma

    def test_step_binds_last_active(self, int_alg):
        sigma = pair([F("y < z", int_alg), F("z = 2", int_alg)], parse_subst("{y/1}", int_alg))
        assert step(ATOMS, sigma, int_alg) == Pair(
            Store([F("y < z", int_alg)]), parse_subst("{y/1, z/2}", int_alg)
        )

    def test_step_resolves_last_active_and_keeps_store_order(self, int_alg):
        # two active equations around one passive atom: the last active one
        # is resolved, and the successor lists the passive constraint first
        sigma = pair(
            [F("y = 1", int_alg), F("y < z", int_alg), F("z = 2", int_alg)], EMPTY_SUBST
        )
        succ = step(ATOMS, sigma, int_alg)
        assert succ.subst == parse_subst("{z/2}", int_alg)
        assert str(succ) == "<y < z; y = 1 | {z/2}>"
        assert str(step(ATOMS, succ, int_alg)) == "<y < z | {y/1, z/2}>"
        assert str(step(ATOMS, step(ATOMS, succ, int_alg), int_alg)) == "<{} | {y/1, z/2}>"

    def test_step_true_and_false_ground_atoms(self, int_alg):
        true_atom = Atom("<", Val(1), Val(2))
        false_atom = Atom("<", Val(2), Val(1))
        assert ATOMS.resolve(true_atom, EMPTY_SUBST, int_alg) == ("drop",)
        assert ATOMS.resolve(false_atom, EMPTY_SUBST, int_alg) == ("fail",)
        assert step(ATOMS, pair([true_atom], EMPTY_SUBST), int_alg) == pair((), EMPTY_SUBST)
        assert step(ATOMS, pair([false_atom], EMPTY_SUBST), int_alg) is None
        assert ATOMS.apply(pair([false_atom], EMPTY_SUBST), int_alg) == ()

    def test_disequations_are_not_special(self, int_alg):
        # Neq and ~(Eq) coalesce: the atoms policy accepts neither
        assert ATOMS.apply(pair([F("x /= 1", int_alg)], EMPTY_SUBST), int_alg) == (ERROR,)
        assert ATOMS.apply(pair([Not(F("x = 1", int_alg))], EMPTY_SUBST), int_alg) == (ERROR,)


class TestLiteralsPolicy:
    def test_true_negative_literal_dropped(self, int_alg):
        lit = Not(F("1 = 2", int_alg))
        assert LITERALS.resolve(lit, EMPTY_SUBST, int_alg) == ("drop",)
        assert step(LITERALS, pair([lit], EMPTY_SUBST), int_alg) == pair((), EMPTY_SUBST)

    def test_false_negative_literal_fails(self, int_alg):
        lit = Not(F("1 = 1", int_alg))
        assert LITERALS.resolve(lit, EMPTY_SUBST, int_alg) == ("fail",)
        assert step(LITERALS, pair([lit], EMPTY_SUBST), int_alg) is None

    def test_non_ground_negative_literal_passive(self, int_alg):
        sigma = pair([Not(F("x = 1", int_alg))], EMPTY_SUBST)
        assert LITERALS.apply(sigma, int_alg) == (sigma,)

    def test_equation_binds_the_variable_side(self, int_alg):
        bound = ("bind", parse_subst("{x/1}", int_alg))
        assert LITERALS.resolve(F("1 = x", int_alg), EMPTY_SUBST, int_alg) == bound
        assert LITERALS.resolve(F("x = 1", int_alg), EMPTY_SUBST, int_alg) == bound
        assert LITERALS.resolve(F("x = y", int_alg), EMPTY_SUBST, int_alg) == (
            "bind",
            parse_subst("{x/y}", int_alg),
        )

    def test_neq_spelling_treated_identically(self, int_alg):
        a = LITERALS.apply(pair([F("x /= 1", int_alg)], EMPTY_SUBST), int_alg)
        b = LITERALS.apply(pair([Not(F("x = 1", int_alg))], EMPTY_SUBST), int_alg)
        assert len(a) == len(b) == 1
        assert a[0].subst == b[0].subst == EMPTY_SUBST


class TestDiseqPolicy:
    def test_identical_sides_fail(self, herb):
        assert DISEQ.resolve(F("x /= x", herb), EMPTY_SUBST, herb) == ("fail",)
        assert step(DISEQ, pair([F("x /= x", herb)], EMPTY_SUBST), herb) is None

    def test_ground_distinct_dropped(self, herb):
        assert DISEQ.resolve(F("a /= b", herb), EMPTY_SUBST, herb) == ("drop",)
        assert step(DISEQ, pair([F("a /= b", herb)], EMPTY_SUBST), herb) == pair((), EMPTY_SUBST)

    def test_non_ground_waits(self, herb):
        sigma = pair([F("x /= y", herb)], EMPTY_SUBST)
        assert DISEQ.apply(sigma, herb) == (sigma,)

    def test_not_eq_spelling(self, herb):
        sigma = pair([Not(F("x = y", herb))], EMPTY_SUBST)
        assert DISEQ.apply(sigma, herb) == (sigma,)


class TestRewriteLinear:
    def test_trivial(self, rat_alg):
        assert rewrite_linear(F("2 = 2", rat_alg), EMPTY_SUBST, rat_alg) == ("drop",)

    def test_contradiction(self, rat_alg):
        assert rewrite_linear(F("0 * x = 1", rat_alg), EMPTY_SUBST, rat_alg) == ("fail",)

    def test_pivot_first_variable(self, rat_alg):
        out = rewrite_linear(F("x + y = 3", rat_alg), EMPTY_SUBST, rat_alg)
        assert out == ("bind", make_subst([("x", T("3 - y", rat_alg))], rat_alg))
        # substituting the pivot back solves the equation
        assert rewrite_linear(F("x + y = 3", rat_alg), out[1], rat_alg) == ("drop",)

    def test_nonlinear(self, rat_alg):
        assert rewrite_linear(F("x * x = 4", rat_alg), EMPTY_SUBST, rat_alg) == ("passive",)

    def test_rational_pivot(self, rat_alg):
        out = rewrite_linear(F("2 * x = 3", rat_alg), EMPTY_SUBST, rat_alg)
        assert out == ("bind", make_subst([("x", Val(Fraction(3, 2)))], rat_alg))


def _reference_linear_form(t):
    """(constant, {var: coefficient}) over Fractions, or None if non-linear."""
    if isinstance(t, Val):
        return Fraction(t.value), {}
    if isinstance(t, Var):
        return Fraction(0), {t.name: Fraction(1)}
    if not (isinstance(t, App) and t.symbol in ("+", "-", "*")):
        return None
    left = _reference_linear_form(t.args[0])
    right = _reference_linear_form(t.args[1])
    if left is None or right is None:
        return None
    if t.symbol == "*":
        if left[1] and right[1]:
            return None
        (k, _), (const, coeffs) = (left, right) if not left[1] else (right, left)
        return k * const, {v: k * c for v, c in coeffs.items() if k * c != 0}
    sign = 1 if t.symbol == "+" else -1
    coeffs = dict(left[1])
    for v, c in right[1].items():
        coeffs[v] = coeffs.get(v, 0) + sign * c
    return left[0] + sign * right[0], {v: c for v, c in coeffs.items() if c != 0}


def reference_rewrite_linear(e, theta, J):
    """rewrite_linear's pivot from apply_subst on both sides and a recursive walk over Fractions."""
    form = _reference_linear_form(App("-", (apply_subst(e.lhs, theta), apply_subst(e.rhs, theta))))
    if form is None:
        return ("passive",)
    const, coeffs = form
    if not coeffs:
        return ("drop",) if const == 0 else ("fail",)
    x = min(coeffs)
    cx = coeffs[x]
    u = infer._affine_term(-const / cx, {v: -c / cx for v, c in coeffs.items() if v != x})
    return ("bind", make_subst([(x, u)], J))


_bindings = st.lists(
    st.tuples(st.sampled_from(("w", "x", "y", "z")), rat_terms()),
    max_size=4,
    unique_by=lambda p: p[0],
)


class TestRewriteLinearAgainstReference:
    """The one-walk rewrite_linear against apply_subst and a recursive Fraction walk."""

    @staticmethod
    def same(e, theta, J):
        out = rewrite_linear(e, theta, J)
        ref = reference_rewrite_linear(e, theta, J)
        assert out[0] == ref[0]
        if out[0] == "bind":
            assert out[1].bindings == ref[1].bindings
            assert str(out[1]) == str(ref[1])
            assert repr(out[1]) == repr(ref[1])
        return out

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0 * x * y = 1", ("fail",)),
            ("(x - x) * y = 2", ("fail",)),
            ("x * 0 = y", ("bind", "{y/0}")),
            ("x * (y - y) = 0", ("drop",)),
            ("(x - x) * (y * y) = 0", ("passive",)),
        ],
    )
    def test_products_with_a_zero_factor(self, text, expected, rat_alg):
        out = self.same(F(text, rat_alg), EMPTY_SUBST, rat_alg)
        assert out[0] == expected[0]
        if out[0] == "bind":
            assert out[1] == parse_subst(expected[1], rat_alg)

    def test_rational_pivot_holds_fractions(self, rat_alg):
        out = self.same(F("2 * x + 3 * y = 1", rat_alg), EMPTY_SUBST, rat_alg)
        assert str(out[1]) == "{x/1/2 - 3/2 * y}"
        assert out[1].bindings == (
            ("x", App("-", (Val(Fraction(1, 2)), App("*", (Val(Fraction(3, 2)), y))))),
        )
        assert "Fraction(1, 2)" in repr(out[1]) and "Fraction(3, 2)" in repr(out[1])

    def test_integral_pivot_holds_fractions(self, rat_alg):
        out = self.same(F("x - 2 * y = 4", rat_alg), EMPTY_SUBST, rat_alg)
        assert str(out[1]) == "{x/4 + 2 * y}"
        assert repr(out[1]).count("Fraction(") == 2 and "value=2)" not in repr(out[1])

    def test_a_substituted_value_is_not_substituted_again(self, rat_alg):
        # x's value mentions y, which theta binds too: x - 3 reads y + 1 - 3
        theta = parse_subst("{x/y + 1, y/2}", rat_alg)
        out = self.same(F("x = 3", rat_alg), theta, rat_alg)
        assert out == ("bind", parse_subst("{y/2}", rat_alg))
        assert compose(theta, out[1], rat_alg) == parse_subst("{x/3, y/2}", rat_alg)

    @settings(max_examples=200)
    @given(lhs=rat_terms(), rhs=rat_terms(), bindings=_bindings)
    def test_random_equations_under_non_idempotent_theta(self, lhs, rhs, bindings, rat_alg):
        # parsed from text, so a value may mention a bound name
        theta = parse_subst("{" + ", ".join(f"{n}/{t}" for n, t in bindings) + "}", rat_alg)
        self.same(Eq(lhs, rhs), theta, rat_alg)

    def test_deep_sum_needs_no_recursion(self, rat_alg):
        t = x
        for _ in range(5000):
            t = App("+", (t, Val(Fraction(1))))
        out = rewrite_linear(Eq(t, Val(Fraction(0))), EMPTY_SUBST, rat_alg)
        assert out == ("bind", make_subst([("x", Val(Fraction(-5000)))], rat_alg))


class TestResolveVocabulary:
    """Every decision on one constraint answers ('bind', eta), ('drop',), ('fail',) or ('passive',).

    eta is what acting on the bind composes onto theta."""

    def test_undecidable_equation_is_passive(self, int_alg):
        e = F("x + y = 1", int_alg)
        assert equation_step(e.lhs, e.rhs, EMPTY_SUBST, int_alg) == ("passive",)

    @pytest.mark.parametrize("text", ["2 = 2", "0 * x = 1", "x * x = 4", "x + y = 3", "2 * x = 3"])
    def test_rewrite_linear_answers_the_four_tags(self, text, rat_alg):
        out = rewrite_linear(F(text, rat_alg), EMPTY_SUBST, rat_alg)
        assert out[0] in ("bind", "drop", "fail", "passive")
        if out[0] == "bind":
            assert len(out) == 2 and isinstance(out[1], JSubst)
        else:
            assert len(out) == 1


class TestVerdictReadsOnlyItsVariables:
    """A verdict depends only on the constraint and on theta restricted to its free variables."""

    @pytest.mark.parametrize("name", STORE_POLICIES)
    def test_theta_agreeing_on_the_free_variables_gives_the_same_verdict(
        self, name, int_alg, herb, rat_alg
    ):
        J = {"unify": herb, "diseq": herb, "linear": rat_alg}.get(name, int_alg)
        policy = get_policy(name)
        rng = random.Random(5)
        names = ["x", "y", "z", "w"]

        def term():  # over the bound names too, so theta need not be idempotent
            return gen_atom(rng, J, names).lhs

        checked = binds = others = loops = 0
        while checked < 400:
            f = gen_store_formula(rng, J, name, names[:3])
            if not policy.admits(f):
                continue
            own = free_vars(f)
            theta = make_subst([(n, term()) for n in names if rng.random() < 0.6], J)
            # theta's value objects for f's free variables, anything else elsewhere
            kept = [(n, v) for n, v in theta.bindings if n in own]
            theta2 = make_subst(kept + [(n, term()) for n in names if n not in own and rng.random() < 0.6], J)
            assert all(theta2.get(n) is v for n, v in kept)
            outcome = policy.resolve(f, theta, J)
            assert policy.resolve(f, theta2, J) == outcome, (str(f), str(theta), str(theta2))
            checked += 1
            binds += outcome[0] == "bind"
            others += theta2 != theta
            loops += any(theta.get(n) is not None for _, v in theta.bindings for n in term_vars(v))
        assert binds >= 20 and others > 300 and loops > 100, (binds, others, loops)


def test_a_kept_bind_is_composed_once_and_never_resolved_again(monkeypatch, int_alg):
    # both equations bind in the first round; y = 2 is acted on first, and
    # x = 1's verdict, which y does not touch, is acted on as it was kept
    resolves = _count_resolves(monkeypatch)
    composes = []
    monkeypatch.setattr(infer, "compose", lambda *args: composes.append(args) or compose(*args))
    sigma = pair([F("x = 1", int_alg), F("y = 2", int_alg)], EMPTY_SUBST)
    assert [str(s) for s in LITERALS.apply(sigma, int_alg)] == ["<{} | {x/1, y/2}>"]
    assert resolves[0] == 2 and len(composes) == 2


_x_lt_y, _x_eq_y = Atom("<", x, y), Eq(x, y)
_SHAPES = {
    "Atom": _x_lt_y,
    "Eq": _x_eq_y,
    "Neq": Neq(x, y),
    "Not(Atom)": Not(_x_lt_y),
    "Not(Eq)": Not(_x_eq_y),
    "Not(Neq)": Not(Neq(x, y)),
    "Not(Not(Eq))": Not(Not(_x_eq_y)),
    "Bottom": BOTTOM,
    "And": And(_x_eq_y, _x_eq_y),
    "Or": Or(_x_eq_y, _x_eq_y),
    "Exists": Exists("x", _x_eq_y),
}
_ADMITTED = {
    "unify": {"Eq"},
    "atoms": {"Atom", "Eq"},
    "linear": {"Eq"},
    "literals": {"Atom", "Eq", "Neq", "Not(Atom)", "Not(Eq)"},
    "diseq": {"Eq", "Neq", "Not(Eq)"},
}


@pytest.mark.parametrize("name", sorted(_ADMITTED))
def test_admission_table(name):
    admits = POLICIES[name].admits
    assert {shape for shape, f in _SHAPES.items() if admits(f)} == _ADMITTED[name]


class TestLinearPolicy:
    def test_gaussian_elimination(self, rat_alg):
        sigma = pair([F("x + y = 3", rat_alg), F("x - y = 1", rat_alg)], EMPTY_SUBST)
        assert LINEAR.apply(sigma, rat_alg) == (pair((), parse_subst("{x/2, y/1}", rat_alg)),)

    def test_nonlinear_becomes_linear_after_binding(self, rat_alg):
        sigma = pair([F("x * y = 4", rat_alg), F("x = 2", rat_alg)], EMPTY_SUBST)
        assert LINEAR.apply(sigma, rat_alg) == (pair((), parse_subst("{x/2, y/2}", rat_alg)),)

    def test_contradiction_row(self, rat_alg):
        assert LINEAR.apply(pair([F("0 * x = 1", rat_alg)], EMPTY_SUBST), rat_alg) == ()

    def test_step_reclassifies(self, rat_alg):
        nonlinear = F("x * y = 4", rat_alg)
        assert LINEAR.resolve(nonlinear, EMPTY_SUBST, rat_alg) == ("passive",)
        result = step(LINEAR, pair([nonlinear, F("x = 2", rat_alg)], EMPTY_SUBST), rat_alg)
        assert result.subst == parse_subst("{x/2}", rat_alg)
        assert nonlinear in result.store
        # under {x/2} the product is linear and becomes active
        out = LINEAR.resolve(nonlinear, result.subst, rat_alg)
        assert out == ("bind", parse_subst("{y/2}", rat_alg))
        assert compose(result.subst, out[1], rat_alg) == parse_subst("{x/2, y/2}", rat_alg)


class TestNonSpecialStates:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_non_special_store_errors(self, name, int_alg, herb, rat_alg):
        policy = get_policy(name)
        J = {"unify": herb, "diseq": herb, "linear": rat_alg}.get(name, int_alg)
        weird = pair([Or(F_any(J), F_any(J))], EMPTY_SUBST)
        assert policy.apply(weird, J) == (ERROR,)


def F_any(J):
    return F("x = x", J) if J.numeric is None else F("x = 0", J)


class TestRegistry:
    def test_lookup(self):
        assert get_policy("atoms") is ATOMS
        with pytest.raises(ValueError):
            get_policy("nope")

    def test_algebra_compatibility(self, int_alg, herb, rat_alg):
        with pytest.raises(ValueError):
            UNIFY.check_algebra(int_alg)
        with pytest.raises(ValueError):
            LINEAR.check_algebra(int_alg)
        with pytest.raises(ValueError):
            DISEQ.check_algebra(rat_alg)
        UNIFY.check_algebra(herb)
        LINEAR.check_algebra(rat_alg)
        BASELINE.check_algebra(int_alg)


class TestStorelessEval:
    def test_ordered_success(self, int_alg):
        out = storeless_eval(F("y = 1 & z = 1 & y - 1 = z - 1", int_alg), EMPTY_SUBST, int_alg)
        assert out == (parse_subst("{y/1, z/1}", int_alg),)

    def test_wrong_order_errors(self, int_alg):
        out = storeless_eval(F("y - 1 = z - 1 & y = 1 & z = 1", int_alg), EMPTY_SUBST, int_alg)
        assert out == (ERROR,)

    def test_negation_first_errors(self, int_alg):
        out = storeless_eval(F("~(x = 1) & x = 0", int_alg), EMPTY_SUBST, int_alg)
        assert out == (ERROR,)

    def test_negation_of_established_fails(self, int_alg):
        out = storeless_eval(F("x = 0 & ~(x = 0)", int_alg), EMPTY_SUBST, int_alg)
        assert out == ()

    def test_exists_drops_binding(self, int_alg):
        out = storeless_eval(F("exists x. x = 1", int_alg), EMPTY_SUBST, int_alg)
        assert out == (EMPTY_SUBST,)


_FALSE_TEXTS = (
    "false",
    "~false",
    "x = 1 | false",
    "x = 1 & false",
    "false & x = 1",
    "exists y. false",
    "~(x = 1 & false)",
    "~~false",
)


@pytest.mark.parametrize("theta_text", ["{}", "{x/1}", "{x/y + 1}"])
@pytest.mark.parametrize("text", _FALSE_TEXTS)
def test_storeless_eval_reads_false_as_the_baseline_does(text, theta_text, int_alg):
    """The embedding corpus has no false; these cases reach storeless_eval's Bottom clause."""
    theta = parse_subst(theta_text, int_alg)
    phi = F(text, int_alg)
    reference = ["error" if r is ERROR else str(Pair(EMPTY_STORE, r)) for r in storeless_eval(phi, theta, int_alg)]
    out = evaluate(phi, pair((), theta), make_context(int_alg, BASELINE))
    assert [str(s) for s in out] == reference
