import random
import sys
from fractions import Fraction
from types import FunctionType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folc.algebra import (
    EMPTY_SUBST,
    JSubst,
    apply_subst,
    atom_truth,
    compose,
    eval_ground,
    herbrand_algebra,
    int_algebra,
    j_eval,
    literal_truth,
    make_subst,
    parse_subst,
    rat_algebra,
)
from folc import infer, semantics, state, syntax
from folc.cli import state_to_json
from folc.syntax import App, Atom, Eq, Neq, Val, Var, _apply_app, parse_formula, parse_term, term_vars
from conftest import herb_terms, int_terms, rat_terms

x, y, z = Var("x"), Var("y"), Var("z")


def T(text, J):
    return parse_term(text, J.signature)


class TestJEval:
    def test_maximal_ground_subterm(self, int_alg):
        assert j_eval(T("(1 + 2) + x", int_alg), int_alg) == App("+", (Val(3), x))

    def test_herbrand_identity(self, herb):
        t = T("f(a)", herb)
        assert j_eval(t, herb) is t

    def test_no_ground_subterm(self, int_alg):
        t = T("y - 1", int_alg)
        assert j_eval(t, int_alg) == t

    @given(t=int_terms())
    def test_idempotent(self, t, int_alg):
        once = j_eval(t, int_alg)
        assert j_eval(once, int_alg) == once

    @given(t=int_terms())
    def test_fixpoint_comes_back_as_itself(self, t, int_alg):
        once = j_eval(t, int_alg)
        assert j_eval(once, int_alg) is once

    @given(t=int_terms())
    def test_matches_the_rebuilding_walk(self, t, int_alg):
        assert j_eval(t, int_alg) == _ref_j_eval(t, int_alg)

    @given(t=int_terms())
    def test_ground_coincidence(self, t, int_alg):
        from folc.syntax import term_vars

        if term_vars(t):
            return
        theta = make_subst([("x", Val(2)), ("y", Val(-1))], int_alg)
        assert j_eval(apply_subst(t, theta), int_alg) == j_eval(t, int_alg)


class TestApplySubst:
    def test_values_not_reevaluated(self, int_alg):
        theta = make_subst([("z", T("x + 2", int_alg))], int_alg)
        assert apply_subst(T("z - 1", int_alg), theta) == App("-", (App("+", (x, Val(2))), Val(1)))

    def test_unbound_untouched(self, int_alg):
        theta = make_subst([("y", Val(1))], int_alg)
        assert apply_subst(x, theta) == x

    def test_herbrand(self, herb):
        theta = make_subst([("x", App("a", ())), ("y", App("b", ()))], herb)
        assert apply_subst(T("g(x, b)", herb), theta) == T("g(a, b)", herb)

    def test_one_walk_shared_with_syntax(self):
        assert apply_subst is syntax.apply_subst

    @given(int_terms(), st.lists(st.tuples(st.sampled_from("xyz"), int_terms()), max_size=3))
    def test_dict_and_jsubst_agree(self, t, pairs):
        theta = JSubst(tuple(sorted(dict(pairs).items())))
        assert apply_subst(t, theta) == apply_subst(t, dict(theta.bindings))
        assert apply_subst(t, theta) == _ref_apply(t, theta)

    @given(int_terms(), st.lists(st.tuples(st.sampled_from("uvwxyz"), int_terms()), max_size=4))
    def test_untouched_term_comes_back_as_itself(self, t, pairs):
        theta = JSubst(tuple(sorted((n, v) for n, v in dict(pairs).items() if n not in term_vars(t))))
        assert apply_subst(t, theta) is t

    def test_shared_subterm_rewritten_once(self):
        shared = App("f", (x,))
        out = apply_subst(App("g", (shared, shared)), {"x": App("a", ())})
        assert out == App("g", (App("f", (App("a", ()),)),) * 2)
        assert out.args[0] is out.args[1]


class TestCompose:
    def test_chain_evaluates(self, int_alg):
        theta = make_subst([("x", T("z - 1", int_alg))], int_alg)
        eta = make_subst([("z", Val(3))], int_alg)
        assert compose(theta, eta, int_alg) == make_subst([("x", Val(2)), ("z", Val(3))], int_alg)

    def test_identity_both_sides(self, int_alg):
        theta = parse_subst("{x/1, y/z - 1}", int_alg)
        assert compose(EMPTY_SUBST, theta, int_alg) == theta
        assert compose(theta, EMPTY_SUBST, int_alg) == theta

    def test_example_chain_link(self, int_alg):
        # the link that finishes {x/1, y/z-1} once z gets its value
        theta = parse_subst("{x/1, y/z - 1}", int_alg)
        eta = make_subst([("z", j_eval(apply_subst(T("x + 2", int_alg), theta), int_alg))], int_alg)
        assert compose(theta, eta, int_alg) == parse_subst("{x/1, y/2, z/3}", int_alg)

    @given(data=st.data())
    def test_associative(self, data, int_alg):
        def some_subst():
            pairs = []
            for name in ("x", "y", "z"):
                if data.draw(st.booleans()):
                    pairs.append((name, data.draw(int_terms())))
            try:
                return make_subst(pairs, int_alg)
            except ValueError:
                return EMPTY_SUBST

        a, b, c = some_subst(), some_subst(), some_subst()
        left = compose(compose(a, b, int_alg), c, int_alg)
        right = compose(a, compose(b, c, int_alg), int_alg)
        assert left == right


# ---------------------------------------------------------------------------
# compose against the reference that rebuilds every binding


def _ref_apply(t, theta):
    if isinstance(t, Var):
        v = theta.get(t.name)
        return t if v is None else v
    if isinstance(t, App):
        return App(t.symbol, tuple(_ref_apply(a, theta) for a in t.args))
    return t


def _ref_j_eval(t, J):
    if J.numeric is None or not isinstance(t, App):
        return t
    args = tuple(_ref_j_eval(a, J) for a in t.args)
    if all(isinstance(a, Val) for a in args):
        return Val(J.functions[t.symbol](*[a.value for a in args]))
    return App(t.symbol, args)


def reference_compose(theta, eta, J):
    """compose before it became incremental: every binding re-walked, the result sorted anew."""
    out = {}
    dom = set(theta.domain())
    for name, t in theta.bindings:
        v = _ref_j_eval(_ref_apply(t, eta), J)
        if v != Var(name):
            out[name] = v
    for name, t in eta.bindings:
        if name not in dom:
            out[name] = t
    return JSubst(tuple(sorted(out.items())))


def check_compose(theta, eta, J):
    """compose(theta, eta) agrees with the reference, is normal, and shares what eta leaves alone."""
    got = compose(theta, eta, J)
    want = reference_compose(theta, eta, J)
    assert got.bindings == want.bindings
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    names = [n for n, _ in got.bindings]
    assert names == sorted(set(names))
    for name, v in got.bindings:
        assert v != Var(name)
        assert j_eval(v, J) is v
    for name, v in theta.bindings:
        if not term_vars(v) & set(eta.domain()):
            assert got.get(name) is v
    # The caches compose carries over equal the ones computed afresh.
    fresh = JSubst(got.bindings)
    assert got._mapping == fresh._mapping
    assert got._value_vars == fresh._value_vars
    return got


_COMPOSE_ALGEBRAS = {
    "int": (int_algebra(), int_terms),
    "rat": (rat_algebra(), rat_terms),
    "herbrand": (herbrand_algebra([("f", 1), ("g", 2), ("a", 0), ("b", 0), ("c", 0)]), herb_terms),
}


def _substs(J, terms):
    """Normal substitutions over u..z: values mention only x, y, z, so u, v, w are never mentioned."""
    pairs = st.dictionaries(st.sampled_from("uvwxyz"), terms(), max_size=4)
    return pairs.map(lambda d: make_subst(sorted(d.items()), J))


class TestComposeAgainstReference:
    @pytest.mark.parametrize("alg", sorted(_COMPOSE_ALGEBRAS))
    @given(data=st.data())
    def test_chains_of_compose(self, alg, data):
        J, terms = _COMPOSE_ALGEBRAS[alg]
        theta = data.draw(_substs(J, terms))
        for eta in data.draw(st.lists(_substs(J, terms), min_size=1, max_size=3)):
            theta = check_compose(theta, eta, J)

    @pytest.mark.parametrize(
        "alg, theta, eta, expected",
        [
            ("int", "{x/y + 1, z/2}", "{y/3}", "{x/4, y/3, z/2}"),  # eta's domain mentioned
            ("int", "{x/y + 1}", "{u/3}", "{u/3, x/y + 1}"),  # not mentioned
            ("rat", "{x/1/2, y/z * 2}", "{x/5, z/1/4}", "{x/1/2, y/1/2, z/1/4}"),  # overlapping domains
            ("int", "{x/y}", "{y/x}", "{y/x}"),  # x/x collapses and is dropped
            ("herbrand", "{x/f(y), z/g(y, a)}", "{y/f(a)}", "{x/f(f(a)), y/f(a), z/g(f(a), a)}"),
            ("herbrand", "{x/f(y)}", "{y/g(z, z), z/a}", "{x/f(g(z, z)), y/g(z, z), z/a}"),
        ],
    )
    def test_cases(self, alg, theta, eta, expected):
        J, _ = _COMPOSE_ALGEBRAS[alg]
        got = check_compose(parse_subst(theta, J), parse_subst(eta, J), J)
        assert str(got) == expected

    def test_collapse_after_a_reinserted_value_vars_key(self):
        # The first compose re-inserts p into _value_vars, so the second one
        # visits r, s, p, w: not name order.  Both r/r and p/p collapse, and
        # each is deleted at the index it has when it is found.
        J = herbrand_algebra([("f", 1), ("k", 0)])
        theta = check_compose(parse_subst("{p/w, r/v, s/f(q)}", J), parse_subst("{w/y}", J), J)
        got = check_compose(theta, parse_subst("{y/p, v/r}", J), J)
        assert str(got) == "{s/f(q), v/r, w/p, y/p}"

    def test_untouched_bindings_keep_their_objects(self, int_alg):
        theta = parse_subst("{w/u * u + 1, x/y + 1}", int_alg)
        got = compose(theta, parse_subst("{y/2}", int_alg), int_alg)
        assert got.get("w") is theta.get("w")
        assert compose(theta, EMPTY_SUBST, int_alg) is theta


def _random_term(rng, J, pool, depth):
    """A term over x, y, z and J's constants; a third of the compound nodes reuse one from pool."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Var(rng.choice("xyz"))
        if J.numeric is None:
            return App(rng.choice("abc"), ())
        return Val(rng.randint(-3, 3) if J.numeric == "int" else Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    if J.numeric is None:
        symbol = rng.choice("fg")
        args = tuple(_random_term(rng, J, pool, depth - 1) for _ in range(1 if symbol == "f" else 2))
    else:
        symbol = rng.choice("+-*")
        args = (_random_term(rng, J, pool, depth - 1), _random_term(rng, J, pool, depth - 1))
    t = App(symbol, args)
    pool.append(t)
    return t


@pytest.mark.parametrize("alg", sorted(_COMPOSE_ALGEBRAS))
def test_one_walk_substitutes_and_evaluates(alg):
    """_apply_app with J's functions is j_eval after apply_subst; eval_ground reads a value in one walk.

    Seeded, 2,000 cases per algebra; terms share subterms, so the memo is
    read as well as filled.
    """
    J, _ = _COMPOSE_ALGEBRAS[alg]
    functions = None if J.numeric is None else J.functions
    rng = random.Random(29)
    for _ in range(2000):
        pool = []
        t = _random_term(rng, J, pool, 4)
        names = rng.sample("xyzw", rng.randint(0, 3))
        theta = make_subst([(n, _random_term(rng, J, pool, 2)) for n in names], J)
        want = _ref_j_eval(_ref_apply(t, theta), J)
        got = _apply_app(t, theta, {}, functions) if isinstance(t, App) else j_eval(apply_subst(t, theta), J)
        assert got == want
        assert (got is t) == (want == t)
        plain = apply_subst(t, theta)
        assert plain == _ref_apply(t, theta)
        assert (plain is t) == (plain == t)
        value = eval_ground(plain, J)
        assert (value is None) == bool(term_vars(plain))
        if value is not None:
            assert (Val(value) if J.numeric else value) == want


def check_caches(got, bindings):
    """got holds exactly these bindings, and its carried caches equal the ones computed afresh."""
    fresh = JSubst(bindings)
    assert got.bindings == bindings
    assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
    assert got._mapping == fresh._mapping
    assert got._value_vars == fresh._value_vars


def _composed(data, alg):
    """A substitution from make_subst, composed with up to two more, so it may carry caches.

    Hashing one in between lets the rest carry the hash by difference.
    """
    J, terms = _COMPOSE_ALGEBRAS[alg]
    theta = data.draw(_substs(J, terms))
    for eta in data.draw(st.lists(_substs(J, terms), max_size=2)):
        if data.draw(st.booleans()):
            hash(theta)
        theta = compose(theta, eta, J)
    if data.draw(st.booleans()):
        hash(theta)
    return theta


class TestDropKeepsCaches:
    @pytest.mark.parametrize("alg", sorted(_COMPOSE_ALGEBRAS))
    @given(data=st.data())
    def test_drop_subst(self, alg, data):
        theta = _composed(data, alg)
        for u in "uvwxyz":
            got = state.drop_subst(u, theta)
            check_caches(got, tuple(p for p in theta.bindings if p[0] != u))
            if theta.get(u) is None:
                assert got is theta

    @pytest.mark.parametrize("alg", sorted(_COMPOSE_ALGEBRAS))
    @given(data=st.data())
    def test_drop_state(self, alg, data):
        theta = _composed(data, alg)
        for u in "xyz":
            sigma = state.pair([Neq(Var(u), Var("v"))], theta)
            removed = {u} | {n for n, t in theta.bindings if u in term_vars(t)}
            got = state.drop_state(u, sigma).subst
            check_caches(got, tuple(p for p in theta.bindings if p[0] not in removed))


def test_without_computes_no_cache_its_input_lacks(int_alg):
    theta = parse_subst("{x/y + 1, z/2}", int_alg)
    got = theta.without(("z",))
    assert got._vars is None and got._hash is None
    check_caches(got, theta.bindings[:1])


def test_disjunction_chain_answers_hash_apart(int_alg):
    """Sums of raw pair hashes collide: the 1,024 answers gave under 200 distinct ones."""
    phi = parse_formula(" & ".join(f"(x{i} = 3 | x{i} = 4)" for i in range(10)), int_alg.signature)
    ctx = semantics.make_context(int_alg, infer.ATOMS)
    answers = semantics.evaluate(phi, state.pair((), EMPTY_SUBST), ctx)
    assert len(answers) == 1024
    assert len({hash(s.subst) for s in answers}) == 1024


class TestSubstNormalForm:
    def test_identity_binding_dropped(self, int_alg):
        assert make_subst([("x", Var("x"))], int_alg) == EMPTY_SUBST

    def test_values_evaluated(self, int_alg):
        theta = make_subst([("x", T("1 + 2", int_alg))], int_alg)
        assert theta.get("x") == Val(3)

    def test_duplicate_rejected(self, int_alg):
        with pytest.raises(ValueError):
            make_subst([("x", Val(1)), ("x", Val(2))], int_alg)

    def test_printing(self, int_alg):
        assert str(parse_subst("{y/2, x/1}", int_alg)) == "{x/1, y/2}"
        assert str(EMPTY_SUBST) == "{}"

    def test_get_cache_is_invisible(self, int_alg):
        theta = parse_subst("{x/1, y/z + 1}", int_alg)
        fresh = JSubst(theta.bindings)
        assert theta.get("y") == App("+", (z, Val(1)))
        assert theta == fresh and hash(theta) == hash(fresh)
        assert repr(theta) == repr(fresh)

    @given(st.lists(st.tuples(st.sampled_from("uvwxyz"), int_terms()), max_size=6))
    def test_get_agrees_with_the_bindings(self, pairs):
        theta = JSubst(tuple(sorted(dict(pairs).items())))
        bound = dict(theta.bindings)
        for name in "uvwxyz":
            assert theta.get(name) == bound.get(name)
            assert (theta.get(name) is None) == (name not in bound)

    def test_fraction_printing(self, rat_alg):
        theta = make_subst([("x", Val(Fraction(3, 2)))], rat_alg)
        assert str(theta) == "{x/3/2}"
        assert parse_subst("{x/3/2}", rat_alg) == theta


def _pair_of(bindings, store=()):
    return state.Pair(state.Store(store), JSubst(bindings))


class TestSubstPrinter:
    """str of a substitution and of a state: leaves, numbers and parentheses."""

    def test_int_leaves(self):
        theta = JSubst([("y", Val(-2)), ("x", Val(1)), ("w", Val(0)), ("v", z)])
        assert str(theta) == "{v/z, w/0, x/1, y/-2}"

    def test_fractions_over_rat(self):
        values = [Fraction(4), Fraction(-3), Fraction(3, 2), Fraction(-1, 3)]
        theta = JSubst(zip("uvwx", map(Val, values)))
        assert str(theta) == "{u/4, v/-3, w/3/2, x/-1/3}"

    def test_herbrand_constants_and_nesting(self, herb):
        a = App("a", ())
        theta = JSubst(
            [("x", a), ("y", T("f(f(g(a, f(z))))", herb)), ("z", T("g(f(b), g(x, c))", herb))]
        )
        assert str(theta) == "{x/a, y/f(f(g(a, f(z)))), z/g(f(b), g(x, c))}"

    def test_a_herbrand_constant_value_reads_alike_through_every_reader(self, herb):
        a = App("a", ())
        theta = JSubst([("y", T("f(a)", herb)), ("x", a)])
        sigma = state.Pair(state.EMPTY_STORE, theta)
        assert str(a) == "a"
        assert str(sigma) == "<{} | {x/a, y/f(a)}>"
        assert repr(theta) == (
            "JSubst(bindings=(('x', App(symbol='a', args=())), "
            "('y', App(symbol='f', args=(App(symbol='a', args=()),)))))"
        )
        assert theta.domain() == ("x", "y")
        assert state_to_json(sigma) == {"store": [], "subst": {"x": "a", "y": "f(a)"}}

    def test_bindings_sort_by_name_string(self):
        # digit counts differ: $u10 sorts before $u9, as strings do
        theta = JSubst([("x", Val(1)), ("$u9", Val(2)), ("$u10", x)])
        assert [n for n, _ in theta.bindings] == ["$u10", "$u9", "x"]
        assert theta.domain() == ("$u10", "$u9", "x")
        assert str(theta) == "{$u10/x, $u9/2, x/1}"

    def test_sums_that_need_parentheses(self):
        one, half = Val(1), Val(Fraction(1, 2))
        theta = JSubst(
            [
                ("a", App("-", (x, App("-", (y, one))))),
                ("b", App("*", (App("+", (x, one)), y))),
                ("c", App("*", (x, App("*", (y, z))))),
                ("d", App("+", (App("+", (x, y)), z))),
                ("e", App("*", (half, App("-", (x, Val(Fraction(-2))))))),
            ]
        )
        assert str(theta) == (
            "{a/x - (y - 1), b/(x + 1) * y, c/x * (y * z), d/x + y + z, e/1/2 * (x - -2)}"
        )

    def test_pairs(self):
        sigma = _pair_of([("y", App("+", (z, Val(-1)))), ("x", Val(3))], [Eq(x, y), Atom("<", y, z)])
        assert str(sigma) == "<x = y; y < z | {x/3, y/z + -1}>"
        assert str(_pair_of([("x", Val(Fraction(5, 2)))])) == "<{} | {x/5/2}>"
        assert str(_pair_of([])) == "<{} | {}>"

    @given(
        st.dictionaries(
            st.sampled_from("uvwxyz"), st.one_of(int_terms(), rat_terms(), herb_terms()), max_size=6
        )
    )
    def test_each_binding_prints_as_its_term(self, mapping):
        theta = JSubst(mapping.items())
        want = ", ".join(f"{n}/{syntax.term_to_str(t)}" for n, t in sorted(mapping.items()))
        assert str(theta) == "{" + want + "}"
        assert str(state.Pair(state.EMPTY_STORE, theta)) == "<{} | {" + want + "}>"


def test_herbrand_signature_without_a_constant_is_rejected():
    with pytest.raises(ValueError, match="no constant, so the Herbrand universe is empty"):
        herbrand_algebra([("f", 1), ("g", 2)])


@pytest.mark.parametrize("name", ["int_alg", "rat_alg", "herb"])
def test_tables_cover_the_signature(name, request):
    # A symbol the parser accepts must have an operation: a missing one
    # would surface as a KeyError in the middle of an evaluation.
    J = request.getfixturevalue(name)
    assert J.functions.keys() == J.signature.functions.keys()
    assert J.relations.keys() == set(J.signature.relations) | {"=", "/="}


def test_herbrand_operations_build_their_terms(herb):
    a, b = App("a", ()), App("b", ())
    assert herb.functions["a"]() == a
    assert herb.functions["f"](a) == App("f", (a,))
    assert herb.functions["g"](a, b) == T("g(a, b)", herb)


def truth(f, theta, J):
    """atom_truth of f, checked against literal_truth, which decides atoms through it."""
    value = atom_truth(f, theta, J)
    assert literal_truth(f, theta, J) is value
    return value


class TestAtomTruth:
    def test_true(self, int_alg):
        theta = parse_subst("{y/1, z/2}", int_alg)
        assert truth(Atom("<", y, z), theta, int_alg) is True
        assert truth(Eq(z, App("+", (y, y))), theta, int_alg) is True

    def test_non_ground(self, int_alg):
        theta = parse_subst("{y/1}", int_alg)
        assert truth(Atom("<", y, z), theta, int_alg) is None
        assert truth(Eq(y, z), theta, int_alg) is None
        assert truth(Eq(z, y), theta, int_alg) is None

    def test_false(self, int_alg):
        assert truth(Atom("<", Val(1), Val(1)), EMPTY_SUBST, int_alg) is False
        assert truth(Eq(Val(1), Val(2)), EMPTY_SUBST, int_alg) is False

    def test_diseq_is_an_atom(self, herb):
        a, b = App("a", ()), App("b", ())
        assert truth(Neq(a, b), EMPTY_SUBST, herb) is True
        assert truth(Eq(a, b), EMPTY_SUBST, herb) is False
        assert truth(Eq(App("f", (x,)), App("f", (a,))), parse_subst("{x/a}", herb), herb) is True


# ---------------------------------------------------------------------------
# Scaling, counted in calls rather than seconds


def _count_calls(monkeypatch, names):
    """Count the calls of the named syntax functions, recursion included.

    Wraps them at every module binding, by identity over the loaded folc
    modules, as bench/tracing.py does.
    """
    modules = [m for name, m in sys.modules.items() if name == "folc" or name.startswith("folc.")]
    walk = {f for f in vars(syntax).values() if isinstance(f, FunctionType) and f.__name__ in names}
    count = [0]

    def counting(f):
        def wrapper(*args):
            count[0] += 1
            return f(*args)

        return wrapper

    wrappers = {f: counting(f) for f in walk}
    for m in modules:
        for attr, value in list(vars(m).items()):
            if isinstance(value, FunctionType) and value in wrappers:
                monkeypatch.setattr(m, attr, wrappers[value])
    return count


def _chain_calls(count, policy, J, link, n):
    phi = parse_formula(" & ".join(link.format(i, i + 1) for i in range(n)), J.signature)
    ctx = semantics.make_context(J, infer.get_policy(policy))
    count[0] = 0
    answers = semantics.evaluate(phi, state.pair((), EMPTY_SUBST), ctx)
    assert len(answers) == 1 and len(answers[0].store) == 0
    return count[0]


@pytest.mark.parametrize(
    "policy, link",
    [("unify", "x{} = f(x{})"), ("linear", "x{} = x{} + 1")],
    ids=["unify", "linear"],
)
def test_chain_walk_calls_grow_at_most_quadratically(monkeypatch, herb, rat_alg, policy, link):
    J = herb if policy == "unify" else rat_alg
    count = _count_calls(monkeypatch, ("apply_subst", "_apply_app"))
    small = _chain_calls(count, policy, J, link, 100)
    large = _chain_calls(count, policy, J, link, 200)
    assert large <= 4.5 * small, (small, large)


def test_existential_chain_value_walks_grow_linearly(monkeypatch, herb):
    """Dropping u keeps the substitution's caches, so compose does not walk every value again."""
    count = _count_calls(monkeypatch, ("term_vars",))
    link = "(exists u. x{} = f(u) & u = f(x{}))"
    small = _chain_calls(count, "unify", herb, link, 100)
    large = _chain_calls(count, "unify", herb, link, 200)
    assert large <= 2.5 * small, (small, large)
