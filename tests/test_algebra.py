import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folc.algebra import (
    EMPTY_SUBST,
    JSubst,
    apply_subst,
    atom_truth,
    compose,
    j_eval,
    literal_truth,
    make_subst,
    parse_subst,
)
from folc import syntax
from folc.syntax import App, Atom, Eq, Neq, Val, Var, parse_term
from conftest import int_terms

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
        assert [f.name for f in dataclasses.fields(JSubst)] == ["bindings"]

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


def truth(f, theta, J):
    """atom_truth of f, checked against literal_truth, which decides atoms through it."""
    value = atom_truth(f, theta, J)
    assert literal_truth(f, theta, J) is value
    return value


class TestAtomTruth:
    def test_true(self, int_alg):
        theta = parse_subst("{y/1, z/2}", int_alg)
        assert truth(Atom("<", (y, z)), theta, int_alg) is True
        assert truth(Eq(z, App("+", (y, y))), theta, int_alg) is True

    def test_non_ground(self, int_alg):
        theta = parse_subst("{y/1}", int_alg)
        assert truth(Atom("<", (y, z)), theta, int_alg) is None
        assert truth(Eq(y, z), theta, int_alg) is None
        assert truth(Eq(z, y), theta, int_alg) is None

    def test_false(self, int_alg):
        assert truth(Atom("<", (Val(1), Val(1))), EMPTY_SUBST, int_alg) is False
        assert truth(Eq(Val(1), Val(2)), EMPTY_SUBST, int_alg) is False

    def test_diseq_is_an_atom(self, herb):
        a, b = App("a", ()), App("b", ())
        assert truth(Neq(a, b), EMPTY_SUBST, herb) is True
        assert truth(Eq(a, b), EMPTY_SUBST, herb) is False
        assert truth(Eq(App("f", (x,)), App("f", (a,))), parse_subst("{x/a}", herb), herb) is True
