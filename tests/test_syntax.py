import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given

from folc.syntax import (
    And,
    App,
    BOTTOM,
    Eq,
    Exists,
    Neq,
    Not,
    Or,
    ParseError,
    Val,
    Var,
    formula_to_str,
    free_vars,
    parse_formula,
    parse_signature_decl,
    rename_free,
    term_to_str,
)
from conftest import herb_formulas, herb_terms, int_formulas, rat_formulas, rat_terms


x, y, z = Var("x"), Var("y"), Var("z")


class TestParsing:
    def test_negated_equation_conjunction(self, int_alg):
        f = parse_formula("~(x = 1) & x = 0", int_alg.signature)
        assert f == And(Not(Eq(x, Val(1))), Eq(x, Val(0)))

    def test_single_atom(self, int_alg):
        assert parse_formula("x = x", int_alg.signature) == Eq(x, x)

    def test_exists_with_disequation(self, herb):
        f = parse_formula("exists x. f(x) /= f(y)", herb.signature)
        assert f == Exists("x", Neq(App("f", (x,)), App("f", (y,))))

    def test_precedence(self, int_alg):
        f = parse_formula("x = 1 | y = 2 & z = 3", int_alg.signature)
        assert isinstance(f, Or) and isinstance(f.rhs, And)

    def test_exists_binds_tight(self, int_alg):
        f = parse_formula("exists x. x = 1 & y = 2", int_alg.signature)
        assert isinstance(f, And) and isinstance(f.lhs, Exists)

    def test_parenthesized_formula_vs_term(self, int_alg):
        f = parse_formula("(x = 1 | y = 2) & z = 3", int_alg.signature)
        assert isinstance(f, And) and isinstance(f.lhs, Or)
        g = parse_formula("(x + y) * z = 1", int_alg.signature)
        assert g == Eq(App("*", (App("+", (x, y)), z)), Val(1))

    def test_arithmetic_term_precedence(self, int_alg):
        f = parse_formula("x + y * z = 1", int_alg.signature)
        assert f.lhs == App("+", (x, App("*", (y, z))))

    def test_false_keyword(self, int_alg):
        assert parse_formula("false", int_alg.signature) is BOTTOM

    def test_rational_literals(self, rat_alg):
        from fractions import Fraction

        f = parse_formula("x = 3/2", rat_alg.signature)
        assert f == Eq(x, Val(Fraction(3, 2)))
        g = parse_formula("x = -1/2", rat_alg.signature)
        assert g == Eq(x, Val(Fraction(-1, 2)))


class TestParseErrors:
    def test_arity_mismatch(self, herb):
        with pytest.raises(ParseError, match="expects 1 argument"):
            parse_formula("f(x, y) = a", herb.signature)

    def test_reserved_fresh_prefix(self, int_alg):
        with pytest.raises(ParseError, match="may not start"):
            parse_formula("$u1 = 1", int_alg.signature)
        # internal re-parsing may opt in
        f = parse_formula("$u1 = 1", int_alg.signature, allow_fresh=True)
        assert f == Eq(Var("$u1"), Val(1))

    def test_syntax_error_carries_position(self, int_alg):
        with pytest.raises(ParseError) as err:
            parse_formula("x = ", int_alg.signature)
        assert "position" in str(err.value)

    def test_unknown_function(self, int_alg):
        with pytest.raises(ParseError, match="unknown function"):
            parse_formula("h(x) = 1", int_alg.signature)

    def test_numbers_need_arithmetic(self, herb):
        with pytest.raises(ParseError):
            parse_formula("x = 1", herb.signature)

    def test_order_relation_not_in_herbrand(self, herb):
        with pytest.raises(ParseError, match="not available"):
            parse_formula("x < y", herb.signature)

    def test_signature_decl(self):
        assert parse_signature_decl("f/1, g/2,a/0") == [("f", 1), ("g", 2), ("a", 0)]
        with pytest.raises(ParseError):
            parse_signature_decl("F/1")


class TestFreeVars:
    def test_bound_excluded(self):
        assert free_vars(Exists("x", Eq(x, y))) == {"y"}

    def test_simple(self):
        assert free_vars(Eq(x, x)) == {"x"}

    def test_bottom(self):
        assert free_vars(BOTTOM) == set()


class TestRenameFree:
    def test_plain(self):
        assert rename_free(Eq(x, Val(1)), "x", "$u1") == Eq(Var("$u1"), Val(1))

    def test_no_free_occurrence_under_binder(self):
        f = Exists("x", Eq(x, y))
        assert rename_free(f, "x", "$u1") == f

    def test_both_occurrences(self):
        f = And(Eq(x, Val(0)), Not(Eq(x, Val(1))))
        out = rename_free(f, "x", "$u2")
        u = Var("$u2")
        assert out == And(Eq(u, Val(0)), Not(Eq(u, Val(1))))

    def test_target_must_be_fresh(self):
        with pytest.raises(ValueError):
            rename_free(Eq(x, y), "x", "y")

    @given(f=int_formulas())
    def test_rename_roundtrip(self, f):
        from folc.syntax import all_names

        if "x" not in free_vars(f):
            return
        there = rename_free(f, "x", "$u9")
        if "x" in all_names(there):  # x also occurs bound: reverse is illegal
            return
        assert rename_free(there, "$u9", "x") == f


class TestRoundTrip:
    @given(f=int_formulas())
    def test_int(self, f, int_alg):
        assert parse_formula(formula_to_str(f), int_alg.signature) == f

    @given(f=rat_formulas())
    def test_rat(self, f, rat_alg):
        assert parse_formula(formula_to_str(f), rat_alg.signature) == f

    @given(f=herb_formulas())
    def test_herbrand(self, f, herb):
        assert parse_formula(formula_to_str(f), herb.signature) == f

    @given(f=rat_formulas(), t=rat_terms())
    def test_str_is_the_printer(self, f, t):
        assert str(f) == formula_to_str(f)
        assert str(t) == term_to_str(t)

    def test_str_of_leaves(self):
        assert str(x) == "x"
        assert str(Val(Fraction(3))) == "3"
        assert str(Val(Fraction(3, 2))) == "3/2"
        assert str(App("f", (x, App("a")))) == "f(x, a)"
        assert str(BOTTOM) == "false"

    def test_printing_shapes(self):
        assert formula_to_str(Not(Eq(x, Val(1)))) == "~(x = 1)"
        assert formula_to_str(Exists("x", And(Eq(x, y), Eq(y, z)))) == "exists x. (x = y & y = z)"
        assert term_to_str(App("-", (x, App("-", (y, z))))) == "x - (y - z)"
        assert term_to_str(App("-", (App("-", (x, y)), z))) == "x - y - z"
        assert term_to_str(App("*", (App("+", (x, y)), z))) == "(x + y) * z"


def _rebuild(t):
    if isinstance(t, App):
        return App(t.symbol, tuple(_rebuild(a) for a in t.args))
    return t


class TestCachedHash:
    """App caches its hash; the cache must not show in hash, ==, repr or fields()."""

    @given(herb_terms())
    def test_hash_is_the_field_hash(self, t):
        if isinstance(t, App):
            expected = hash((t.symbol, t.args))
            assert hash(t) == expected
            assert hash(t) == expected  # cached on the first call

    @given(herb_terms())
    def test_equal_terms_built_apart_agree(self, t):
        hash(t)  # one side cached, the other not
        copy = _rebuild(t)
        assert copy == t
        assert copy in {t}
        assert hash(copy) == hash(t)

    def test_fields_and_repr_unchanged(self):
        t = App("f", (App("g", (x, App("a"))),))
        before = repr(t)
        hash(t)
        assert repr(t) == before
        assert before == "App(symbol='f', args=(App(symbol='g', args=(Var(name='x'), App(symbol='a', args=()))),))"
        assert [f.name for f in dataclasses.fields(App)] == ["symbol", "args"]
