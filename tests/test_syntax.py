from fractions import Fraction

import pytest
from hypothesis import given

from folc import syntax
from folc.algebra import EMPTY_SUBST, herbrand_algebra, int_algebra
from folc.state import Pair, Store
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
    ParseError,
    Val,
    Var,
    formula_to_str,
    free_vars,
    parse_formula,
    parse_signature_decl,
    parse_substitution_pairs,
    parse_term,
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


# One input per ParseError raised in folc.syntax, with the message and
# position it has printed since before the parser became precedence climbing.
_ERROR_SITES = [
    ("decl", None, "f/1, F/2", "bad signature entry 'F/2' (at position 5)"),
    ("decl", None, "a/0,exists/1", "signature entry 'exists/1': 'exists' is a keyword (at position 4)"),
    ("decl", None, "a/0, a/1", "signature entry 'a/1': 'a' is already declared (at position 5)"),
    ("formula", "int", "x = 1 @ y", "unexpected character '@' (at position 6)"),
    ("formula", "int", "(x = 1", "expected ')', found 'end of input' (at position 6)"),
    ("formula", "int", "exists x x = 1", "expected '.', found 'x' (at position 9)"),
    ("formula", "herbrand", "f = a", "expected '(', found '=' (at position 2)"),
    ("subst", "int", "{x = 1}", "expected '/', found '=' (at position 3)"),
    ("subst", "int", "x/1", "expected '{', found 'x' (at position 0)"),
    ("subst", "int", "{x/1", "expected '}', found 'end of input' (at position 4)"),
    ("formula", "int", "x = 1 )", "unexpected ')' after formula (at position 6)"),
    ("formula", "herbrand", "x < y", "relation '<' is not available in this algebra (at position 2)"),
    ("formula", "int", "x + 1", "expected a relation, found 'end of input' (at position 5)"),
    ("formula", "int", "x = )", "expected a term, found ')' (at position 4)"),
    ("formula", "herbrand", "x = 1", "numeric literals require an arithmetic algebra (at position 4)"),
    ("formula", "rat", "x = 1/y", "expected a denominator (at position 6)"),
    ("formula", "rat", "x = 1/0", "zero denominator (at position 6)"),
    ("formula", "int", "x = false", "'false' is a keyword (at position 4)"),
    ("formula", "herbrand", "f(x, y) = a", "f expects 1 arguments, got 2 (at position 0)"),
    ("formula", "int", "h(x) = 1", "unknown function symbol 'h' (at position 0)"),
    ("formula", "int", "$u1 = 1", "variable names may not start with '$' (at position 0)"),
    ("formula", "int", "exists 1. x = 1", "expected a variable name, found '1' (at position 7)"),
    ("formula", "herbrand", "exists a. x = a", "'a' is a declared symbol, not a variable (at position 7)"),
    ("formula", "int", "exists $u1. x = 1", "variable names may not start with '$' (at position 7)"),
    ("subst", "int", "{x/1} y", "unexpected 'y' after substitution (at position 6)"),
    ("term", "int", "x y", "unexpected 'y' after term (at position 2)"),
    # Over Herbrand a "(" never holds a term: where a formula may start it holds a formula, elsewhere it is refused.
    ("formula", "herbrand", "(a) = b", "expected a relation, found ')' (at position 2)"),
    ("formula", "herbrand", "((x)) = a", "expected a relation, found ')' (at position 3)"),
    ("formula", "herbrand", "x = f((a))", "expected a term, found '(' (at position 6)"),
    ("formula", "herbrand", "x = f(false)", "'false' is a keyword (at position 6)"),
    ("formula", "herbrand", "f(~ x = a) = b", "expected a term, found '~' (at position 2)"),
]


@pytest.mark.parametrize("kind, algebra, text, message", _ERROR_SITES)
def test_parse_error_messages_are_pinned(kind, algebra, text, message, int_alg, rat_alg, herb):
    with pytest.raises(ParseError) as err:
        if kind == "decl":
            parse_signature_decl(text)
        else:
            signatures = {"int": int_alg, "rat": rat_alg, "herbrand": herb}
            parse = {"formula": parse_formula, "term": parse_term, "subst": parse_substitution_pairs}[kind]
            parse(text, signatures[algebra].signature)
    assert str(err.value) == message


class TestTokenTable:
    """Each signature keeps its own bounded table of operand tokens, and shares only leaves that read alike everywhere."""

    def test_a_fresh_name_is_refused_after_a_parse_that_allowed_it(self):
        sig = int_algebra().signature
        assert parse_formula("$u1 = 1", sig, allow_fresh=True) == Eq(Var("$u1"), Val(1))
        with pytest.raises(ParseError, match=r"variable names may not start with '\$' \(at position 0\)"):
            parse_formula("$u1 = 1", sig)
        assert parse_term("$u1", sig, allow_fresh=True) == Var("$u1")

    def test_each_signature_reads_a_name_its_own_way(self):
        ints = int_algebra().signature
        herbrand = herbrand_algebra([("f", 1), ("a", 0)]).signature
        for _ in range(3):
            assert parse_formula("f = 1", ints) == Eq(Var("f"), Val(1))
            assert parse_formula("f(a) = x", herbrand) == Eq(App("f", (App("a", ()),)), x)
            with pytest.raises(ParseError, match="unknown function symbol 'f'"):
                parse_formula("f(1) = 1", ints)
            with pytest.raises(ParseError, match="expected '\\(', found '='"):
                parse_formula("f = a", herbrand)

    def test_the_table_stops_growing_at_its_bound(self):
        sig = int_algebra().signature
        n = syntax._TABLE_BOUND // 2 + 100  # each text adds a name and a literal
        for k in range(n):
            assert parse_formula(f"v{k} = {k}", sig) == Eq(Var(f"v{k}"), Val(k))
        assert len(sig._tokens) == syntax._TABLE_BOUND
        # names past the bound are read afresh on every sight, and alike
        a, b = parse_formula(f"v{n} = {n}", sig), parse_formula(f"v{n} = {n}", sig)
        assert a == b == Eq(Var(f"v{n}"), Val(n)) and a.lhs is not b.lhs

    def test_parses_share_their_leaves(self):
        sig = int_algebra().signature
        f, g = parse_formula("x = 1", sig), parse_formula("x = 1", sig)
        assert f is not g and f.lhs is g.lhs and f.rhs is g.rhs
        assert parse_term("x", sig) is f.lhs


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

    def test_value_leaves_print_as_str_of_their_value(self):
        # ints, negative ints, integral and non-integral rationals, alone and inside compound terms
        leaves = [
            (Val(7), "7"),
            (Val(-7), "-7"),
            (Val(Fraction(4)), "4"),
            (Val(Fraction(-4)), "-4"),
            (Val(Fraction(1, 2)), "1/2"),
            (Val(Fraction(-7, 2)), "-7/2"),
        ]
        for v, text in leaves:
            assert term_to_str(v) == text
            t = App("+", (App("*", (v, x)), v))
            assert str(t) == f"{text} * x + {text}"
            f = And(Atom("<", v, y), Not(Eq(x, t)))
            printed = f"{text} < y & ~(x = {text} * x + {text})"
            assert str(f) == printed
            assert str(Store([f, Eq(y, v)])) == f"{printed}; y = {text}"
            assert str(Pair(Store([Eq(y, v)]), EMPTY_SUBST)) == f"<y = {text} | {{}}>"

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
    """Every node caches its hash when it is built; the cache must not show in hash, == or repr."""

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
        assert repr(Exists("x", Not(Eq(x, Val(1))))) == (
            "Exists(var='x', body=Not(body=Eq(lhs=Var(name='x'), rhs=Val(value=1))))"
        )
        assert repr(Atom("<", x, y)) == "Atom(rel='<', lhs=Var(name='x'), rhs=Var(name='y'))"
        assert repr(BOTTOM) == "Bottom()"
        assert t == App("f", (App("g", (x, App("a"))),)) and t != App("f", (App("g", (x, App("b"))),))
        assert Eq(x, y) != Neq(x, y) and Eq(x, y).__eq__(Neq(x, y)) is NotImplemented
        for node in (x, Val(2), t, Atom("<", x, y), Eq(x, y), Neq(x, y), Not(BOTTOM), And(BOTTOM, BOTTOM),
                     Or(BOTTOM, BOTTOM), Exists("x", BOTTOM), BOTTOM):
            assert hash(node) == hash(tuple(getattr(node, name) for name in node._fields))
        # a node class without __slots__ of its own would get an instance dict
        classes = [syntax.Term, syntax.Formula]
        while classes:
            cls = classes.pop()
            assert "__slots__" in vars(cls), cls.__name__
            classes.extend(cls.__subclasses__())


def _same_tree(a, b) -> bool:
    """== on syntax trees by a walk of its own over _fields, so that it does not test == with ==."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, tuple):
            if len(a) != len(b):
                return False
            stack.extend(zip(a, b))
        elif isinstance(a, (syntax.Term, syntax.Formula)):
            stack.extend((getattr(a, name), getattr(b, name)) for name in a._fields)
        elif a != b:
            return False
    return True


class TestDeepInputs:
    """The parser and printer take no Python frame per level: these run at the default recursion limit."""

    def round_trip(self, text, signature):
        f = parse_formula(text, signature)
        printed = formula_to_str(f)
        assert _same_tree(parse_formula(printed, signature), f)
        return f, printed

    def test_long_conjunction(self, int_alg):
        text = " & ".join(f"x_{i} = {i}" for i in range(5000))
        f, printed = self.round_trip(text, int_alg.signature)
        assert printed == text
        assert isinstance(f, And) and f.rhs == Eq(Var("x_4999"), Val(4999))

    def test_nested_negations(self, int_alg):
        f, printed = self.round_trip("~" * 5000 + "x = 1", int_alg.signature)
        assert printed == "~" * 4999 + "~(x = 1)"

    def test_nested_parentheses(self, int_alg, herb):
        for signature in (int_alg.signature, herb.signature):
            assert parse_formula("(" * 400 + "x = y" + ")" * 400, signature) == Eq(x, y)
        assert parse_formula("(" * 400 + "x" + ")" * 400 + " = 1", int_alg.signature) == Eq(x, Val(1))

    def test_deep_term(self, herb):
        text = "f(" * 8000 + "x" + ")" * 8000
        t = parse_term(text, herb.signature)
        assert term_to_str(t) == text
        assert _same_tree(parse_term(term_to_str(t), herb.signature), t)
        f, printed = self.round_trip(f"{text} = a", herb.signature)
        assert printed == f"{text} = a"


def _conjunction(n, last=None):
    f = Eq(Var("x0"), Val(0))
    for i in range(1, n):
        f = And(f, Eq(Var(f"x{i}"), Val(i) if last is None or i < n - 1 else last))
    return f


def _spine(n, leaf):
    t = leaf
    for _ in range(n):
        t = App("f", (t,))
    return t


class TestNodeEquality:
    """hash and == take no Python frame per level and never trust a hash match alone."""

    def test_long_conjunction_built_twice(self):
        a, b = _conjunction(5000), _conjunction(5000)
        assert a is not b and hash(a) == hash(b) and a == b
        assert a != _conjunction(5000, last=Val(-1))
        assert _conjunction(5000, last=Val(-1)) != _conjunction(5000, last=Val(-2))
        assert len({a, b, _conjunction(5000)}) == 1

    def test_deep_term_built_twice(self):
        a, b = _spine(8000, x), _spine(8000, x)
        assert a is not b and hash(a) == hash(b) and a == b
        assert a != _spine(8000, y)
        assert _spine(8000, Val(-1)) != _spine(8000, Val(-2))
        assert Eq(a, x) == Eq(b, x) and Not(Eq(a, x)) != Not(Eq(_spine(8000, y), x))

    def test_a_hash_match_is_not_equality(self):
        one, two = Val(-1), Val(-2)
        assert hash(one) == hash(two)  # CPython: hash(-1) == hash(-2)
        assert one != two and not one == two
        f, g = Eq(one, x), Eq(two, x)
        assert hash(f) == hash(g)
        # every node-valued field of every class, each on its own
        pairs = [
            (App("h", (one, x)), App("h", (two, x))),
            (App("h", (x, one)), App("h", (x, two))),
            (Atom("<", one, x), Atom("<", two, x)),
            (Atom("<", x, one), Atom("<", x, two)),
            (Eq(x, one), Eq(x, two)),
            (Neq(one, x), Neq(two, x)),
            (Neq(x, one), Neq(x, two)),
            (Not(f), Not(g)),
            (And(f, BOTTOM), And(g, BOTTOM)),
            (And(BOTTOM, f), And(BOTTOM, g)),
            (Or(f, BOTTOM), Or(g, BOTTOM)),
            (Or(BOTTOM, f), Or(BOTTOM, g)),
            (Exists("x", f), Exists("x", g)),
            (f, g),
        ]
        for a, b in pairs:
            assert hash(a) == hash(b), a
            assert a != b and b != a, a
        assert Store((f,)) != Store((g,))
        assert g not in Store((f,)) and Store((f,)).add(g).items == (f, g)
        assert Pair(Store((f,)), EMPTY_SUBST) != Pair(Store((g,)), EMPTY_SUBST)


class _CountedTokens(list):
    """A token list that counts the reads the parser makes of it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for t in super().__iter__():
            self.reads += 1
            yield t


@pytest.mark.parametrize("shape", ["{}x = 1{}", "{}x{} = 1"], ids=["formula", "term"])
def test_nested_parentheses_parse_in_linear_steps(monkeypatch, int_alg, shape):
    """Each "(" is read as a term or a formula at once; trying one and backtracking was quadratic."""
    scan = syntax._scan
    scanned = []
    def counted_scan(text):
        scanned.append(_CountedTokens(scan(text)))
        return scanned[-1]

    monkeypatch.setattr(syntax, "_scan", counted_scan)

    def reads(n):
        scanned.clear()
        parse_formula(shape.format("(" * n, ")" * n), int_alg.signature)
        return scanned[0].reads

    small, large = reads(200), reads(400)
    assert large <= 2.5 * small, (small, large)
