"""The recursive-descent parser and recursive printer folc shipped before its
explicit-stack ones.

Kept as the reference for tests/test_parser_reference.py: the two
parsers must build equal trees, or both reject, on the same input, and the
two printers must print the same text.  This parser reads a `(` in formula
position by trying a term first and backtracking, so deep parentheses cost
it quadratic time; both it and the printer recurse once per nesting level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from folc.syntax import (
    BOTTOM,
    FRESH_PREFIX,
    And,
    App,
    Atom,
    Bottom,
    Eq,
    Exists,
    Formula,
    Neq,
    Not,
    Or,
    ParseError,
    Signature,
    Term,
    Val,
    Var,
)

_TOKEN_RE = re.compile(
    r"\s+|(?P<number>\d+)|(?P<ident>\$?[a-z][a-z0-9_]*)"
    r"|(?P<op><=|/=|[()=<>~&|.,+\-*/{};])"
)

_KEYWORDS = ("exists", "false")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, signature: Signature, allow_fresh: bool = False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = signature
        self.allow_fresh = allow_fresh

    # token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    # formulas ------------------------------------------------------------

    def formula(self) -> Formula:
        f = self.disj()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.pos)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.at_op("|"):
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.at_op("&"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "~":
            self.next()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text == "exists":
            self.next()
            name = self.var_name()
            self.expect(".")
            return Exists(name, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "false":
            self.next()
            return BOTTOM
        if tok.kind == "op" and tok.text == "(":
            # "(" may open a parenthesised term ("(x + y) * z = 1") or a
            # parenthesised formula; try the term reading first and backtrack.
            mark = self.pos
            try:
                return self.infix_atom()
            except ParseError:
                self.pos = mark
            self.next()
            f = self.disj()
            self.expect(")")
            return f
        return self.infix_atom()

    def infix_atom(self) -> Formula:
        lhs = self.term()
        tok = self.next()
        if tok.text == "=":
            return Eq(lhs, self.term())
        if tok.text == "/=":
            return Neq(lhs, self.term())
        if tok.text in ("<", "<="):
            if tok.text not in self.sig.relations:
                raise ParseError(f"relation {tok.text!r} is not available in this algebra", tok.pos)
            return Atom(tok.text, lhs, self.term())
        raise ParseError(f"expected a relation, found {tok.text or 'end of input'!r}", tok.pos)

    # terms ---------------------------------------------------------------

    def term(self) -> Term:
        if self.sig.numeric is None:
            return self.primary()
        t = self.mult()
        while self.at_op("+", "-"):
            op = self.next().text
            t = App(op, (t, self.mult()))
        return t

    def mult(self) -> Term:
        t = self.primary()
        while self.at_op("*"):
            self.next()
            t = App("*", (t, self.primary()))
        return t

    def primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            return self.number(negative=False)
        if tok.kind == "op" and tok.text == "-" and self.tokens[self.pos + 1].kind == "number":
            self.next()
            return self.number(negative=True)
        if tok.kind == "op" and tok.text == "(" and self.sig.numeric is not None:
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if tok.kind == "ident":
            return self.ident_term()
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    def number(self, negative: bool) -> Term:
        tok = self.next()
        if self.sig.numeric is None:
            raise ParseError("numeric literals require an arithmetic algebra", tok.pos)
        num = -int(tok.text) if negative else int(tok.text)
        if self.sig.numeric == "rat":
            if self.at_op("/"):
                self.next()
                den = self.next()
                if den.kind != "number":
                    raise ParseError("expected a denominator", den.pos)
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                return Val(Fraction(num, int(den.text)))
            return Val(Fraction(num))
        return Val(num)

    def ident_term(self) -> Term:
        tok = self.next()
        name = tok.text
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is a keyword", tok.pos)
        if name in self.sig.functions:
            arity = self.sig.functions[name]
            if arity == 0:
                return App(name, ())
            self.expect("(")
            args = self.term_list()
            self.expect(")")
            if len(args) != arity:
                raise ParseError(f"{name} expects {arity} arguments, got {len(args)}", tok.pos)
            return App(name, tuple(args))
        if self.at_op("("):
            raise ParseError(f"unknown function symbol {name!r}", tok.pos)
        if name.startswith(FRESH_PREFIX) and not self.allow_fresh:
            raise ParseError(f"variable names may not start with {FRESH_PREFIX!r}", tok.pos)
        return Var(name)

    def var_name(self) -> str:
        tok = self.next()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            raise ParseError(f"expected a variable name, found {tok.text!r}", tok.pos)
        if tok.text in self.sig.functions:
            raise ParseError(f"{tok.text!r} is a declared symbol, not a variable", tok.pos)
        if tok.text.startswith(FRESH_PREFIX) and not self.allow_fresh:
            raise ParseError(f"variable names may not start with {FRESH_PREFIX!r}", tok.pos)
        return tok.text

    def term_list(self) -> list[Term]:
        args = [self.term()]
        while self.at_op(","):
            self.next()
            args.append(self.term())
        return args

    # substitutions -------------------------------------------------------

    def substitution(self) -> list[tuple[str, Term]]:
        self.expect("{")
        pairs: list[tuple[str, Term]] = []
        if not self.at_op("}"):
            while True:
                name = self.var_name()
                self.expect("/")
                pairs.append((name, self.term()))
                if not self.at_op(","):
                    break
                self.next()
        self.expect("}")
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after substitution", tok.pos)
        return pairs


def parse_formula(text: str, signature: Signature, allow_fresh: bool = False) -> Formula:
    return _Parser(text, signature, allow_fresh).formula()


def parse_term(text: str, signature: Signature, allow_fresh: bool = False) -> Term:
    p = _Parser(text, signature, allow_fresh)
    t = p.term()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after term", tok.pos)
    return t


def parse_substitution_pairs(text: str, signature: Signature, allow_fresh: bool = False):
    """Parse "{x/1, y/f(a)}" into raw (name, term) pairs."""
    return _Parser(text, signature, allow_fresh).substitution()


_ATOM_PREC = 4
_UNARY_PREC = 3
_AND_PREC = 2
_OR_PREC = 1


def term_to_str(t: Term) -> str:
    return _term_str(t, 1)


def _term_str(t: Term, min_prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Val):
        return str(t.value)
    if t.symbol in ("+", "-"):
        s = f"{_term_str(t.args[0], 1)} {t.symbol} {_term_str(t.args[1], 2)}"
        return f"({s})" if min_prec > 1 else s
    if t.symbol == "*":
        s = f"{_term_str(t.args[0], 2)} * {_term_str(t.args[1], 3)}"
        return f"({s})" if min_prec > 2 else s
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(_term_str(a, 1) for a in t.args)})"


def formula_to_str(f: Formula) -> str:
    return _formula_str(f, 0)


def _formula_str(f: Formula, min_prec: int) -> str:
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Eq):
        return f"{term_to_str(f.lhs)} = {term_to_str(f.rhs)}"
    if isinstance(f, Neq):
        return f"{term_to_str(f.lhs)} /= {term_to_str(f.rhs)}"
    if isinstance(f, Atom):
        return f"{term_to_str(f.lhs)} {f.rel} {term_to_str(f.rhs)}"
    if isinstance(f, Not):
        if isinstance(f.body, (Not, Exists)):
            return f"~{_formula_str(f.body, _UNARY_PREC)}"
        return f"~({_formula_str(f.body, 0)})"
    if isinstance(f, Exists):
        body = _formula_str(f.body, _UNARY_PREC)
        if isinstance(f.body, (And, Or)):
            body = f"({_formula_str(f.body, 0)})"
        return f"exists {f.var}. {body}"
    if isinstance(f, And):
        s = f"{_formula_str(f.lhs, _AND_PREC)} & {_formula_str(f.rhs, _AND_PREC + 1)}"
        return f"({s})" if min_prec > _AND_PREC else s
    if isinstance(f, Or):
        s = f"{_formula_str(f.lhs, _OR_PREC)} | {_formula_str(f.rhs, _OR_PREC + 1)}"
        return f"({s})" if min_prec > _OR_PREC else s
    raise TypeError(f"not a formula: {f!r}")
