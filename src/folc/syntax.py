"""Abstract syntax, concrete grammar, parser and printer for terms and formulas.

Grammar, loosest to tightest binding:

    formula := disj
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '~' unary | 'exists' IDENT '.' unary | atom
    atom    := 'false' | REL '(' terms ')' | term ('=' | '/=' | '<' | '<=' | REL) term
    term    := mult (('+' | '-') mult)*          (arithmetic signatures only)
    mult    := primary ('*' primary)*
    primary := NUMBER | '-' NUMBER | NUMBER '/' NUMBER
             | IDENT | IDENT '(' terms ')' | '(' term ')'

Identifiers are lowercase; the signature decides whether an identifier is a
variable, a function symbol or a relation symbol.  Names starting with `$`
are reserved for machine-generated fresh variables and rejected in user
input (internal re-parsing passes allow_fresh=True).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

FRESH_PREFIX = "$"
_FRESH_RE = re.compile(r"\$u(\d+)$")


def max_fresh_index(names) -> int:
    """The largest n among fresh names $u<n> in names, or 0 if there are none."""
    top = 0
    for n in names:
        m = _FRESH_RE.match(n)
        if m:
            top = max(top, int(m.group(1)))
    return top


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    def __str__(self) -> str:
        return term_to_str(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...] = ()

    def __hash__(self) -> int:
        # The dataclass field hash, computed once per node: otherwise every set
        # a deep spine enters rehashes it in full.  It lives in the instance
        # dict (written directly, past the frozen setattr), outside the fields,
        # so ==, repr and fields() ignore it.  str hashes differ between
        # processes, so the value holds only in the process that computed it.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.symbol, self.args))
        return h


@dataclass(frozen=True)
class Val(Term):
    """A leaf holding a domain element of the active algebra."""

    value: object


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return formula_to_str(self)


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Eq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Neq(Formula):
    """The disequation spelling s /= t; distinct node from Not(Eq(s, t))."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Bottom(Formula):
    """The always-false formula; never produced by the parser from user text."""


BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# Signatures


class Signature:
    """Declared function and relation symbols plus the numeric flavour.

    numeric is None for Herbrand-style signatures, "int" or "rat" for the
    arithmetic ones (it controls how numeric literals are read).
    """

    def __init__(self, functions=(), relations=(), numeric=None):
        self.functions = dict(functions)
        self.relations = dict(relations)
        self.numeric = numeric

    def __repr__(self):
        fns = ",".join(f"{n}/{a}" for n, a in self.functions.items())
        return f"Signature({fns or '-'}, numeric={self.numeric})"


def parse_signature_decl(text: str) -> list[tuple[str, int]]:
    """Parse a "f/1,g/2,a/0" style declaration list.

    A name may be declared once, and never as a keyword, which the formula
    parser would not read as a symbol.
    """
    out = []
    start = 0
    for raw in text.split(","):
        chunk = raw.strip()
        pos, start = start + raw.find(chunk), start + len(raw) + 1
        if not chunk:
            continue
        m = re.fullmatch(r"([a-z][a-z0-9_]*)/(\d+)", chunk)
        if m is None:
            raise ParseError(f"bad signature entry {chunk!r}", pos)
        name = m.group(1)
        if name in _KEYWORDS:
            raise ParseError(f"signature entry {chunk!r}: {name!r} is a keyword", pos)
        if any(name == seen for seen, _ in out):
            raise ParseError(f"signature entry {chunk!r}: {name!r} is already declared", pos)
        out.append((name, int(m.group(2))))
    return out


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


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
        if tok.kind == "ident" and tok.text in self.sig.relations and self._lookahead_is("("):
            return self.relation_call(tok)
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

    def relation_call(self, tok: _Token) -> Formula:
        name = self.next().text
        self.expect("(")
        args = self.term_list()
        self.expect(")")
        arity = self.sig.relations[name]
        if len(args) != arity:
            raise ParseError(f"relation {name} expects {arity} arguments, got {len(args)}", tok.pos)
        return Atom(name, tuple(args))

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
            return Atom(tok.text, (lhs, self.term()))
        if tok.kind == "ident" and tok.text in self.sig.relations:
            if self.sig.relations[tok.text] != 2:
                raise ParseError(f"relation {tok.text} is not binary", tok.pos)
            return Atom(tok.text, (lhs, self.term()))
        raise ParseError(f"expected a relation, found {tok.text or 'end of input'!r}", tok.pos)

    def _lookahead_is(self, text: str) -> bool:
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "op" and nxt.text == text

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
        if tok.text in self.sig.functions or tok.text in self.sig.relations:
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


# ---------------------------------------------------------------------------
# Printer

_ATOM_PREC = 4
_UNARY_PREC = 3
_AND_PREC = 2
_OR_PREC = 1


def format_value(v) -> str:
    if isinstance(v, Fraction) and v.denominator == 1:
        return str(v.numerator)
    return str(v)


def term_to_str(t: Term) -> str:
    return _term_str(t, 1)


def _term_str(t: Term, min_prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Val):
        return format_value(t.value)
    if t.symbol in ("+", "-"):
        s = f"{_term_str(t.args[0], 1)} {t.symbol} {_term_str(t.args[1], 2)}"
        return f"({s})" if min_prec > 1 else s
    if t.symbol == "*":
        s = f"{_term_str(t.args[0], 2)} * {_term_str(t.args[1], 3)}"
        return f"({s})" if min_prec > 2 else s
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(_term_str(a, 1) for a in t.args)})"


_INFIX_RELS = ("=", "/=", "<", "<=")


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
        if f.rel in _INFIX_RELS and len(f.args) == 2:
            return f"{term_to_str(f.args[0])} {f.rel} {term_to_str(f.args[1])}"
        return f"{f.rel}({', '.join(term_to_str(a) for a in f.args)})"
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


# ---------------------------------------------------------------------------
# Variable bookkeeping


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        out: set[str] = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    return set()


def free_vars(f: Formula) -> set[str]:
    if isinstance(f, (Eq, Neq)):
        return term_vars(f.lhs) | term_vars(f.rhs)
    if isinstance(f, Atom):
        out: set[str] = set()
        for a in f.args:
            out |= term_vars(a)
        return out
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, Exists):
        return free_vars(f.body) - {f.var}
    return set()


def all_names(f: Formula) -> set[str]:
    """Every variable occurrence in f, free or bound, binders included."""
    if isinstance(f, Exists):
        return all_names(f.body) | {f.var}
    if isinstance(f, Not):
        return all_names(f.body)
    if isinstance(f, (And, Or)):
        return all_names(f.lhs) | all_names(f.rhs)
    return free_vars(f)


def apply_subst(t: Term, theta) -> Term:
    """Simultaneous replacement of bound variables; no re-evaluation.

    theta is any name-to-term mapping with a .get: a JSubst or a dict.  A
    subterm that mentions no bound variable comes back as the same object,
    so t itself when theta binds none of its variables.
    """
    if isinstance(t, Var):
        v = theta.get(t.name)
        return t if v is None else v
    if isinstance(t, App):
        return _apply_app(t, theta, {})
    return t


def _apply_app(t: App, theta, memo: dict) -> Term:
    """apply_subst on an App, memoised on node identity.

    A node shared within t, or across the terms of one memo, is rewritten
    once.  The keys are ids of input nodes, so the caller keeps every input
    alive while the memo is in use.
    """
    out = memo.get(id(t))
    if out is not None:
        return out
    args = []
    changed = False
    for a in t.args:
        if isinstance(a, Var):
            b = theta.get(a.name)
            if b is None:
                b = a
        elif isinstance(a, App):
            b = _apply_app(a, theta, memo)
        else:
            b = a
        changed = changed or b is not a
        args.append(b)
    out = memo[id(t)] = App(t.symbol, tuple(args)) if changed else t
    return out


def rename_free(f: Formula, x: str, u: str) -> Formula:
    """Replace free occurrences of x by u; u must not occur anywhere in f."""
    if u in all_names(f):
        raise ValueError(f"{u!r} already occurs in the formula")
    return _rename_unchecked(f, {x: Var(u)})


def _rename_unchecked(f: Formula, theta: dict) -> Formula:
    if isinstance(f, Eq):
        return Eq(apply_subst(f.lhs, theta), apply_subst(f.rhs, theta))
    if isinstance(f, Neq):
        return Neq(apply_subst(f.lhs, theta), apply_subst(f.rhs, theta))
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(apply_subst(a, theta) for a in f.args))
    if isinstance(f, Not):
        return Not(_rename_unchecked(f.body, theta))
    if isinstance(f, And):
        return And(_rename_unchecked(f.lhs, theta), _rename_unchecked(f.rhs, theta))
    if isinstance(f, Or):
        return Or(_rename_unchecked(f.lhs, theta), _rename_unchecked(f.rhs, theta))
    if isinstance(f, Exists):
        if f.var in theta:
            return f
        return Exists(f.var, _rename_unchecked(f.body, theta))
    return f
