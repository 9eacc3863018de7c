"""Abstract syntax, concrete grammar, parser and printer for terms and formulas.

Grammar, loosest to tightest binding:

    formula := disj
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '~' unary | 'exists' IDENT '.' unary | '(' formula ')' | atom
    atom    := 'false' | term ('=' | '/=' | '<' | '<=') term
    term    := mult (('+' | '-') mult)*          (arithmetic signatures only)
    mult    := primary ('*' primary)*
    primary := NUMBER | '-' NUMBER | NUMBER '/' NUMBER
             | IDENT | IDENT '(' terms ')' | '(' term ')'

Identifiers are lowercase; the signature decides whether an identifier is a
variable or a function symbol.  `<` and `<=` exist only in the arithmetic
signatures.  Names starting with `$` are reserved for machine-generated
fresh variables and rejected in user input (internal re-parsing passes
allow_fresh=True).

A `(` where a formula may start (at the start, or after `&`, `|`, `~` or
a binder) holds a formula, except that in a numeric signature it holds a
term when a term reaches its `)`.  So "(x + y) * z = 1" starts with a term
and "(x = 1 | y = 2) & z = 3" with a formula.  In a numeric signature a
`(` where only a term may stand holds a term.  Over Herbrand a `(` never
holds a term.

The scanner splits the text into tokens in one regular-expression pass.
The parser reads formulas and terms in one precedence-climbing loop over
explicit stacks (Pratt, "Top Down Operator Precedence", POPL 1973), and
the printer walks an explicit stack too, so both read and print any
nesting depth at the default recursion limit.  One dict lookup classifies
a token: a module table holds the tokens that may follow an operand, and
a signature's token table maps each operand text read under it, up to
_TABLE_BOUND texts, to its kind or to the one Var, constant or int it is.
"""

from __future__ import annotations

import re
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
# Nodes


class _Node:
    """A term or formula node: slotted, hashed once, compared without recursion.

    Each class names its fields once, in constructor order, in _fields.  A
    node's hash is the hash of its field tuple, the value a frozen dataclass
    gives; the children are built, and so hashed, first, so __init__ hashes
    in O(1) and nothing recurses.  == tests identity, then class, then the
    cached hash, and then walks both trees over an explicit stack, so it
    takes any nesting depth at the default recursion limit.  str hashes
    differ between processes, so a hash holds only in the process that made
    it.  Nodes are immutable by convention: nothing writes a field after
    __init__.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        pop, push = todo.pop, todo.append
        while todo:
            a, b = pop()
            if a is b:
                continue
            if isinstance(a, _Node):
                if a.__class__ is not b.__class__ or a._hash != b._hash:
                    return False
                for name in a._fields:
                    push((getattr(a, name), getattr(b, name)))
            elif a.__class__ is tuple:
                if b.__class__ is not tuple or len(a) != len(b):
                    return False
                todo.extend(zip(a, b))
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    @property
    def __dict__(self) -> dict:
        """The fields by name, read-only and fresh on each read.

        It serves readers that walk nodes through vars(), such as the
        benchmark's _free_names in bench/workloads.py.
        """
        return {name: getattr(self, name) for name in self._fields}


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        return term_to_str(self)


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((name,))

    def __eq__(self, other):
        if other.__class__ is Var:
            return self.name == other.name
        return NotImplemented

    __hash__ = _Node.__hash__


class App(Term):
    __slots__ = _fields = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple[Term, ...] = ()):
        self.symbol = symbol
        self.args = args
        self._hash = hash((symbol, args))


class Val(Term):
    """A leaf holding a domain element of the active algebra."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: object):
        self.value = value
        self._hash = hash((value,))

    def __eq__(self, other):
        if other.__class__ is Val:
            return self.value == other.value
        return NotImplemented

    __hash__ = _Node.__hash__


# ---------------------------------------------------------------------------
# Formulas


class Formula(_Node):
    """A formula node.  _watched holds infer's frozenset of its free variables once computed, else None."""

    __slots__ = ("_watched",)

    def __str__(self) -> str:
        return formula_to_str(self)


class Atom(Formula):
    """An order comparison, lhs < rhs or lhs <= rhs."""

    __slots__ = _fields = ("rel", "lhs", "rhs")

    def __init__(self, rel: str, lhs: Term, rhs: Term):
        self.rel = rel
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((rel, lhs, rhs))
        self._watched = None


def _two_sided(self, lhs, rhs):
    """The constructor of the four two-operand nodes: Eq, Neq, And and Or."""
    self.lhs = lhs
    self.rhs = rhs
    self._hash = hash((lhs, rhs))
    self._watched = None


# The four share no base class below Formula: a longer MRO slows each failed
# isinstance(x, ATOMIC_TYPES) on an & or |, which the walks make at every node.
class Eq(Formula):
    __slots__ = _fields = ("lhs", "rhs")
    rel = "="
    __init__ = _two_sided


class Neq(Formula):
    """The disequation spelling s /= t; distinct node from Not(Eq(s, t))."""

    __slots__ = _fields = ("lhs", "rhs")
    rel = "/="
    __init__ = _two_sided


class Not(Formula):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        self.body = body
        self._hash = hash((body,))
        self._watched = None


class And(Formula):
    __slots__ = _fields = ("lhs", "rhs")
    __init__ = _two_sided


class Or(Formula):
    __slots__ = _fields = ("lhs", "rhs")
    __init__ = _two_sided


class Exists(Formula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: Formula):
        self.var = var
        self.body = body
        self._hash = hash((var, body))
        self._watched = None


class Bottom(Formula):
    """The always-false formula, read from the keyword `false`."""

    __slots__ = ()

    def __init__(self):
        self._hash = hash(())
        self._watched = None


BOTTOM = Bottom()
ATOM_TYPES = (Atom, Eq, Neq)  # every atom reads as f.rel, f.lhs and f.rhs
ATOMIC_TYPES = (*ATOM_TYPES, Bottom)


def with_sides(f, lhs: Term, rhs: Term):
    """The atom f with its sides replaced by lhs and rhs."""
    return Atom(f.rel, lhs, rhs) if type(f) is Atom else type(f)(lhs, rhs)


# ---------------------------------------------------------------------------
# Signatures


class Signature:
    """Declared function symbols plus the numeric flavour.

    numeric is None for Herbrand-style signatures, "int" or "rat" for the
    arithmetic ones: it controls how numeric literals are read, and decides
    the relations besides = and /=, which are < and <= for the arithmetic
    signatures and none for Herbrand.  The parser keeps its token table
    here, so the symbols must not change after the first parse.
    """

    def __init__(self, functions=(), numeric=None):
        self.functions = dict(functions)
        self.numeric = numeric
        self.relations = frozenset() if numeric is None else frozenset(("<", "<="))
        self._tokens = {}  # the token table: operand text -> a token kind or its shared leaf

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
# Scanner


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Splitting on the token pattern leaves the tokens at odd indices and the gaps
# between them at even ones; a gap holding anything but whitespace holds a
# character no token starts with.  No two alternatives start with the same
# character, so the commonest, the one-character class, may come first.
_TOKEN_SPLIT = re.compile(r"([()=>~&|.,+\-*{};]|<=?|/=?|\d+|\$?[a-z][a-z0-9_]*)")

_KEYWORDS = ("exists", "false")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz$")  # the first characters of identifiers
_FORMULA_STOPS = frozenset(("(", "&", "|"))
_TERM_GROUP = "(term"  # the stack entry of a "(" opened where only a term may stand

# The kinds of operand token that a signature's token table holds besides shared leaves.
_KEYWORD, _FUNCTION, _OPEN, _NOT, _MINUS, _NUMBER, _FRESH, _OTHER = range(8)
_TABLE_BOUND = 4096  # a full token table classifies a new text on every sight and keeps nothing

# The tokens that may follow an operand, by class: a binary operator's binding
# power, loosest first, or a closing token.  Anything else reads as 0.
_OR, _AND, _REL, _ADD, _MUL, _CLOSE, _COMMA = 1, 2, 3, 4, 5, -1, -2
_AFTER = {"|": _OR, "&": _AND, "=": _REL, "/=": _REL, "<": _REL, "<=": _REL,
          "+": _ADD, "-": _ADD, "*": _MUL, ")": _CLOSE, ",": _COMMA}


def _classify(t: str, signature: Signature):
    """The token table's entry for operand text t: a token kind, or the one leaf t always reads as."""
    if t[:1] in _IDENT_START:
        if t in _KEYWORDS:
            return _KEYWORD
        arity = signature.functions.get(t)
        if arity is None:
            return _FRESH if t[0] == FRESH_PREFIX else Var(t)
        return App(t, ()) if arity == 0 else _FUNCTION
    if t.isdecimal():
        return Val(int(t)) if signature.numeric == "int" else _NUMBER  # a rat literal may go on with "/"
    return {"(": _OPEN, "~": _NOT, "-": _MINUS}.get(t, _OTHER)


def _scan(text: str) -> list[str]:
    """The tokens of text, then "" for the end of input: one regex pass."""
    parts = _TOKEN_SPLIT.split(text)
    gaps = "".join(parts[::2])
    if gaps and not gaps.isspace():
        for k in range(0, len(parts), 2):
            stray = parts[k].lstrip()
            if stray:
                raise ParseError(f"unexpected character {stray[0]!r}", sum(map(len, parts[: k + 1])) - len(stray))
    parts.append("")  # the end of input, at the odd index after the last token
    return parts[1::2]


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """One parse of one text.

    Positions index the token list; the character offset of a token is
    computed only for an error message.
    """

    def __init__(self, text: str, signature: Signature, allow_fresh: bool = False):
        self.text = text
        self.toks = _scan(text)
        self.signature = signature
        self.allow_fresh = allow_fresh

    def fail(self, message: str, i: int):
        """Raise a ParseError at the character offset of token i."""
        parts = _TOKEN_SPLIT.split(self.text)
        raise ParseError(message, sum(map(len, parts[: 2 * i + 1])))

    def expect(self, text: str, i: int) -> None:
        t = self.toks[i]
        if t != text:
            self.fail(f"expected {text!r}, found {t or 'end of input'!r}", i)

    def end(self, i: int, what: str) -> None:
        t = self.toks[i]
        if t:
            self.fail(f"unexpected {t!r} after {what}", i)

    def expr(self, i: int, formula: bool) -> tuple[Term | Formula, int]:
        """The formula, or the term if not formula, at token i, and the index of the token after it.

        One loop over one explicit operator stack reads the whole grammar.
        Each pass reads one operand, a term or a formula, then reduces the
        operators that bind tighter than the token after it.  `here` says
        whether a formula may start at the next operand: at the start, or
        after `&`, `|`, `~`, a binder or a "(" opened at such a place.
        """
        toks = self.toks
        signature = self.signature
        table = signature._tokens
        after = _AFTER.get
        numeric = signature.numeric is not None
        # pending operators: "+", "-", "*", a relation, "&" or "|" waiting for its right operand,
        # "~", an exists binder's variable, an open application (a tuple), "(" or _TERM_GROUP
        ops = []
        vals = []  # the left operands of the binary operators, and the finished arguments of the applications
        here = formula
        while True:
            t = toks[i]
            cur = table.get(t)
            if cur is None:
                cur = _classify(t, signature)
                if len(table) < _TABLE_BOUND:
                    table[t] = cur
            if cur.__class__ is not int:  # a shared leaf
                i += 1
            elif cur == _FUNCTION:
                self.expect("(", i + 1)
                ops.append((t, i, len(vals)))  # symbol, its token, its first argument in vals
                here = False
                i += 2
                continue
            elif cur == _OPEN and (here or numeric):
                ops.append("(" if here else _TERM_GROUP)
                i += 1
                continue
            elif cur == _NOT and here:
                ops.append("~")
                i += 1
                continue
            elif cur == _KEYWORD:
                if not here:
                    self.fail(f"{t!r} is a keyword", i)
                if t == "exists":
                    ops.append(self.var_name(i + 1))
                    self.expect(".", i + 2)
                    i += 3
                    continue
                cur = BOTTOM
                i += 1
            elif cur == _NUMBER:
                cur, i = self.number(i, False)
            elif cur == _MINUS and toks[i + 1].isdecimal():
                cur, i = self.number(i + 1, True)
            elif cur == _FRESH:
                if not self.allow_fresh and toks[i + 1] != "(":
                    self.fail(f"variable names may not start with {FRESH_PREFIX!r}", i)
                cur = Var(t)
                i += 1
            else:
                self.fail(f"expected a term, found {t or 'end of input'!r}", i)
            if toks[i] == "(" and cur.__class__ is Var:
                self.fail(f"unknown function symbol {t!r}", i - 1)
            term = cur is not BOTTOM
            while True:
                t = toks[i]
                kind = after(t, 0)
                if term:
                    if kind >= _ADD and numeric:
                        while ops and after(ops[-1], 0) >= kind:
                            cur = App(ops.pop(), (vals.pop(), cur))
                        vals.append(cur)
                        ops.append(t)
                        here = False
                        i += 1
                        break
                    while ops and after(ops[-1], 0) >= _ADD:
                        cur = App(ops.pop(), (vals.pop(), cur))
                    top = ops[-1] if ops else None
                    if after(top) != _REL:
                        if top.__class__ is tuple:
                            vals.append(cur)
                            if kind == _COMMA:
                                i += 1
                                break
                            self.expect(")", i)
                            name, at, first = ops.pop()
                            args = tuple(vals[first:])
                            del vals[first:]
                            arity = signature.functions[name]
                            if len(args) != arity:
                                self.fail(f"{name} expects {arity} arguments, got {len(args)}", at)
                            cur = App(name, args)
                        elif top is _TERM_GROUP or kind == _CLOSE and top == "(" and numeric:  # the group held a term
                            self.expect(")", i)
                            ops.pop()
                        elif top is None and not formula:
                            return cur, i
                        elif kind == _REL:
                            if t not in signature.relations and t != "=" and t != "/=":
                                self.fail(f"relation {t!r} is not available in this algebra", i)
                            vals.append(cur)
                            ops.append(t)
                            here = False
                            i += 1
                            break
                        else:
                            self.fail(f"expected a relation, found {t or 'end of input'!r}", i)
                        i += 1
                        continue
                    ops.pop()  # the atom is complete, and t goes on to the formula operators
                    lhs = vals.pop()
                    cur = Eq(lhs, cur) if top == "=" else Neq(lhs, cur) if top == "/=" else Atom(top, lhs, cur)
                    term = False
                while ops:  # the prefixes bind tighter than & and |
                    op = ops[-1]
                    if op == "~":
                        cur = Not(cur)
                    elif op in _FORMULA_STOPS:
                        break
                    else:
                        cur = Exists(op, cur)
                    ops.pop()
                # Left to right, & before |: an "&" closes a pending "&", anything else both.
                while ops and ops[-1] != "(" and (kind != _AND or ops[-1] == "&"):
                    cur = And(vals.pop(), cur) if ops.pop() == "&" else Or(vals.pop(), cur)
                if kind == _AND or kind == _OR:
                    vals.append(cur)
                    ops.append(t)
                    here = True
                    i += 1
                    break
                if not ops:
                    return cur, i
                self.expect(")", i)  # the group held a formula
                ops.pop()
                i += 1

    def number(self, i: int, negative: bool) -> tuple[Term, int]:
        toks = self.toks
        numeric = self.signature.numeric
        if numeric is None:
            self.fail("numeric literals require an arithmetic algebra", i)
        num = -int(toks[i]) if negative else int(toks[i])
        if numeric == "rat":
            if toks[i + 1] == "/":
                den = toks[i + 2]
                if not den.isdecimal():
                    self.fail("expected a denominator", i + 2)
                if int(den) == 0:
                    self.fail("zero denominator", i + 2)
                return Val(Fraction(num, int(den))), i + 3
            return Val(Fraction(num)), i + 1
        return Val(num), i + 1

    def var_name(self, i: int) -> str:
        t = self.toks[i]
        if t[:1] not in _IDENT_START or t in _KEYWORDS:
            self.fail(f"expected a variable name, found {t!r}", i)
        if t in self.signature.functions:
            self.fail(f"{t!r} is a declared symbol, not a variable", i)
        if t[0] == FRESH_PREFIX and not self.allow_fresh:
            self.fail(f"variable names may not start with {FRESH_PREFIX!r}", i)
        return t

    # substitutions -------------------------------------------------------

    def substitution(self) -> list[tuple[str, Term]]:
        self.expect("{", 0)
        i = 1
        pairs: list[tuple[str, Term]] = []
        if self.toks[i] != "}":
            while True:
                name = self.var_name(i)
                self.expect("/", i + 1)
                t, i = self.expr(i + 2, False)
                pairs.append((name, t))
                if self.toks[i] != ",":
                    break
                i += 1
        self.expect("}", i)
        self.end(i + 1, "substitution")
        return pairs


def parse_formula(text: str, signature: Signature, allow_fresh: bool = False) -> Formula:
    p = _Parser(text, signature, allow_fresh)
    f, i = p.expr(0, True)
    p.end(i, "formula")
    return f


def parse_term(text: str, signature: Signature, allow_fresh: bool = False) -> Term:
    p = _Parser(text, signature, allow_fresh)
    t, i = p.expr(0, False)
    p.end(i, "term")
    return t


def parse_substitution_pairs(text: str, signature: Signature, allow_fresh: bool = False):
    """Parse "{x/1, y/f(a)}" into raw (name, term) pairs."""
    return _Parser(text, signature, allow_fresh).substitution()


# ---------------------------------------------------------------------------
# Printer


def term_to_str(x: Term | Formula) -> str:
    """The printed text of term or formula x; formula_to_str is the same function."""
    out: list[str] = []
    write_to(out, x)
    return "".join(out)


formula_to_str = term_to_str


_ADDITIVE = ("+", "-")


def write_to(out: list, x) -> None:
    """Append the printed text of term or formula x to out, in pieces.

    One loop over an explicit stack of pending nodes and string pieces.  Each
    node decides whether its operands need parentheses, so no precedence
    travels down.  Parenthesised are: a sum or difference right of `+` or
    `-`, or on either side of `*`; a product right of `*`; an `|` on either
    side of `&`; an `&` right of `&`; an `|` right of `|`; the body of `~`
    unless it is a `~` or `exists` formula; the body of `exists` if it is an
    `&` or `|`.  A chain of unary applications, such as the `f(f(...(x)))`
    values of a unification chain, is opened in one step and closed by one
    piece.
    """
    put = out.append
    stack = [x]
    push = stack.append
    pop = stack.pop
    while stack:
        x = pop()
        cls = type(x)
        if cls is str:
            put(x)
        elif cls is Var:
            put(x.name)
        elif cls is Val:
            put(str(x.value))
        elif cls is App:
            sym, args = x.symbol, x.args
            if sym in _ADDITIVE or sym == "*":
                a, b = args[0], args[1]
                if type(b) is App and (b.symbol in _ADDITIVE or sym == "*" and b.symbol == "*"):
                    push(")")
                    push(b)
                    push(f" {sym} (")
                else:
                    push(b)
                    push(f" {sym} ")
                if sym == "*" and type(a) is App and a.symbol in _ADDITIVE:
                    push(")")
                    push(a)
                    put("(")
                else:
                    push(a)
            elif not args:
                put(sym)
            elif len(args) == 1:  # f(g(h(...))): open a whole chain of unary applications at once
                put(sym + "(")
                depth = 1
                x = args[0]
                while type(x) is App and len(x.args) == 1:
                    put(x.symbol + "(")
                    depth += 1
                    x = x.args[0]
                push(")" * depth)
                push(x)
            else:
                put(sym + "(")
                push(")")
                for k in range(len(args) - 1, 0, -1):
                    push(args[k])
                    push(", ")
                push(args[0])
        elif cls is Eq or cls is Neq or cls is Atom:
            push(x.rhs)
            push(f" {x.rel} ")
            push(x.lhs)
        elif cls is And or cls is Or:
            lhs, rhs = x.lhs, x.rhs
            r = type(rhs)
            if r is Or or cls is And and r is And:
                push(")")
                push(rhs)
                push(" & (" if cls is And else " | (")
            else:
                push(rhs)
                push(" & " if cls is And else " | ")
            if cls is And and type(lhs) is Or:
                push(")")
                push(lhs)
                put("(")
            else:
                push(lhs)
        elif cls is Not:
            b = type(x.body)
            if b is Not or b is Exists:
                put("~")
            else:
                put("~(")
                push(")")
            push(x.body)
        elif cls is Exists:
            b = type(x.body)
            if b is And or b is Or:
                put(f"exists {x.var}. (")
                push(")")
            else:
                put(f"exists {x.var}. ")
            push(x.body)
        elif cls is Bottom:
            put("false")
        else:
            raise TypeError(f"not a formula: {x!r}")


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
    if isinstance(f, ATOM_TYPES):
        return term_vars(f.lhs) | term_vars(f.rhs)
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
    if isinstance(f, ATOM_TYPES):
        return with_sides(f, apply_subst(f.lhs, theta), apply_subst(f.rhs, theta))
    if isinstance(f, Not):
        return Not(_rename_unchecked(f.body, theta))
    if isinstance(f, (And, Or)):
        return type(f)(_rename_unchecked(f.lhs, theta), _rename_unchecked(f.rhs, theta))
    if isinstance(f, Exists):
        if f.var in theta:
            return f
        return Exists(f.var, _rename_unchecked(f.body, theta))
    return f
