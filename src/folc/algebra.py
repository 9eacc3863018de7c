"""Algebras, generalized-term evaluation, J-substitutions and atom truth."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .syntax import (
    App,
    Atom,
    Bottom,
    Eq,
    Neq,
    Not,
    Signature,
    Term,
    Val,
    Var,
    apply_subst,
    parse_substitution_pairs,
    term_to_str,
    term_vars,
)


class Algebra:
    """A carrier with function evaluation and relation truth.

    For the arithmetic algebras the carrier elements are Python ints or
    Fractions carried in Val leaves; for Herbrand the carrier is the set of
    ground terms and function evaluation is term construction itself.
    """

    def __init__(self, name, signature, eval_fn, rel_truth):
        self.name = name
        self.signature = signature
        self.eval_fn = eval_fn
        self.rel_truth = rel_truth

    @property
    def numeric(self):
        return self.signature.numeric

    def __repr__(self):
        return f"Algebra({self.name})"


_ARITH_FUNCTIONS = {"+": 2, "-": 2, "*": 2}
_ARITH_RELATIONS = {"<": 2, "<=": 2}

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def _arith_eval(symbol, args):
    a, b = args
    if symbol == "+":
        return a + b
    if symbol == "-":
        return a - b
    if symbol == "*":
        return a * b
    raise ValueError(f"unknown function symbol {symbol!r}")


def _arith_rel(rel, args):
    return _COMPARATORS[rel](args[0], args[1])


def int_algebra() -> Algebra:
    sig = Signature(_ARITH_FUNCTIONS, _ARITH_RELATIONS, numeric="int")
    return Algebra("int", sig, _arith_eval, _arith_rel)


def rat_algebra() -> Algebra:
    """Exact rationals; the "reals" of the Gaussian-elimination policy."""
    sig = Signature(_ARITH_FUNCTIONS, _ARITH_RELATIONS, numeric="rat")
    return Algebra("rat", sig, _arith_eval, _arith_rel)


def herbrand_algebra(constructors) -> Algebra:
    """Herbrand algebra over the given constructors ((name, arity) pairs)."""
    sig = Signature(constructors, (), numeric=None)

    def eval_fn(symbol, args):
        return App(symbol, tuple(args))

    def rel_truth(rel, args):
        if rel == "=":
            return args[0] == args[1]
        if rel == "/=":
            return args[0] != args[1]
        raise ValueError(f"Herbrand defines only = and /=, not {rel!r}")

    return Algebra("herbrand", sig, eval_fn, rel_truth)


# ---------------------------------------------------------------------------
# Generalized-term evaluation


def term_is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, App):
        return all(term_is_ground(a) for a in t.args)
    return True


def j_eval(t: Term, J: Algebra) -> Term:
    """Replace every maximal ground subterm by its value in J.

    Fixpoint of itself; over Herbrand it is the identity.
    """
    if J.numeric is None:
        return t
    if isinstance(t, (Var, Val)):
        return t
    args = tuple(j_eval(a, J) for a in t.args)
    if all(isinstance(a, Val) for a in args):
        return Val(J.eval_fn(t.symbol, [a.value for a in args]))
    return App(t.symbol, args)


def eval_ground(t: Term, J: Algebra):
    """The J-value of a ground term (a number, or the term itself for Herbrand)."""
    if J.numeric is None:
        return t
    if isinstance(t, Val):
        return t.value
    if isinstance(t, App):
        return J.eval_fn(t.symbol, [eval_ground(a, J) for a in t.args])
    raise ValueError(f"not ground: {t!r}")


# ---------------------------------------------------------------------------
# J-substitutions


@dataclass(frozen=True)
class JSubst:
    """Finite map from variables to J-terms, kept in normal form.

    Normal form: bindings sorted by name, no x/x binding, every value a
    j_eval fixpoint.  Build instances through make_subst or compose.
    """

    bindings: tuple[tuple[str, Term], ...] = ()

    def get(self, name: str):
        return self._mapping.get(name)

    @cached_property
    def _mapping(self) -> dict[str, Term]:
        # Kept in the instance dict, outside the fields: ==, hash and repr ignore it.
        return dict(self.bindings)

    def domain(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.bindings)

    def is_empty(self) -> bool:
        return not self.bindings

    def __str__(self) -> str:
        inner = ", ".join(f"{n}/{term_to_str(t)}" for n, t in self.bindings)
        return "{" + inner + "}"


EMPTY_SUBST = JSubst()


def make_subst(pairs, J: Algebra) -> JSubst:
    """Normalizing constructor: j-evaluates values and drops identities."""
    out = {}
    for name, t in pairs:
        if name in out:
            raise ValueError(f"duplicate binding for {name}")
        v = j_eval(t, J)
        if v == Var(name):
            continue
        out[name] = v
    return JSubst(tuple(sorted(out.items())))


def compose(theta: JSubst, eta: JSubst, J: Algebra) -> JSubst:
    """The unique gamma with x.gamma = j_eval((x.theta).eta) for every x."""
    out = {}
    dom = set(theta.domain())
    for name, t in theta.bindings:
        v = j_eval(apply_subst(t, eta), J)
        if v != Var(name):
            out[name] = v
    for name, t in eta.bindings:
        if name not in dom:
            out[name] = t
    return JSubst(tuple(sorted(out.items())))


def parse_subst(text: str, J: Algebra, allow_fresh: bool = False) -> JSubst:
    pairs = parse_substitution_pairs(text, J.signature, allow_fresh)
    return make_subst(pairs, J)


# ---------------------------------------------------------------------------
# Atom truth

def atom_truth(atom, theta: JSubst, J: Algebra):
    """Truth of an atom or (dis)equation under theta: True, False, or None (non-ground)."""
    if isinstance(atom, Atom):
        rel, args = atom.rel, atom.args
    else:
        rel, args = ("=" if isinstance(atom, Eq) else "/="), (atom.lhs, atom.rhs)
    applied = [apply_subst(a, theta) for a in args]
    if not all(term_is_ground(a) for a in applied):
        return None
    return J.rel_truth(rel, [eval_ground(a, J) for a in applied])


def literal_truth(f, theta: JSubst, J: Algebra):
    """Ground truth of a literal (atom, (dis)equation, or its negation).

    Returns True/False when decided, None when non-ground or not a literal.
    """
    if isinstance(f, Bottom):
        return False
    if isinstance(f, (Atom, Eq, Neq)):
        return atom_truth(f, theta, J)
    if isinstance(f, Not):
        inner = literal_truth(f.body, theta, J)
        return None if inner is None else not inner
    return None


def subst_names(theta: JSubst) -> set[str]:
    """All variable names a substitution mentions (domain plus value variables)."""
    out = set()
    for name, t in theta.bindings:
        out.add(name)
        out |= term_vars(t)
    return out
