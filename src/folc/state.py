"""States, constraint stores, variable dropping and consistency classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce

from .algebra import Algebra, JSubst, literal_truth
from .syntax import And, Eq, Exists, Formula, Var, formula_to_str, free_vars, term_vars


class Store:
    """A finite set of formulas: insertion-ordered, duplicate-free.

    Equality and hashing are order-insensitive (set semantics); the stored
    order is kept for deterministic splitting and printing.
    """

    __slots__ = ("items", "_key")

    def __init__(self, items=()):
        self.items = tuple(dict.fromkeys(items))
        self._key = frozenset(self.items)

    def add(self, f: Formula) -> "Store":
        if f in self._key:
            return self
        return Store(self.items + (f,))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __contains__(self, f):
        return f in self._key

    def __eq__(self, other):
        return isinstance(other, Store) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Store({list(self.items)!r})"

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        return "; ".join(formula_to_str(f) for f in self.items)


EMPTY_STORE = Store()


class _ErrorState:
    """The unrecoverable error state; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "error"

    def __str__(self):
        return "error"


ERROR = _ErrorState()


@dataclass(frozen=True)
class Pair:
    """A non-error state: a constraint store together with a J-substitution."""

    store: Store
    subst: JSubst

    def __str__(self) -> str:
        return f"<{self.store} | {self.subst}>"


State = object  # Pair | _ErrorState
AnswerSet = tuple  # tuple[State, ...], duplicate-free, derivation-ordered


def pair(formulas, subst: JSubst) -> Pair:
    return Pair(Store(formulas), subst)


def dedup(states) -> AnswerSet:
    seen = set()
    out = []
    for s in states:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# Dropping a local variable


def drop_subst(u: str, theta: JSubst) -> JSubst:
    """Unbind u; all other bindings stay, even values that mention u."""
    return theta.without((u,))


def drop_state(u: str, sigma) -> State:
    """Eliminate the local variable u from a state.

    If no store formula mentions u free, only the substitution binding is
    dropped.  Otherwise the formulas C(u) move under an existential
    quantifier together with u's value and the values of the variables
    bound to terms mentioning u; those bindings are removed from the
    substitution (their content survives inside the quantified formula).
    """
    if sigma is ERROR:
        return ERROR
    store, eta = sigma.store, sigma.subst
    c_u = [f for f in store if u in free_vars(f)]
    if not c_u:
        return Pair(store, drop_subst(u, eta))
    ys = sorted(n for n, t in eta.bindings if n != u and u in term_vars(t))
    conjuncts = []
    u_val = eta.get(u)
    if u_val is not None:
        conjuncts.append(Eq(Var(u), u_val))
    for y in ys:
        conjuncts.append(Eq(Var(y), eta.get(y)))
    conjuncts.extend(c_u)
    quantified = Exists(u, reduce(And, conjuncts))
    moved = set(c_u)
    rest = [f for f in store if f not in moved]
    return Pair(Store(rest + [quantified]), eta.without((u, *ys)))


# ---------------------------------------------------------------------------
# Consistency classification


class Classification(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    ERROR = "error"


def classify(sigma, J: Algebra) -> Classification:
    """Sound, incomplete inconsistency check.

    A pair state is Inconsistent iff its store contains the false formula
    or a literal that is ground under the substitution and evaluates to
    False.  Everything else is reported Consistent; full J-inconsistency is
    undecidable.
    """
    if sigma is ERROR:
        return Classification.ERROR
    for f in sigma.store:
        if literal_truth(f, sigma.subst, J) is False:
            return Classification.INCONSISTENT
    return Classification.CONSISTENT


def cons(states, J: Algebra) -> AnswerSet:
    """The J-consistent states of the set."""
    return tuple(s for s in states if classify(s, J) is Classification.CONSISTENT)


def cons_plus(states, J: Algebra) -> AnswerSet:
    """The not-J-inconsistent states: consistent ones plus the error state."""
    return tuple(s for s in states if classify(s, J) is not Classification.INCONSISTENT)
