"""States, constraint stores, variable dropping and consistency classification."""

from __future__ import annotations

import enum
from functools import reduce

from .algebra import Algebra, JSubst, literal_truth
from .syntax import And, Eq, Exists, Formula, Var, free_vars, write_to


class Store:
    """A finite set of formulas: insertion-ordered, duplicate-free.

    Equality and hashing are order-insensitive (set semantics); the stored
    order is kept for deterministic splitting and printing.

    A store may also remember that infer.aux, or StorePolicy.apply's
    one-formula shortcut, closed it: its first n items are passive under
    one (policy, algebra, substitution), compared by identity.  add
    carries the record forward; every other constructor starts without
    one.  Like the cached hashes of JSubst and Pair, the record
    is outside equality and hashing.
    """

    __slots__ = ("items", "_key", "_closed")

    def __init__(self, items=()):
        self.items = tuple(dict.fromkeys(items))
        self._key = frozenset(self.items)
        self._closed = None

    @classmethod
    def _of(cls, items: tuple, key: frozenset, closed=None) -> "Store":
        """A store from duplicate-free items and their frozenset, hashing nothing again."""
        s = object.__new__(cls)
        s.items, s._key, s._closed = items, key, closed
        return s

    def add(self, f: Formula) -> "Store":
        """self with f appended, unless it holds f already.

        f is hashed once, into {f}: the membership test and the union both
        read that stored hash, and a duplicate costs no copy of the key.
        """
        new = {f}
        if not self._key.isdisjoint(new):
            return self
        return Store._of(self.items + (f,), self._key | new, self._closed)

    def successor(self, items: tuple, removed) -> "Store":
        """The store of items: self's items less the removed ones, in any order.

        An empty successor is the shared EMPTY_STORE.
        """
        if not items:
            return EMPTY_STORE
        return Store._of(items, self._key.difference(removed))

    def closed_prefix(self, policy, J, theta) -> int:
        """How many leading items are known passive under exactly these objects."""
        c = self._closed
        if c is not None and c[1] is policy and c[2] is J and c[3] is theta:
            return c[0]
        return 0

    def mark_closed(self, policy, J, theta) -> None:
        """Record that every item is passive under (policy, J, theta).

        The empty store is shared and has nothing to record, so it stays
        unmarked.
        """
        if self.items:
            self._closed = (len(self.items), policy, J, theta)

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

    def write(self, out: list) -> None:
        """Append the printed store to out: its formulas joined by "; ", or "{}"."""
        if not self.items:
            out.append("{}")
            return
        for k, f in enumerate(self.items):
            if k:
                out.append("; ")
            write_to(out, f)

    def __str__(self) -> str:
        out: list[str] = []
        self.write(out)
        return "".join(out)


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


class Pair:
    """A non-error state: a constraint store together with a J-substitution.

    A value like Store and JSubst: two slots and a hash cache.  The hash is
    that of the tuple (store, subst), computed on first use and kept, so
    that the dedups of an Or and of the And around it hash each state's
    store and substitution once between them.
    """

    __slots__ = ("store", "subst", "_hash")

    def __init__(self, store: Store, subst: JSubst):
        self.store = store
        self.subst = subst
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not Pair:
            return NotImplemented
        return (self.store, self.subst) == (other.store, other.subst)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.store, self.subst))
        return self._hash

    def __repr__(self) -> str:
        return f"Pair(store={self.store!r}, subst={self.subst!r})"

    def __str__(self) -> str:
        out = ["<"]
        self.store.write(out)
        out.append(" | ")
        self.subst.write(out)
        out.append(">")
        return "".join(out)


State = object  # Pair | _ErrorState
AnswerSet = tuple  # tuple[State, ...], duplicate-free, derivation-ordered


def pair(formulas, subst: JSubst) -> Pair:
    return Pair(Store(formulas), subst)


def dedup(states) -> AnswerSet:
    # Nothing to compare: hash no state, so that the substitutions along a
    # chain of conjuncts stay unhashed (see JSubst).
    if len(states) < 2:
        return tuple(states)
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
    ys = sorted(n for n, vs in eta._value_vars.items() if n != u and u in vs)
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
