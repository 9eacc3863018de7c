"""Algebras, generalized-term evaluation, J-substitutions and atom truth.

An algebra J interprets a signature by two tables, one operation per
function symbol and one predicate per relation symbol; every evaluation
below is a lookup in them.
"""

from __future__ import annotations

from functools import partial
from operator import add, eq, le, lt, mul, ne, sub

from .syntax import (
    ATOM_TYPES,
    App,
    Bottom,
    Not,
    Signature,
    Term,
    Val,
    Var,
    _apply_app,
    apply_subst,
    parse_substitution_pairs,
    term_vars,
    write_to,
)


class Algebra:
    """A signature with an interpretation: two tables from symbols to operations.

    functions maps each function symbol to a callable on carrier elements,
    relations each relation symbol, = and /= included, to a predicate.  For
    the arithmetic algebras the carrier elements are Python ints or
    Fractions carried in Val leaves; for Herbrand the carrier is the set of
    ground terms and each constructor builds its own App.
    """

    def __init__(self, name, signature, functions, relations):
        self.name = name
        self.signature = signature
        self.functions = functions
        self.relations = relations
        self.numeric = signature.numeric

    def __repr__(self):
        return f"Algebra({self.name})"


_ARITH_FUNCTIONS = {"+": add, "-": sub, "*": mul}
_ARITH_RELATIONS = {"=": eq, "/=": ne, "<": lt, "<=": le}


def _arith_algebra(numeric) -> Algebra:
    sig = Signature(dict.fromkeys(_ARITH_FUNCTIONS, 2), numeric)
    return Algebra(numeric, sig, _ARITH_FUNCTIONS, _ARITH_RELATIONS)


def int_algebra() -> Algebra:
    return _arith_algebra("int")


def rat_algebra() -> Algebra:
    """Exact rationals; the "reals" of the Gaussian-elimination policy."""
    return _arith_algebra("rat")


def _construct(symbol, *args):
    return App(symbol, args)


def herbrand_algebra(constructors) -> Algebra:
    """Herbrand algebra over the given constructors ((name, arity) pairs).

    At least one constructor must be a constant, or there are no ground terms.
    """
    sig = Signature(constructors)
    if 0 not in sig.functions.values():
        raise ValueError("--sig declares no constant, so the Herbrand universe is empty")
    functions = {name: partial(_construct, name) for name in sig.functions}
    return Algebra("herbrand", sig, functions, {"=": eq, "/=": ne})


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

    Fixpoint of itself; over Herbrand it is the identity.  A subterm with no
    ground App below it comes back as the same object.
    """
    if J.numeric is None or not isinstance(t, App):
        return t
    return _j_eval_app(t, J, {})


def _j_eval_app(t: App, J: Algebra, memo: dict) -> Term:
    """j_eval on an App of a numeric algebra, memoised on node identity like _apply_app."""
    out = memo.get(id(t))
    if out is not None:
        return out
    args = []
    changed = False
    ground = True
    for a in t.args:
        if isinstance(a, App):
            b = _j_eval_app(a, J, memo)
            changed = changed or b is not a
        else:
            b = a
        ground = ground and isinstance(b, Val)
        args.append(b)
    if ground:
        out = Val(J.functions[t.symbol](*[b.value for b in args]))
    else:
        out = App(t.symbol, tuple(args)) if changed else t
    memo[id(t)] = out
    return out


def eval_ground(t: Term, J: Algebra):
    """The J-value of a ground term (a number, or the term itself for Herbrand)."""
    if J.numeric is None:
        return t
    if isinstance(t, Val):
        return t.value
    if isinstance(t, App):
        return J.functions[t.symbol](*[eval_ground(a, J) for a in t.args])
    raise ValueError(f"not ground: {t!r}")


# ---------------------------------------------------------------------------
# J-substitutions

_MASK = (1 << 64) - 1


def _mix(h: int) -> int:
    """Spread a pair hash over 64 bits, as frozenset's hash does for its entries.

    Tuple hashes are close to linear in their items' hashes, so plain sums
    of them collide often: the 1,024 answers of a 10-way disjunction chain
    summed to fewer than 200 distinct hashes.
    """
    return ((h ^ 89869747) ^ (h << 16)) * 3644798167 & _MASK


class JSubst:
    """Finite map from variables to J-terms, kept in normal form.

    The name-to-value dict is the substitution.  Normal form: no x/x
    binding, every value a j_eval fixpoint.  Build instances through
    make_subst, compose or without.  bindings, the pairs in name order, is
    sorted anew on each read, for the readers that see order: the printer,
    domain and repr.

    The hash is additive, the sum of the mixed pair hashes (_mix), so that
    compose and without can update it by difference; they carry it only
    once it has been computed, since most substitutions are never hashed
    (state.dedup hashes no state of a one-state answer set).  It and the
    value-variable index are computed on first use and kept in slots; ==
    compares the maps.  Like App's, the hash holds only in the process that
    computed it.
    """

    __slots__ = ("_mapping", "_vars", "_hash")

    def __init__(self, bindings=()):
        self._mapping = dict(bindings)
        self._vars = self._hash = None

    @classmethod
    def _of(cls, mapping: dict, value_vars=None, h=None) -> JSubst:
        """A substitution that takes over mapping, with the caches already known."""
        s = object.__new__(cls)
        s._mapping, s._vars, s._hash = mapping, value_vars, h
        return s

    def __eq__(self, other):
        return isinstance(other, JSubst) and self._mapping == other._mapping

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = sum(_mix(hash(p)) for p in self._mapping.items())
        return self._hash

    def __repr__(self) -> str:
        return f"JSubst(bindings={self.bindings!r})"

    @property
    def bindings(self) -> tuple[tuple[str, Term], ...]:
        return tuple(sorted(self._mapping.items()))

    @property
    def _value_vars(self) -> dict[str, frozenset[str]]:
        """Name -> the variables of its value, for the non-ground values only."""
        if self._vars is None:
            self._vars = {n: frozenset(vs) for n, t in self._mapping.items() if (vs := term_vars(t))}
        return self._vars

    def get(self, name: str):
        return self._mapping.get(name)

    def domain(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.bindings)

    def is_empty(self) -> bool:
        return not self._mapping

    def without(self, names) -> JSubst:
        """self without the bindings of names; the caches it has carry over by difference."""
        gone = self._mapping.keys() & names
        if not gone:
            return self
        mapping = dict(self._mapping)
        dropped = [(name, mapping.pop(name)) for name in gone]
        h = None if self._hash is None else self._hash - sum(_mix(hash(p)) for p in dropped)
        vv = None if self._vars is None else {n: vs for n, vs in self._vars.items() if n not in gone}
        return JSubst._of(mapping, vv, h)

    def write(self, out: list) -> None:
        """Append the printed substitution to out, {x/t, ...}, as one joined string.

        A Var or Val value is printed in place; only a compound value goes
        through the term printer.  A Val prints as str of its value, as in
        write_to: str of a Fraction is its numerator when it is integral.
        """
        parts = []
        for name, t in self.bindings:
            cls = type(t)
            if cls is Val:
                parts.append(name + "/" + str(t.value))
            elif cls is Var:
                parts.append(name + "/" + t.name)
            else:
                piece = [name, "/"]
                write_to(piece, t)
                parts.append("".join(piece))
        out.append("{" + ", ".join(parts) + "}")

    def __str__(self) -> str:
        out: list[str] = []
        self.write(out)
        return "".join(out)


EMPTY_SUBST = JSubst()


def make_subst(pairs, J: Algebra) -> JSubst:
    """Normalizing constructor: j-evaluates values and drops identities."""
    out = {}
    for name, t in pairs:
        if name in out:
            raise ValueError(f"duplicate binding for {name}")
        v = j_eval(t, J)
        if isinstance(v, Var) and v.name == name:
            continue
        out[name] = v
    return JSubst._of(out)


_NO_VARS = frozenset()


def compose(theta: JSubst, eta: JSubst, J: Algebra) -> JSubst:
    """The unique gamma with x.gamma = j_eval((x.theta).eta) for every x.

    A copy of theta's map in which only the non-ground values that mention
    dom(eta) are rewritten, with one memo per walk across them, plus eta's
    other bindings.  So the names whose binding changes are exactly those
    two sets, theta's names whose value mentions dom(eta) (a rewrite to x/x
    unbinds x) and the names eta binds that theta does not; every other
    binding keeps its value object.  gamma's caches are theta's, updated by
    difference; the hash only when theta has computed it.
    """
    old, eta_map = theta._mapping, eta._mapping
    if not eta_map:
        return theta
    if not old:
        return eta
    eta_vars = eta._value_vars
    mapping = dict(old)
    value_vars = dict(theta._value_vars)
    h = theta._hash
    apply_memo, eval_memo = {}, {}
    for name, ov in theta._value_vars.items():
        if ov.isdisjoint(eta_map):
            continue
        t = old[name]
        if isinstance(t, Var):
            v = eta_map[t.name]
        else:
            v = _apply_app(t, eta_map, apply_memo)
            if J.numeric is not None:
                v = _j_eval_app(v, J, eval_memo)
        del value_vars[name]
        if h is not None:
            h -= _mix(hash((name, t)))
        if isinstance(v, Var) and v.name == name:
            del mapping[name]
            continue
        mapping[name] = v
        if h is not None:
            h += _mix(hash((name, v)))
        nv = ov.difference(eta_map)
        for y in ov.intersection(eta_map):
            nv |= eta_vars.get(y, _NO_VARS)
        if nv:
            value_vars[name] = nv
    for name, v in eta_map.items():
        if name in old:
            continue
        mapping[name] = v
        if h is not None:
            h += _mix(hash((name, v)))
        vs = eta_vars.get(name)
        if vs:
            value_vars[name] = vs
    return JSubst._of(mapping, value_vars, h)


def parse_subst(text: str, J: Algebra) -> JSubst:
    return make_subst(parse_substitution_pairs(text, J.signature), J)


# ---------------------------------------------------------------------------
# Atom truth

def atom_truth(atom, theta: JSubst, J: Algebra):
    """Truth of an atom or (dis)equation under theta: True, False, or None (non-ground)."""
    lhs, rhs = apply_subst(atom.lhs, theta), apply_subst(atom.rhs, theta)
    if not (term_is_ground(lhs) and term_is_ground(rhs)):
        return None
    return J.relations[atom.rel](eval_ground(lhs, J), eval_ground(rhs, J))


def literal_truth(f, theta: JSubst, J: Algebra):
    """Ground truth of a literal (atom, (dis)equation, or its negation).

    Returns True/False when decided, None when non-ground or not a literal.
    """
    if isinstance(f, Bottom):
        return False
    if isinstance(f, ATOM_TYPES):
        return atom_truth(f, theta, J)
    if isinstance(f, Not):
        inner = literal_truth(f.body, theta, J)
        return None if inner is None else not inner
    return None


def subst_names(theta: JSubst) -> set[str]:
    """All variable names a substitution mentions (domain plus value variables)."""
    out = set(theta._mapping)
    for vs in theta._value_vars.values():
        out |= vs
    return out
