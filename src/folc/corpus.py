"""Seeded random generators for formulas, substitutions and states.

These feed the embedding differential test, the soundness/persistence
suites and the CLI's --corpus random mode.  Shapes are kept within the
oracle's exactness regime so most cases come back decided.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Algebra, EMPTY_SUBST, make_subst
from .state import EMPTY_STORE, Pair, Store
from .syntax import And, App, Atom, Eq, Exists, Neq, Not, Or, Val, Var

VAR_POOL = ("x", "y", "z")


def _int_term(rng: random.Random, names):
    r = rng.random()
    if r < 0.35:
        return Var(rng.choice(names))
    if r < 0.55:
        return Val(rng.randint(-2, 3))
    a = Var(rng.choice(names))
    op = rng.choice(("+", "-"))
    if r < 0.82:
        return App(op, (a, Val(rng.randint(1, 2))))
    return App(op, (a, Var(rng.choice(names))))


def _int_atom(rng: random.Random, names):
    s, t = _int_term(rng, names), _int_term(rng, names)
    r = rng.random()
    if r < 0.45:
        return Eq(s, t)
    if r < 0.65:
        return Atom("<", s, t)
    if r < 0.8:
        return Atom("<=", s, t)
    return Neq(s, t)


def _rat_term(rng: random.Random, names, linear_only=False):
    r = rng.random()
    if r < 0.27:
        return Var(rng.choice(names))
    if r < 0.45:
        return Val(Fraction(rng.randint(-3, 3)))
    if r < 0.65:
        return App("*", (Val(Fraction(rng.randint(1, 3))), Var(rng.choice(names))))
    if r < 0.95 or linear_only:
        op = rng.choice(("+", "-"))
        return App(op, (_rat_term(rng, names, linear_only), Var(rng.choice(names))))
    return App("*", (Var(rng.choice(names)), Var(rng.choice(names))))  # non-linear


def _rat_atom(rng: random.Random, names, linear_only=False):
    s = _rat_term(rng, names, linear_only)
    t = _rat_term(rng, names, linear_only)
    return Eq(s, t) if rng.random() < 0.8 else Neq(s, t)


def _herbrand_term(rng: random.Random, names, J: Algebra, depth: int = 1):
    constructors = list(J.signature.functions.items())
    r = rng.random()
    if r < 0.4:
        return Var(rng.choice(names))
    consts = [n for n, a in constructors if a == 0]
    fns = [(n, a) for n, a in constructors if a > 0]
    if depth <= 0 or not fns or r < 0.65:
        return App(rng.choice(consts), ())
    name, arity = rng.choice(fns)
    return App(name, tuple(_herbrand_term(rng, names, J, depth - 1) for _ in range(arity)))


def _herbrand_atom(rng: random.Random, names, J: Algebra):
    s, t = _herbrand_term(rng, names, J), _herbrand_term(rng, names, J)
    return Eq(s, t) if rng.random() < 0.6 else Neq(s, t)


def gen_atom(rng: random.Random, J: Algebra, names):
    if J.numeric == "int":
        return _int_atom(rng, names)
    if J.numeric == "rat":
        return _rat_atom(rng, names)
    return _herbrand_atom(rng, names, J)


def gen_formula(rng: random.Random, J: Algebra, depth: int, names=None, exists_ok=True, allow_or=True):
    """A random formula of connective depth <= depth over a small name pool."""
    if names is None:
        names = list(VAR_POOL[: rng.choice((2, 2, 2, 3))])
    if depth <= 0:
        return gen_atom(rng, J, names)
    r = rng.random()
    if r < 0.35:
        return gen_atom(rng, J, names)
    if r < 0.6:
        return And(
            gen_formula(rng, J, depth - 1, names, exists_ok, allow_or),
            gen_formula(rng, J, depth - 1, names, exists_ok, allow_or),
        )
    if r < 0.75 and allow_or:
        return Or(
            gen_formula(rng, J, depth - 1, names, exists_ok, allow_or),
            gen_formula(rng, J, depth - 1, names, exists_ok, allow_or),
        )
    if r < 0.9 or not exists_ok:
        # a disjunction under a negation never forks the evaluation
        return Not(gen_formula(rng, J, depth - 1, names, exists_ok, allow_or=True))
    return Exists(rng.choice(names), gen_formula(rng, J, depth - 1, names, False, allow_or))


def gen_value_term(rng: random.Random, J: Algebra):
    if J.numeric == "int":
        return Val(rng.randint(-2, 2))
    if J.numeric == "rat":
        return Val(Fraction(rng.randint(-2, 2)))
    return _herbrand_term(rng, ["x"], J, depth=1 if rng.random() < 0.3 else 0)


def gen_subst(rng: random.Random, J: Algebra, names):
    pairs = []
    for name in names:
        if rng.random() < 0.4:
            value = gen_value_term(rng, J)
            if value != Var(name):
                pairs.append((name, value))
    return make_subst(pairs, J)


def gen_store_formula(rng: random.Random, J: Algebra, policy_name: str, names):
    """A constraint the given policy is comfortable keeping in the store."""
    if policy_name == "unify":
        return Eq(Var(rng.choice(names)), _herbrand_term(rng, names, J))
    if policy_name == "diseq":
        s, t = _herbrand_term(rng, names, J), _herbrand_term(rng, names, J)
        return Neq(s, t) if rng.random() < 0.6 else Eq(s, t)
    if policy_name == "linear":
        return _rat_atom(rng, names, linear_only=True)
    if policy_name == "literals" and rng.random() < 0.5:
        return Not(gen_atom(rng, J, names))
    return gen_atom(rng, J, names)


def gen_state(rng: random.Random, J: Algebra, policy_name: str, names):
    r = rng.random()
    if r < 0.5:
        return Pair(EMPTY_STORE, EMPTY_SUBST)
    theta = gen_subst(rng, J, names) if r < 0.85 else EMPTY_SUBST
    store = EMPTY_STORE
    if r >= 0.7:
        store = Store([gen_store_formula(rng, J, policy_name, names)])
    return Pair(store, theta)


def soundness_corpus(seed: int, J: Algebra, policy_name: str, n: int, depth: int = 4):
    """n random (formula, state) cases for the soundness suite."""
    rng = random.Random(seed)
    exists_ok = J.numeric != "rat"  # the rational oracle fragment is quantifier-free
    out = []
    for _ in range(n):
        names = list(VAR_POOL[: rng.choice((2, 2, 3))])
        phi = gen_formula(rng, J, rng.randint(1, depth), names, exists_ok)
        out.append((phi, gen_state(rng, J, policy_name, names)))
    return out


def _tautology(rng: random.Random, J: Algebra, names):
    if rng.random() < 0.5:
        t = gen_value_term(rng, J)
        return Eq(t, t)
    a = gen_atom(rng, J, names)
    return Or(a, Not(a))


def persistence_corpus(seed: int, J: Algebra, policy_name: str, n: int):
    """n random (phi1 & phi2, state) triples biased so the lemma premises fire.

    phi2 stays inside the fragment the persistence lemma actually covers
    (no disjunction outside a negation; see oracle.lemma_safe).
    """
    rng = random.Random(seed)
    exists_ok = J.numeric != "rat"
    out = []
    for _ in range(n):
        names = list(VAR_POOL[: rng.choice((2, 2, 3))])
        sigma = gen_state(rng, J, policy_name, names)
        r = rng.random()
        if r < 0.4:
            phi1 = _tautology(rng, J, names)
        elif r < 0.75:
            phi1 = gen_store_formula(rng, J, policy_name, names)
            sigma = Pair(sigma.store.add(phi1), sigma.subst)
        else:
            phi1 = gen_formula(rng, J, 1, names, exists_ok)
        phi2 = gen_formula(rng, J, rng.randint(1, 3), names, exists_ok, allow_or=False)
        out.append((And(phi1, phi2), sigma))
    return out


def embedding_corpus(seed: int, J: Algebra, n: int, depth: int = 4):
    """n random store-free (formula, substitution) inputs."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        names = list(VAR_POOL[: rng.choice((2, 3))])
        phi = gen_formula(rng, J, rng.randint(1, depth), names)
        out.append((phi, gen_subst(rng, J, names)))
    return out


def gen_pair_of_terms(rng: random.Random, J: Algebra, names, depth: int = 2):
    """Term pairs for the unification suite."""
    return (
        _herbrand_term(rng, names, J, depth),
        _herbrand_term(rng, names, J, depth),
    )
