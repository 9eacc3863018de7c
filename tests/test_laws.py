"""Laws of the evaluator's clauses, checked exactly and without the oracle.

Each law follows from the clause definitions alone, so it holds on every
answer set, error states included, where the oracle checks only the
non-error ones.  Answers are compared after renaming their machine-fresh
$u names in order of first appearance: a law's two sides may issue fresh
names in a different order or number.  The law on the inputs' own $u names
compares the printed answers themselves, since it is about those names.
"""

import functools
import itertools
import re

import pytest

from folc.algebra import JSubst, apply_subst, herbrand_algebra, int_algebra, rat_algebra
from folc.corpus import soundness_corpus
from folc.infer import POLICIES, get_policy
from folc.semantics import eval_set, evaluate, make_context
from folc.state import Pair, Store
from folc.syntax import And, Exists, Not, Or, Var, rename_free

INT = int_algebra()
HERB = herbrand_algebra([("f", 1), ("g", 2), ("a", 0), ("b", 0)])
ALGEBRA = {"linear": rat_algebra(), "unify": HERB, "diseq": HERB}
SEED = 7
N = 180

_FRESH = re.compile(r"\$u\d+")


def canonical(states):
    """Each answer printed, its $u names renamed $u1, $u2, ... in order of first appearance."""
    out = []
    for s in states:
        seen = {}
        out.append(_FRESH.sub(lambda m: seen.setdefault(m.group(), f"$u{len(seen) + 1}"), str(s)))
    return out


def alpha(f, fresh):
    """f with every bound variable renamed to the next name of fresh."""
    if isinstance(f, Exists):
        v = next(fresh)
        return Exists(v, alpha(rename_free(f.body, f.var, v), fresh))
    if isinstance(f, Not):
        return Not(alpha(f.body, fresh))
    if isinstance(f, (And, Or)):
        return type(f)(alpha(f.lhs, fresh), alpha(f.rhs, fresh))
    return f


@functools.cache
def cases(policy):
    """(phi, psi, chi, sigma, answers): a corpus case's formula and state, the next
    two cases' formulas, and the canonical answers of phi in sigma."""
    ev = _Evaluator(policy)
    corpus = soundness_corpus(SEED, ev.J, policy, N + 2)
    return [
        (phi, corpus[i + 1][0], corpus[i + 2][0], sigma, canonical(ev(phi, sigma)))
        for i, (phi, sigma) in enumerate(corpus[:N])
    ]


def law_alpha(ev, phi, psi, chi, sigma, answers):
    return canonical(ev(alpha(phi, (f"w{k}" for k in itertools.count())), sigma)), answers


def law_or_associative(ev, phi, psi, chi, sigma, answers):
    return canonical(ev(Or(Or(phi, psi), chi), sigma)), canonical(ev(Or(phi, Or(psi, chi)), sigma))


def law_or_commutative(ev, phi, psi, chi, sigma, answers):
    return set(canonical(ev(Or(phi, psi), sigma))), set(canonical(ev(Or(psi, phi), sigma)))


def law_or_idempotent(ev, phi, psi, chi, sigma, answers):
    # a set law: each branch issues its own $u names, so dedup may keep both copies
    return set(canonical(ev(Or(phi, phi), sigma))), set(answers)


def law_and_is_the_lift(ev, phi, psi, chi, sigma, answers):
    ctx = ev.context()
    return canonical(ev(And(phi, psi), sigma)), canonical(eval_set(psi, evaluate(phi, sigma, ctx), ctx))


def law_vacuous_exists(ev, phi, psi, chi, sigma, answers):
    # q is not in the corpus's name pool, so it is never free in phi
    return canonical(ev(Exists("q", phi), sigma)), answers


def with_z_renamed(phi, sigma, name):
    """phi and sigma with z renamed name: free in formulas, bound by sigma or in its values."""
    to = {"z": Var(name)}
    theta = JSubst([(name if n == "z" else n, apply_subst(t, to)) for n, t in sigma.subst.bindings])
    store = Store([rename_free(f, "z", name) for f in sigma.store])
    return rename_free(phi, "z", name), Pair(store, theta)


def law_input_fresh_names_shift_the_answers(ev, phi, psi, chi, sigma, answers):
    # issued names start past the inputs' $u names; both have three digits, so
    # shifting every $u<k> by 100 keeps name order and the printed order of bindings
    def printed(name):
        return [str(s) for s in ev(*with_z_renamed(phi, sigma, name))]

    shifted = [_FRESH.sub(lambda m: f"$u{int(m.group()[2:]) + 100}", s) for s in printed("$u100")]
    return printed("$u200"), shifted


LAWS = [
    law_alpha,
    law_or_associative,
    law_or_commutative,
    law_or_idempotent,
    law_and_is_the_lift,
    law_vacuous_exists,
    law_input_fresh_names_shift_the_answers,
]


class _Evaluator:
    """evaluate on a fresh context of one policy and its algebra."""

    def __init__(self, policy):
        self.J, self.policy = ALGEBRA.get(policy, INT), get_policy(policy)

    def context(self):
        return make_context(self.J, self.policy)

    def __call__(self, phi, sigma):
        return evaluate(phi, sigma, self.context())


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.__name__[4:])
def test_law(law, policy):
    ev = _Evaluator(policy)
    for phi, psi, chi, sigma, answers in cases(policy):
        lhs, rhs = law(ev, phi, psi, chi, sigma, answers)
        assert lhs == rhs, f"{law.__name__} fails on phi={phi}, psi={psi}, chi={chi}, sigma={sigma}"
