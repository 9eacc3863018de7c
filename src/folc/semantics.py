"""The denotational evaluator: states to answer sets, parameterized by a policy.

Atoms are pushed into the store and handed to the policy's infer; disjunction
is nondeterministic choice, conjunction sequential composition.  Negation
evaluates its body first and either keeps the input state, fails, or records
the negated formula as a constraint.  Existential quantification renames the
bound variable to a machine-fresh one and drops it from every surviving
state afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra, subst_names
from .infer import InferPolicy
from .state import ERROR, Pair, cons_plus, dedup, drop_state
from .syntax import (
    ATOMIC_TYPES,
    And,
    Exists,
    Formula,
    Not,
    Or,
    all_names,
    max_fresh_index,
    rename_free,
)


@dataclass
class EvalContext:
    """Evaluation environment: algebra, policy, fresh-name counter, trace sink.

    Issued names are globally unused: the counter is moved past every
    $u<n> name in the inputs of the evaluate calls made on this context.
    That priming walks every name of the formula, store and substitution,
    so it waits for the first fresh_name after the call, and an evaluation
    that opens no quantifier never pays for it.  No name is issued between
    an evaluate call and its first fresh_name, so the names are those that
    priming at the call would give.  A call that finds the previous call's
    inputs still waiting primes past them first, so at most one call's
    inputs are held.
    """

    algebra: Algebra
    policy: InferPolicy
    fresh_counter: int = 0
    trace: object = None  # optional callable taking one dict per event
    # the (formula, state) of the last evaluate call, until the counter is primed past it
    _unprimed: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def fresh_name(self) -> str:
        if self._unprimed is not None:
            self._prime()
        self.fresh_counter += 1
        return f"$u{self.fresh_counter}"

    def _begin(self, phi: Formula, sigma) -> None:
        """Note the inputs of an evaluate call, priming past the earlier call's first."""
        if self._unprimed is not None:
            self._prime()
        self._unprimed = (phi, sigma)

    def _prime(self) -> None:
        phi, sigma = self._unprimed
        self._unprimed = None
        _prime_counter(self, phi, sigma)


def make_context(algebra: Algebra, policy: InferPolicy, trace=None) -> EvalContext:
    policy.check_algebra(algebra)
    return EvalContext(algebra=algebra, policy=policy, trace=trace)


def _prime_counter(ctx: EvalContext, phi: Formula, sigma) -> None:
    names = set(all_names(phi))
    if sigma is not ERROR:
        names |= subst_names(sigma.subst)
        for f in sigma.store:
            names |= all_names(f)
    ctx.fresh_counter = max(ctx.fresh_counter, max_fresh_index(names))


def evaluate(phi: Formula, sigma, ctx: EvalContext):
    """The meaning of phi in sigma: an answer set of states."""
    ctx._begin(phi, sigma)
    return _eval(phi, sigma, ctx)


def eval_set(phi: Formula, states, ctx: EvalContext):
    """Pointwise union of evaluate over a set of states (the conjunction lift)."""
    return dedup([s for sigma in states for s in evaluate(phi, sigma, ctx)])


def _infer(sigma, ctx: EvalContext):
    result = ctx.policy.apply(sigma, ctx.algebra)
    if ctx.trace is not None:
        ctx.trace(
            {
                "event": "infer",
                "policy": ctx.policy.name,
                "state": str(sigma),
                "output": [str(s) for s in result],
            }
        )
    return result


def _eval(phi: Formula, sigma, ctx: EvalContext):
    """The answer set of phi in sigma: one branch per clause, then its trace event."""
    if sigma is ERROR:
        result = (ERROR,)  # there is no recovery from error
    elif isinstance(phi, ATOMIC_TYPES):
        result = dedup(_infer(Pair(sigma.store.add(phi), sigma.subst), ctx))
    elif isinstance(phi, Or):
        result = dedup(_eval(phi.lhs, sigma, ctx) + _eval(phi.rhs, sigma, ctx))
    elif isinstance(phi, And):
        # the lhs answers hold only the inputs' names and issued ones: nothing to prime;
        # a loop, as a comprehension is a frame of its own on 3.10 and 3.11
        out = []
        for st in _eval(phi.lhs, sigma, ctx):
            out += _eval(phi.rhs, st, ctx)
        result = dedup(out)
    elif isinstance(phi, Not):
        # one filter serves both tests: it keeps error, which never equals sigma
        inner = cons_plus(_eval(phi.body, sigma, ctx), ctx.algebra)
        if not inner:
            result = dedup(_infer(sigma, ctx))
        elif sigma in inner:
            result = ()
        else:
            result = dedup(_infer(Pair(sigma.store.add(phi), sigma.subst), ctx))
    elif isinstance(phi, Exists):
        u = ctx.fresh_name()
        inner = cons_plus(_eval(rename_free(phi.body, phi.var, u), sigma, ctx), ctx.algebra)
        result = dedup([s for st in inner for s in _infer(drop_state(u, st), ctx)])
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if ctx.trace is not None:  # the events print every state: build them only for a sink
        ctx.trace(
            {
                "event": "clause",
                "clause": type(phi).__name__.lower(),
                "formula": str(phi),
                "state": str(sigma),
                "output": [str(s) for s in result],
            }
        )
    return result
