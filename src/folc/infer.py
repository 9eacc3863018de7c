"""The infer-policy contract, six concrete policies, unification and the
linear-equation rewriter.

A policy maps a state to a set of states and has to satisfy the five
healthiness conditions (equivalence, renaming-insensitivity, sound
inconsistency, error preservation, identity on empty stores).  All policies
here except the baseline are maximal repetitions of a single propagation
step over a passive/active split of the store.

Such a policy is an instance of StorePolicy: a name, the algebras it is
sound over, an admission test deciding which stores it handles (any other
store is error), and one resolve rule, one subclass per rule (unification,
literal truth, disequations, Gaussian pivoting).  The admission tests are
isinstance tests on the formula and, for a negation, on its body.

Every atom reads as its relation and two sides (f.rel, f.lhs, f.rhs), and
the algebra's relations table decides it.  Every decision on one
constraint, by a resolve rule, by equation_step or by rewrite_linear,
answers in one vocabulary: ('bind', eta), with eta what acting on it
composes onto theta, ('drop',), ('fail',) or ('passive',) when the
constraint cannot be decided yet.  A verdict depends only on the constraint
and on theta restricted to its free variables.  The baseline reads passive
as error.  aux reaches the fixpoint of a repeated step (resolve every
constraint once, act on the last active one) but resolves again only the
constraints a binding touches; that step is the test reference in
tests/test_infer.py.  apply resolves the one formula past a closed prefix
itself, and calls aux only when it binds into a non-empty prefix.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    Algebra,
    JSubst,
    apply_subst,
    atom_truth,
    compose,
    eval_ground,
    j_eval,
    literal_truth,
    make_subst,
    subst_names,
)
from .state import (
    EMPTY_STORE,
    ERROR,
    Classification,
    Pair,
    classify,
    dedup,
    drop_subst,
)
from .syntax import (
    ATOM_TYPES,
    ATOMIC_TYPES,
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
    Term,
    Val,
    Var,
    all_names,
    free_vars,
    max_fresh_index,
    rename_free,
    term_vars,
)

_PASSIVE = ("passive",)

# ---------------------------------------------------------------------------
# Unification (Herbrand)


def mgu(s: Term, t: Term):
    """Most general unifier of two Herbrand terms, or None.

    Occurs check included; the result is idempotent.
    """
    subs: dict[str, Term] = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a = apply_subst(a, subs)
        b = apply_subst(b, subs)
        if a == b:
            continue
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a.name in term_vars(b):
                return None
            one = {a.name: b}
            subs = {k: apply_subst(v, one) for k, v in subs.items()}
            subs[a.name] = b
        elif (
            isinstance(a, App)
            and isinstance(b, App)
            and a.symbol == b.symbol
            and len(a.args) == len(b.args)
        ):
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return JSubst._of(subs)


# ---------------------------------------------------------------------------
# Single-constraint resolution (shared by the baseline and the passive-store
# policies)


def equation_step(s: Term, t: Term, theta: JSubst, J: Algebra):
    """One equation resolution: ('bind', eta), ('drop',), ('fail',) or ('passive',).

    bind: one side applies to a variable absent from the other side, and
    eta binds that variable to the other side.
    drop: both sides have identical J-values.  fail: ground with distinct
    values.  passive: anything else (the equation is not decidable yet).
    """
    sa = apply_subst(s, theta)
    ta = apply_subst(t, theta)
    if isinstance(ta, Var) and not isinstance(sa, Var):
        sa, ta = ta, sa
    if isinstance(sa, Var) and sa.name not in term_vars(ta):
        return ("bind", make_subst([(sa.name, ta)], J))
    sa, ta = j_eval(sa, J), j_eval(ta, J)
    if sa == ta:
        return ("drop",)
    if eval_ground(sa, J) is not None and eval_ground(ta, J) is not None:
        return ("fail",)
    return _PASSIVE


# ---------------------------------------------------------------------------
# Linear-equation rewriting (exact rationals)


def _linear_form(lhs: Term, rhs: Term, theta: JSubst):
    """lhs - rhs under theta as (constant, {var: nonzero coefficient}), or None if non-linear.

    One walk over an explicit stack: no term is rebuilt, and depth costs no
    recursion.  A variable theta binds is read as its value, which is not
    substituted into again: one simultaneous pass, as apply_subst makes.
    A sum scales its operands on the way down.  A product reads its two
    factors into accumulators of their own, and is linear when one of them
    is left with no nonzero coefficient, so 0 * x * y is linear.  Numbers
    stay ints while every value read is integral; a non-integral value
    brings in Fractions.
    """
    get = theta.get
    top = [0, {}]
    # (term, scale, whether theta applies, accumulator [constant, coefficients]),
    # or (the two factors' accumulators, scale, None, accumulator) to multiply out
    stack = [(lhs, 1, True, top), (rhs, -1, True, top)]
    while stack:
        t, k, bound, acc = stack.pop()
        if isinstance(t, App):
            symbol = t.symbol
            if symbol == "+" or symbol == "-":
                a, b = t.args
                stack.append((a, k, bound, acc))
                stack.append((b, k if symbol == "+" else -k, bound, acc))
            elif symbol == "*":
                a, b = t.args
                factors = ([0, {}], [0, {}])
                stack.append((factors, k, None, acc))
                stack.append((a, 1, bound, factors[0]))
                stack.append((b, 1, bound, factors[1]))
            else:
                return None
        elif isinstance(t, Var):
            v = get(t.name) if bound else None
            if v is None:
                coeffs = acc[1]
                coeffs[t.name] = coeffs.get(t.name, 0) + k
            else:
                stack.append((v, k, False, acc))
        elif isinstance(t, Val):
            n = t.value
            acc[0] += k * (n.numerator if n.denominator == 1 else n)
        else:
            (ca, va), (cb, vb) = t
            va = {v: c for v, c in va.items() if c}
            vb = {v: c for v, c in vb.items() if c}
            if va and vb:
                return None
            if va:  # the constant factor first
                ca, va, cb, vb = cb, vb, ca, va
            m = k * ca
            acc[0] += m * cb
            if m:
                coeffs = acc[1]
                for v, c in vb.items():
                    coeffs[v] = coeffs.get(v, 0) + m * c
    const, coeffs = top
    return const, {v: c for v, c in coeffs.items() if c}


def _affine_term(const: Fraction, coeffs: dict) -> Term:
    """Canonical term for const + sum(coef * var), variables in name order."""
    expr = None
    if const != 0 or not coeffs:
        expr = Val(const)
    for v, c in sorted(coeffs.items()):
        part = Var(v) if abs(c) == 1 else App("*", (Val(abs(c)), Var(v)))
        if expr is None:
            expr = part if c > 0 else App("*", (Val(c), Var(v)))
        elif c < 0:
            expr = App("-", (expr, part))
        else:
            expr = App("+", (expr, part))
    return expr


def rewrite_linear(e: Eq, theta: JSubst, J: Algebra):
    """Resolve (lhs = rhs) under theta by reading lhs - rhs as a linear form.

    ('drop',) for 0 = 0, ('fail',) for r = 0 with r nonzero, ('passive',)
    when products of variables survive, otherwise ('bind', eta) with eta the
    pivot x = u, x the lexicographically first variable with a nonzero
    coefficient.  Every number of the pivot's value is a Fraction, as the
    algebra's own numbers are.
    """
    form = _linear_form(e.lhs, e.rhs, theta)
    if form is None:
        return _PASSIVE
    const, coeffs = form
    if not coeffs:
        return ("drop",) if const == 0 else ("fail",)
    x = min(coeffs)
    cx = coeffs[x]
    u = _affine_term(
        Fraction(-const, cx), {v: Fraction(-c, cx) for v, c in coeffs.items() if v != x}
    )
    return ("bind", make_subst([(x, u)], J))


# ---------------------------------------------------------------------------
# The policy contract and the store policies


class InferPolicy:
    """Base for the shipped store-management policies."""

    name = "?"
    algebras: tuple[str, ...] | None = None  # None: any algebra

    def apply(self, sigma, J: Algebra):
        raise NotImplementedError

    def check_algebra(self, J: Algebra) -> None:
        if self.algebras is not None and J.name not in self.algebras:
            raise ValueError(
                f"policy {self.name!r} is only sound over {'/'.join(self.algebras)}, "
                f"not {J.name}"
            )

    def __repr__(self):
        return f"<policy {self.name}>"


def _watched(f: Formula) -> frozenset:
    """free_vars(f), computed once per node and kept in its _watched slot."""
    vs = f._watched
    if vs is None:
        vs = f._watched = frozenset(free_vars(f))
    return vs


def aux(policy: StorePolicy, sigma, J: Algebra, last=None):
    """Maximal repetition of one step: () on fail, else the fixpoint state.

    Each round acts as the step of tests/test_infer.py does, on the last
    active constraint, and leaves the passive constraints followed by the
    remaining active ones; but a verdict is kept across rounds until a bind
    may have moved it: until a bind changes one of the constraint's free
    variables.  Acting on a bind composes the current theta with its eta;
    the changed names, read from eta and theta before composing, are the
    names eta binds that theta does not and theta's names whose value
    mentions a name eta binds: the bindings compose rewrites or adds.

    last, if given, is (outcome, theta'): what resolve gave for the store's
    last item under theta'.  It stands for that item's first resolve when
    theta' is sigma's substitution itself, and is ignored otherwise.

    The store is built once, at the fixpoint, and marked closed under
    (policy, J, theta).  Store.add keeps the mark, so the next aux on that
    store and substitution starts from the formulas added since.  The
    closed prefix stays implicit, as a range of positions: its items are
    passive, so each round's order is the prefix's items still passive, in
    position order, then the worked entries.  A prefix item enters the
    round only once a bind changes a name it watches; if it turns active it
    leaves the prefix and joins the round's active ones ahead of the
    entries, where the step's stable split would put it.
    """
    store, theta = sigma.store, sigma.subst
    items = store.items
    known = store.closed_prefix(policy, J, theta)
    prefix = range(known)  # positions of the closed items still passive under theta
    woken = ()  # positions in prefix that the last bind may have moved
    # (formula, verdict or None while unknown)
    entries = [(f, None) for f in items[known:]]
    if last is not None and last[1] is theta:
        entries[-1] = (items[-1], last[0])
    removed = []
    while True:
        passive, active = [], []
        if woken:
            gone = set()
            for i in woken:
                outcome = policy.resolve(items[i], theta, J)
                if outcome[0] != "passive":
                    gone.add(i)
                    active.append((items[i], outcome))
            if gone:
                prefix = [i for i in prefix if i not in gone]
        for e in entries:
            if e[1] is None:
                e = (e[0], policy.resolve(e[0], theta, J))
            (passive if e[1][0] == "passive" else active).append(e)
        if not active:
            break
        f, outcome = active.pop()
        if outcome[0] == "fail":
            return ()
        removed.append(f)
        entries = passive + active
        woken = ()
        if outcome[0] == "bind":
            eta = outcome[1]._mapping  # changed: the names compose rewrites or adds
            changed = eta.keys() - theta._mapping.keys()
            changed.update(n for n, vs in theta._value_vars.items() if not vs.isdisjoint(eta))
            theta = compose(theta, outcome[1], J)
            if changed:
                entries = [
                    e if changed.isdisjoint(_watched(e[0])) else (e[0], None)
                    for e in entries
                ]
                # Each prefix item's _watched slot is read in place, without a
                # Python call per item: on CPython 3.11 a call whose frame falls
                # just past the end of a frame-stack chunk maps and unmaps a
                # fresh chunk, a page fault per call, and where chunks end moves
                # with every frame size on the stack.
                woken = [
                    i
                    for i in prefix
                    if not changed.isdisjoint(items[i]._watched or _watched(items[i]))
                ]
    if removed:
        kept = items[:known] if len(prefix) == known else tuple(items[i] for i in prefix)
        store = store.successor(kept + tuple([e[0] for e in entries]), removed)
        sigma = Pair(store, theta)
    store.mark_closed(policy, J, theta)
    return (sigma,)


class StorePolicy(InferPolicy):
    """aux-driven policy: an admission test plus one resolve rule.

    apply hands a store to aux only when every formula passes admits; resolve
    classifies one constraint under the substitution as passive or as active
    with its outcome.
    """

    def __init__(self, name: str, algebras: tuple[str, ...] | None, admits):
        self.name = name
        self.algebras = algebras
        self.admits = admits

    def resolve(self, f: Formula, theta: JSubst, J: Algebra):
        """('bind', eta) | ('drop',) | ('fail',) | ('passive',) for one constraint."""
        raise NotImplementedError

    def apply(self, sigma, J: Algebra):
        """aux on an admitted store; otherwise () if classify finds it inconsistent, else error.

        Only the items past store.closed_prefix(self, J, theta) are tested.
        A closed record is written only by aux or here, at the fixpoint of a
        store that this same policy object admitted, on a subset of its
        items; Store.add carries it over only the items it held.  Admission
        does not read theta, so the items the record covers are admitted
        still.

        An admitted store needs no classify.  A literal that is ground and
        false under theta stays so under every compose, which keeps ground
        values as they are, and every policy resolves it to fail, never to
        passive or drop.  So it stays in the store until it is the last
        active constraint, and aux returns () as classify would have.

        When the closed prefix is every item but the last, the one formula
        an atom or a negation has just added, apply resolves that formula
        itself.  Every prefix item is passive under theta, and only a bind
        changes theta, so aux's first round would act on this formula and
        nothing else: a passive one leaves a fixpoint, the input state; a
        fail is (); a drop leaves the prefix, passive still, so at a
        fixpoint.  A bind into an empty prefix is the empty store with theta
        composed with eta; into a non-empty one it may move prefix items, so
        aux takes over with the outcome in hand, composes, and resolves only
        the items that watch a changed name.
        """
        if sigma is ERROR:
            return (ERROR,)
        store = sigma.store
        n = len(store)
        if n == 0:
            return (sigma,)
        theta = sigma.subst
        known = store.closed_prefix(self, J, theta)
        if not all(map(self.admits, store.items[known:])):
            if classify(sigma, J) is Classification.INCONSISTENT:
                return ()
            return (ERROR,)
        if known != n - 1:
            return aux(self, sigma, J)
        f = store.items[-1]
        outcome = self.resolve(f, theta, J)
        tag = outcome[0]
        if tag == "passive":
            store.mark_closed(self, J, theta)
            return (sigma,)
        if tag == "fail":
            return ()
        if tag == "drop":
            prefix = store.successor(store.items[:known], (f,))
            prefix.mark_closed(self, J, theta)
            return (Pair(prefix, theta),)
        if not known:
            return (Pair(EMPTY_STORE, compose(theta, outcome[1], J)),)
        return aux(self, sigma, J, (outcome, theta))


class UnifyPolicy(StorePolicy):
    """Equations as active constraints: every step is a unification."""

    def resolve(self, f, theta, J):
        eta = mgu(apply_subst(f.lhs, theta), apply_subst(f.rhs, theta))
        return ("fail",) if eta is None else ("bind", eta)


class LiteralsPolicy(StorePolicy):
    """Literals that would evaluate to error wait in the store as passive tests."""

    def resolve(self, f, theta, J):
        if isinstance(f, Eq):
            return equation_step(f.lhs, f.rhs, theta, J)
        truth = literal_truth(f, theta, J)
        if truth is None:
            return _PASSIVE
        return ("drop",) if truth else ("fail",)


class DiseqPolicy(UnifyPolicy):
    """Equality and disequality constraints over Herbrand.

    Equations are always active (full unification); a disequation is active
    when it is ground under the substitution or both sides coincide.
    """

    def resolve(self, f, theta, J):
        if isinstance(f, Eq):
            return super().resolve(f, theta, J)
        d = f.body if isinstance(f, Not) else f  # s /= t or ~(s = t)
        sa = apply_subst(d.lhs, theta)
        ta = apply_subst(d.rhs, theta)
        if sa == ta:
            return ("fail",)
        if eval_ground(sa, J) is not None and eval_ground(ta, J) is not None:
            return ("drop",)  # ground and distinct: the disequation holds
        return _PASSIVE


class LinearPolicy(StorePolicy):
    """Linear equations active (Gaussian elimination), non-linear ones passive."""

    def resolve(self, f, theta, J):
        return rewrite_linear(f, theta, J)


def _is_equation(f: Formula) -> bool:
    return isinstance(f, Eq)


def _is_positive_literal(f: Formula) -> bool:
    return isinstance(f, (Atom, Eq))


def _is_literal(f: Formula) -> bool:
    return isinstance(f, (Atom, Eq, Neq)) or isinstance(f, Not) and isinstance(f.body, (Atom, Eq))


def _is_equality_literal(f: Formula) -> bool:
    return isinstance(f, (Eq, Neq)) or isinstance(f, Not) and isinstance(f.body, Eq)


# ---------------------------------------------------------------------------
# The baseline (store-free) policy


def baseline_infer(sigma, J: Algebra):
    """The reference infer: singleton atomic stores resolved, all else errors.

    The literals policy's resolve decides the one constraint; what that
    policy would keep passive is error here.
    """
    if sigma is ERROR:
        return (ERROR,)
    if len(sigma.store) == 0:
        return (sigma,)
    f = sigma.store.items[0]
    if len(sigma.store) == 1 and isinstance(f, ATOMIC_TYPES):
        outcome = LITERALS.resolve(f, sigma.subst, J)
        if outcome[0] == "bind":
            return (Pair(EMPTY_STORE, compose(sigma.subst, outcome[1], J)),)
        if outcome[0] == "drop":
            return (Pair(EMPTY_STORE, sigma.subst),)
        if outcome[0] == "fail":
            return ()
    return (ERROR,)


class BaselinePolicy(InferPolicy):
    name = "baseline"

    def apply(self, sigma, J):
        return baseline_infer(sigma, J)


# module-level policy instances

BASELINE = BaselinePolicy()
UNIFY = UnifyPolicy("unify", ("herbrand",), _is_equation)
ATOMS = LiteralsPolicy("atoms", None, _is_positive_literal)  # literal_truth is atom_truth on atoms
LINEAR = LinearPolicy("linear", ("rat",), _is_equation)
LITERALS = LiteralsPolicy("literals", None, _is_literal)
DISEQ = DiseqPolicy("diseq", ("herbrand",), _is_equality_literal)

POLICIES = {p.name: p for p in (BASELINE, UNIFY, ATOMS, LINEAR, LITERALS, DISEQ)}


def get_policy(name: str) -> InferPolicy:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(sorted(POLICIES))}")


# ---------------------------------------------------------------------------
# The store-free reference semantics


def storeless_eval(phi: Formula, theta: JSubst, J: Algebra):
    """The store-free reference semantics: a set of substitutions and errors.

    Atoms must be decidable under the current substitution or the whole
    evaluation degrades to the error state; the baseline policy embeds this
    semantics into the store-carrying evaluator.  Used as the reference
    side of the embedding differential test, so it decides atoms itself,
    through the term layer only.  An equation binds its variable side when
    that variable does not occur in the other side (the left side when both
    are variables), holds when both sides have one J-value, and fails when
    both are ground.  Any other atom holds or fails by its ground truth.  An
    atom it cannot decide is error.
    """
    counter = [max_fresh_index(all_names(phi) | subst_names(theta))]

    def fresh() -> str:
        counter[0] += 1
        return f"$u{counter[0]}"

    def rec(f: Formula, th: JSubst):
        if isinstance(f, Bottom):
            return ()
        if isinstance(f, Eq):
            sa = apply_subst(f.lhs, th)
            ta = apply_subst(f.rhs, th)
            if isinstance(ta, Var) and not isinstance(sa, Var):
                sa, ta = ta, sa
            if isinstance(sa, Var) and sa.name not in term_vars(ta):
                return (compose(th, make_subst([(sa.name, ta)], J), J),)
            if j_eval(sa, J) == j_eval(ta, J):
                return (th,)
        if isinstance(f, ATOM_TYPES):
            truth = atom_truth(f, th, J)
            return (ERROR,) if truth is None else (th,) if truth else ()
        if isinstance(f, And):
            out = []
            for r in rec(f.lhs, th):
                if r is ERROR:
                    out.append(ERROR)
                else:
                    out.extend(rec(f.rhs, r))
            return dedup(out)
        if isinstance(f, Or):
            return dedup(rec(f.lhs, th) + rec(f.rhs, th))
        if isinstance(f, Not):
            inner = rec(f.body, th)
            if not inner:
                return (th,)
            if th in inner:
                return ()
            return (ERROR,)
        if isinstance(f, Exists):
            u = fresh()
            out = []
            for r in rec(rename_free(f.body, f.var, u), th):
                out.append(ERROR if r is ERROR else drop_subst(u, r))
            return dedup(out)
        raise TypeError(f"not a formula: {f!r}")

    return rec(phi, theta)
