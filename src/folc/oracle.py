"""Brute-force satisfaction and satisfiability at desk scale.

This is the ground-truth side of every property suite: satisfaction is
decided by enumerating assignments of bounded domain elements to free
variables (re-enumerating quantifiers under the bound).  A syntactic guard
decides whether the bounded verdict is exact; anything outside the guard
comes back Unknown (None) rather than risking an unsound verdict.

Each query is searched like a constraint problem.  Its formulas are split
into conjuncts, and each conjunct is compiled once into a closure over an
environment of variable values.  The free variables are enumerated by
backtracking in fail-first order, and each conjunct is tested as soon as
its last free variable has a value, so one failing conjunct rules out every
extension of the partial assignment (Haralick and Elliott, "Increasing tree
search efficiency for constraint satisfaction problems", Artificial
Intelligence 14, 1980).  A quantifier remembers its verdict for each
assignment of its own free variables.  Before any of that, each conjunct is
simplified under all the others: an occurrence of another conjunct inside it
reads true, one of a negated conjunct's body reads false, and constants fold,
so a query whose own conjuncts already state its answer is answered with no
search at all.  None of this changes a verdict: which queries are admitted,
and over which candidates, is decided before any of it.

Over the exact rationals bounded enumeration cannot work (the order is
dense), so linear queries are decided exactly by Fourier-Motzkin
elimination instead; non-linear ones are Unknown.  A conjunction of rows is
feasible iff its equations and inequalities are, and each disequation is
feasible with them on its own.  That rule is exact over Q: the equations
and inequalities define a convex polyhedron, and one that lies in none of
finitely many hyperplanes does not lie in their union either (Lassez and
McAloon, "A canonical form for generalized linear constraints", J. Symbolic
Computation 13, 1992).  So k disequations cost at most 2k + 1 eliminations
rather than 2^k.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from operator import itemgetter

from .algebra import Algebra, JSubst, apply_subst, j_eval
from .semantics import make_context, evaluate
from .state import ERROR, Pair, cons, cons_plus, drop_subst
from .syntax import (
    ATOM_TYPES,
    And,
    App,
    Bottom,
    Exists,
    Formula,
    Not,
    Or,
    Term,
    Val,
    Var,
    all_names,
    free_vars,
    rename_free,
    with_sides,
)

UNKNOWN = None

_COST_CAP = 400_000
_WIDENED_COST_CAP = 4_000_000  # for the recheck's wider quantifier windows; it runs only on a would-be violation
_UNBOUND = object()


@dataclass(frozen=True)
class IntervalBound:
    """Finite-range arithmetic bound: candidate integers come from [lo, hi]
    widened by a slack margin derived from the query's constants."""

    lo: int
    hi: int


@dataclass(frozen=True)
class DepthBound:
    """Herbrand bound: ground terms up to the given constructor depth."""

    depth: int


def default_bound(J: Algebra):
    return DepthBound(3) if J.numeric is None else IntervalBound(-3, 3)


# ---------------------------------------------------------------------------
# Substitution application on formulas (capture avoiding)


def subst_formula(f: Formula, theta: JSubst, J: Algebra, _fresh=None) -> Formula:
    if theta.is_empty():
        return f
    if _fresh is None:
        _fresh = itertools.count(1)
    if isinstance(f, ATOM_TYPES):
        return with_sides(f, j_eval(apply_subst(f.lhs, theta), J), j_eval(apply_subst(f.rhs, theta), J))
    if isinstance(f, Not):
        return Not(subst_formula(f.body, theta, J, _fresh))
    if isinstance(f, (And, Or)):
        return type(f)(subst_formula(f.lhs, theta, J, _fresh), subst_formula(f.rhs, theta, J, _fresh))
    if isinstance(f, Exists):
        inner = drop_subst(f.var, theta)
        body_free = free_vars(f.body)
        incoming = set()
        for name, vs in inner._value_vars.items():
            if name in body_free:
                incoming |= vs
        body, var = f.body, f.var
        if var in incoming:
            taken = all_names(body) | incoming
            while True:
                var = f"$q{next(_fresh)}"
                if var not in taken:
                    break
            body = rename_free(body, f.var, var)
        return Exists(var, subst_formula(body, inner, J, _fresh))
    return f


# ---------------------------------------------------------------------------
# Atom collection and the exactness guard


def _collect_atoms(f: Formula, out: list) -> None:
    """Gather the (lhs, rhs) sides of f's atoms into out; Bottom carries none."""
    if isinstance(f, ATOM_TYPES):
        out.append((f.lhs, f.rhs))
    elif isinstance(f, (Not, Exists)):
        _collect_atoms(f.body, out)
    elif isinstance(f, (And, Or)):
        _collect_atoms(f.lhs, out)
        _collect_atoms(f.rhs, out)


def _quantifiers(f: Formula):
    """(nesting depth, number) of the quantifiers in f."""
    if isinstance(f, Exists):
        depth, count = _quantifiers(f.body)
        return depth + 1, count + 1
    if isinstance(f, Not):
        return _quantifiers(f.body)
    if isinstance(f, (And, Or)):
        (ld, lc), (rd, rc) = _quantifiers(f.lhs), _quantifiers(f.rhs)
        return max(ld, rd), lc + rc
    return 0, 0


def _lin(t: Term):
    """Independent linear extraction: (const, {var: coeff}) or None.

    Computes on the algebra's own exact numbers (ints, or Fractions over the
    rationals); a coefficient can be 0, as in 0 * x.
    """
    if isinstance(t, Val):
        return t.value, {}
    if isinstance(t, Var):
        return 0, {t.name: 1}
    if isinstance(t, App) and t.symbol in ("+", "-", "*"):
        a = _lin(t.args[0])
        b = _lin(t.args[1])
        if a is None or b is None:
            return None
        if t.symbol == "*":
            if not a[1]:
                return a[0] * b[0], {v: a[0] * c for v, c in b[1].items()}
            if not b[1]:
                return a[0] * b[0], {v: b[0] * c for v, c in a[1].items()}
            return None
        sign = 1 if t.symbol == "+" else -1
        coeffs = dict(a[1])
        for v, c in b[1].items():
            coeffs[v] = coeffs.get(v, 0) + sign * c
        return a[0] + sign * b[0], coeffs


def _lin_diff(lhs: Term, rhs: Term):
    """lhs - rhs as (const, {var: nonzero coeff}), or None when non-linear."""
    la, ra = _lin(lhs), _lin(rhs)
    if la is None or ra is None:
        return None
    coeffs = dict(la[1])
    for v, c in ra[1].items():
        coeffs[v] = coeffs.get(v, 0) - c
    return la[0] - ra[0], {v: c for v, c in coeffs.items() if c != 0}


def _term_depth(t: Term) -> int:
    if isinstance(t, App) and t.args:
        return 1 + max(_term_depth(a) for a in t.args)
    return 0


def _int_candidates(formulas, bound: IntervalBound, boost: int, qd: int):
    """(free candidates, quantifier windows), all ranges, or None when the guard refuses.

    Guard: every atom linear with small coefficient mass and a slack margin
    covering the query's constants, so truth cannot flip outside the
    enumerated interval for the shapes the corpus generates.  Quantified
    variables range over a wider interval: their witnesses are images of
    free values under the atoms, one slack step per nesting level (qd levels).

    That reach is sized for coefficient 1.  The recheck of a would-be
    violation (boost > 0) may scale it by up to the largest coefficient mass
    among the atoms, at most 4 by the guard: after x/y + y the witness of
    exists y. x < y lies past 2y.  So the quantifier windows are ranges,
    the unscaled one first, then the scaled one, and _enum_prepare takes
    the widest its cost caps admit: a recheck is never refused where the
    unscaled reach would be decided.  At boost 0 there is one window, so
    the decisions of the first pass do not move.
    """
    atoms: list = []
    for f in formulas:
        _collect_atoms(f, atoms)
    span = max(abs(bound.lo), abs(bound.hi))
    max_const = 0
    max_mass = 1
    for lhs, rhs in atoms:
        diff = _lin_diff(lhs, rhs)
        if diff is None:
            return None
        const, coeffs = diff
        mass = sum(abs(c) for c in coeffs.values())
        if mass > 4:
            return None
        max_const = max(max_const, abs(const))
        max_mass = max(max_mass, mass)
    if qd > 2:
        return None
    slack = max_const + span + 1 + boost
    if slack > 4 * span + 10:
        return None
    free = range(bound.lo - slack, bound.hi + slack + 1)
    reach = qd * (max_const + span + slack)
    reaches = [reach, reach * max_mass] if boost > 0 and max_mass > 1 else [reach]
    return free, [range(bound.lo - slack - r, bound.hi + slack + r + 1) for r in reaches]


_GROUND_CACHE: dict = {}
_GROUND_LIMIT = 2000


def ground_terms(signature, depth: int, limit: int = _GROUND_LIMIT):
    """All ground constructor terms up to the given depth, or None past limit.

    Binary constructors grow the term population doubly exponentially, so
    the enumeration bails out (None) once it would exceed the limit.  Each
    combination of arguments is a distinct term, so a constructor's round
    leaves the terms rooted elsewhere plus len(layers) ** arity; that count
    is checked before any of them is built.  The exponent is capped where
    any base of 2 or more already passes the limit.
    """
    key = (tuple(sorted(signature.functions.items())), depth, limit)
    if key in _GROUND_CACHE:
        return _GROUND_CACHE[key]
    seen = set()
    layers = []
    for name, arity in sorted(signature.functions.items()):
        if arity == 0:
            t = App(name, ())
            seen.add(t)
            layers.append(t)
    for _ in range(depth):
        nxt = []
        for name, arity in sorted(signature.functions.items()):
            if arity == 0:
                continue
            rooted = sum(1 for t in layers if t.symbol == name)
            if len(seen) - rooted + len(layers) ** min(arity, limit.bit_length() + 1) > limit:
                _GROUND_CACHE[key] = None
                return None
            for combo in itertools.product(layers, repeat=arity):
                t = App(name, combo)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if not nxt:
            break
        layers = layers + nxt
    _GROUND_CACHE[key] = layers
    return layers


def _herbrand_candidates(formulas, J: Algebra, bound: DepthBound, boost: int, qd: int, nfree: int):
    """(free candidates, [quantifier candidates]) or None.

    Minimal solutions of equation/disequation combinations are built from
    the query's term shapes, so free variables need depth covering one atom
    image per variable (nfree of them) plus enough distinct terms to dodge
    disequations; existential witnesses add one atom image per quantifier
    level (qd of them) on top.
    """
    atoms: list = []
    for f in formulas:
        _collect_atoms(f, atoms)
    has_functions = any(a > 0 for a in J.signature.functions.values())
    if not has_functions:
        cands = ground_terms(J.signature, 0)
        return (cands, [cands]) if cands else None  # finite universe: exact
    md = max((max(_term_depth(l), _term_depth(r)) for l, r in atoms), default=0)
    depth = max(bound.depth + boost, md * max(nfree, 1))
    while True:
        free = ground_terms(J.signature, depth, limit=220)
        if free is None:
            return None
        if len(free) > 2 * len(atoms) + 2:
            break
        depth += 1
        if depth > bound.depth + boost + 8:
            return None
    quant = ground_terms(J.signature, depth + md * qd, limit=220)
    if quant is None:
        return None
    return free, [quant]


# ---------------------------------------------------------------------------
# Bounded truth: each conjunct is compiled once into a closure over an
# environment (a dict from variable names to carrier values)

_NO_NAMES = frozenset()


def _compile_term(t: Term, J: Algebra):
    """(closure env -> the J-value of t, the names of t's variables).

    A ground subterm (no names) is evaluated once, here, and its closure
    returns the value.
    """
    if isinstance(t, Var):
        return itemgetter(t.name), frozenset((t.name,))
    if isinstance(t, Val):
        value = t.value
        return (lambda env: value), _NO_NAMES
    fn = J.functions[t.symbol]
    args = [_compile_term(a, J) for a in t.args]
    names = _NO_NAMES.union(*[n for _, n in args])
    if not names:
        value = fn(*[a(None) for a, _ in args])
        return (lambda env: value), names
    if len(args) == 2:
        (a, _), (b, b_names) = args
        if not b_names:  # x + 1: the constant is captured, not called
            value = b(None)
            return (lambda env: fn(a(env), value)), names
        return (lambda env: fn(a(env), b(env))), names
    args = [a for a, _ in args]
    return (lambda env: fn(*[a(env) for a in args])), names


def _compile(f: Formula, J: Algebra, qcands):
    """(the truth of f as a closure env -> bool, f's free variables).

    Quantifiers range over qcands.  Each exists keeps, for the closure's
    life, a memo from the values of its own free variables to its verdict:
    the verdict is a pure function of those values.
    """
    if isinstance(f, ATOM_TYPES):
        truth = J.relations[f.rel]
        (lhs, ln), (rhs, rn) = _compile_term(f.lhs, J), _compile_term(f.rhs, J)
        return (lambda env: truth(lhs(env), rhs(env))), ln | rn
    if isinstance(f, Not):
        body, names = _compile(f.body, J, qcands)
        return (lambda env: not body(env)), names
    if isinstance(f, (And, Or)):
        (lhs, ln), (rhs, rn) = _compile(f.lhs, J, qcands), _compile(f.rhs, J, qcands)
        if isinstance(f, And):
            return (lambda env: lhs(env) and rhs(env)), ln | rn
        return (lambda env: lhs(env) or rhs(env)), ln | rn
    if isinstance(f, Exists):
        var = f.var
        body, body_names = _compile(f.body, J, qcands)
        names = body_names - {var}
        key = itemgetter(*names) if names else (lambda env: None)
        memo = {}

        def exists(env):
            k = key(env)
            found = memo.get(k)
            if found is not None:
                return found
            shadowed = env.get(var, _UNBOUND)
            found = False
            for d in qcands:
                env[var] = d
                if body(env):
                    found = True
                    break
            if shadowed is _UNBOUND:
                env.pop(var, None)
            else:
                env[var] = shadowed
            memo[k] = found
            return found

        return exists, names
    if isinstance(f, Bottom):
        return (lambda env: False), _NO_NAMES
    raise TypeError(f"not a formula: {f!r}")


def _conjuncts(formulas) -> list:
    """The conjuncts of the conjunction of formulas, left to right.

    A & B splits into A and B, ~(A | B) into ~A and ~B, and ~~A is A.
    """
    out = []
    stack = list(reversed(formulas))
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.rhs, f.lhs)
        elif isinstance(f, Not) and isinstance(f.body, Or):
            stack += (Not(f.body.rhs), Not(f.body.lhs))
        elif isinstance(f, Not) and isinstance(f.body, Not):
            stack.append(f.body.body)
        else:
            out.append(f)
    return out


def _ground_value(t: Term, J: Algebra):
    """The J-value of t, or _UNBOUND when t has a variable."""
    if isinstance(t, Val):
        return t.value
    if isinstance(t, Var):
        return _UNBOUND
    args = []
    for a in t.args:
        value = _ground_value(a, J)
        if value is _UNBOUND:
            return _UNBOUND
        args.append(value)
    return J.functions[t.symbol](*args)


def _negate(f):
    return not f if f.__class__ is bool else Not(f)


def _fold(f: Formula, facts: dict, bound: frozenset, J: Algebra):
    """f with each proper subformula that facts maps to a truth value read as
    that value, unless an enclosing exists binds one of its free variables
    (bound holds the names bound above f), and with atoms and constants
    folded: a Formula, True or False.

    An atom whose sides are one term, or are both ground, is its truth value.
    exists over a constant is that constant, since the quantifier candidates
    are never empty.
    """
    if isinstance(f, ATOM_TYPES):
        if f.lhs == f.rhs:
            return f.rel in ("=", "<=")
        lhs, rhs = _ground_value(f.lhs, J), _ground_value(f.rhs, J)
        if lhs is _UNBOUND or rhs is _UNBOUND:
            return f
        return J.relations[f.rel](lhs, rhs)
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Exists):
        inner = bound | {f.var}
        parts = [f.body]
    else:
        inner = bound
        parts = [f.body] if isinstance(f, Not) else [f.lhs, f.rhs]
    for i, part in enumerate(parts):
        known = facts.get(part)
        if known is not None and (not inner or free_vars(part).isdisjoint(inner)):
            parts[i] = known
        else:
            parts[i] = _fold(part, facts, inner, J)
    if len(parts) == 1:
        body = parts[0]
        if body is f.body:
            return f
        if isinstance(f, Not):
            return _negate(body)
        return body if body.__class__ is bool else Exists(f.var, body)
    lhs, rhs = parts
    absorbing = isinstance(f, Or)  # the constant that decides f on its own
    if lhs is absorbing or rhs is absorbing:
        return absorbing
    if lhs.__class__ is bool:
        return rhs
    if rhs.__class__ is bool:
        return lhs
    return f if lhs is f.lhs and rhs is f.rhs else type(f)(lhs, rhs)


def _simplified(formulas, J: Algebra):
    """The conjuncts of formulas, each simplified under all the others by
    _fold, less those that fold to true; None when the conjunction is false.

    The facts are the distinct conjuncts, each true, and the body of each
    negated one, false; a conjunct and its negation contradict.  A negated
    conjunct ~B is folded without its own fact, which would read B false.
    """
    conjuncts = list(dict.fromkeys(_conjuncts(formulas)))
    facts = dict.fromkeys(conjuncts, True)
    for c in conjuncts:
        if isinstance(c, Not):
            if facts.get(c.body) is True:
                return None
            facts[c.body] = False
    out = []
    for c in conjuncts:
        if isinstance(c, Not):
            folded = _negate(_fold(c.body, facts, _NO_NAMES, J))
        else:
            folded = _fold(c, facts, _NO_NAMES, J)
        if folded is False:
            return None
        if folded is not True:
            out.append(folded)
    return out


def _enum_prepare(formulas, J: Algebra, bound, boost: int):
    """(the sorted free variables of the formulas, free candidates, quantifier
    candidates), or None when the guard or the cost cap refuses.

    The cost cap refuses by the narrowest quantifier window, so refusals are
    those of the unscaled reach; the candidates are the widest window whose
    cost stays within _WIDENED_COST_CAP."""
    fv = sorted(set().union(*[free_vars(f) for f in formulas]))
    quants = [_quantifiers(f) for f in formulas]
    qd = max((depth for depth, _ in quants), default=0)
    if isinstance(bound, IntervalBound):
        sets = _int_candidates(formulas, bound, boost, qd)
    else:
        sets = _herbrand_candidates(formulas, J, bound, boost, qd, len(fv))
    if sets is None:
        return None
    free_cands, windows = sets
    nodes = sum(1 + len(str(f)) // 8 for f in formulas)
    cost = (len(free_cands) ** len(fv)) * max(1, nodes)
    count = sum(count for _, count in quants)
    if cost * len(windows[0]) ** count > _COST_CAP:
        return None
    qcands = next(w for w in reversed(windows) if cost * len(w) ** count <= _WIDENED_COST_CAP)
    return fv, free_cands, qcands


def _enum_exists(formulas, free_cands, J: Algebra, qcands):
    """Is there an assignment of free_cands to the free variables under which
    every formula holds?

    The conjuncts are first simplified under each other (_simplified); when
    that decides the conjunction, nothing is searched.  It keeps the
    conjunction's truth on every assignment, by induction on the size of
    the conjuncts.  If every conjunct holds there, every fact read is true.
    Otherwise take a smallest false conjunct C.  A fact read inside C is
    another conjunct, smaller than C and so true, or ~B for a body B inside
    C.  That ~B is not C, whose own fact is not read; so it is smaller than
    C, and true, or of C's size, and then C is exists v. B with v not free
    in B, so C false makes B false.  Each fact read is true, no binder above
    it rebinds its variables, and so C folds to false.  Replacing only
    proper subformulas matters: two equal conjuncts would otherwise each
    read the other true.

    Then backtracking with one test per conjunct: each conjunct is compiled
    on its own and tested as soon as its last free variable has a value,
    ground ones before anything is bound, so a failing conjunct prunes every
    extension of the partial assignment at once.  Variables are bound fail
    first: those with the most single-variable conjuncts, then the most
    conjuncts, then by name.  The order cannot change the verdict, an
    existential over a finite product; nor can leaving out a variable that
    no conjunct mentions, since free_cands is never empty.
    """
    conjuncts = _simplified(formulas, J)
    if conjuncts is None:
        return False
    tests = [_compile(f, J, qcands) for f in conjuncts]
    unary, total = {}, {}
    for _, names in tests:
        for v in names:
            total[v] = total.get(v, 0) + 1
            if len(names) == 1:
                unary[v] = unary.get(v, 0) + 1
    order = sorted(total, key=lambda v: (-unary.get(v, 0), -total[v], v))
    level = {v: i + 1 for i, v in enumerate(order)}
    by_level = [[] for _ in range(len(order) + 1)]
    for test, names in tests:
        by_level[max([level[v] for v in names], default=0)].append(test)
    env = {}
    if not all(test(env) for test in by_level[0]):
        return False

    def extend(i):
        if i == len(order):
            return True
        var, here = order[i], by_level[i + 1]
        for d in free_cands:
            env[var] = d
            for test in here:
                if not test(env):
                    break
            else:
                if extend(i + 1):
                    return True
        return False

    return extend(0)


def _enum_entails(premises, conclusion, J: Algebra, bound, boost: int):
    """Bounded entailment: no assignment satisfies the premises and ~conclusion.

    The query is admitted, and its candidates chosen, on the formulas as
    given; only then does _enum_exists simplify the conjuncts, so a
    conclusion conjunct that a premise states reads true without a search,
    and the guard and cost caps decide exactly what they decided before.
    The rational decision (_rat_sat) is left unsimplified: its DNF is
    refused past _DNF_CAP, and folding first would move those refusals.
    """
    prep = _enum_prepare(list(premises) + [conclusion], J, bound, boost)
    if prep is None:
        return UNKNOWN
    _, free_cands, qcands = prep
    return not _enum_exists(list(premises) + [Not(conclusion)], free_cands, J, qcands)


def _enum_sat(formulas, J: Algebra, bound, boost: int):
    prep = _enum_prepare(list(formulas), J, bound, boost)
    if prep is None:
        return UNKNOWN
    _, free_cands, qcands = prep
    return _enum_exists(list(formulas), free_cands, J, qcands)


# ---------------------------------------------------------------------------
# Exact linear decisions over the rationals (Fourier-Motzkin)

_DNF_CAP = 256


# ~(l REL r) is r NEG l: a negated l < r is read as r <= l, a negated l <= r as r < l.
_NEGATION = {"=": "/=", "/=": "=", "<": "<=", "<=": "<"}


def _rat_literal_rows(f: Formula, positive: bool):
    """Rows (coeffs, const, rel) meaning coeffs.x + const REL 0, or None."""
    if isinstance(f, Bottom):
        return [({}, 1 if positive else 0, "=" if positive else "<=")]
    if not isinstance(f, ATOM_TYPES):
        return None
    diff = _lin_diff(f.lhs, f.rhs) if positive else _lin_diff(f.rhs, f.lhs)
    if diff is None:
        return None
    const, coeffs = diff
    return [(coeffs, const, f.rel if positive else _NEGATION[f.rel])]


def _rat_dnf(f: Formula, positive: bool):
    """A list of row-conjunctions (DNF), or None when outside the fragment."""
    if isinstance(f, Not):
        return _rat_dnf(f.body, not positive)
    if isinstance(f, (And, Or)):
        conjunctive = isinstance(f, And) == positive
        left = _rat_dnf(f.lhs, positive)
        right = _rat_dnf(f.rhs, positive)
        if left is None or right is None:
            return None
        if conjunctive:
            out = [a + b for a in left for b in right]
            return out if len(out) <= _DNF_CAP else None
        out = left + right
        return out if len(out) <= _DNF_CAP else None
    if isinstance(f, Exists):
        return None
    rows = _rat_literal_rows(f, positive)
    return None if rows is None else [rows]


def _fm_eliminate(rows, var):
    lowers, uppers, rest = [], [], []
    for coeffs, const, rel in rows:
        c = coeffs.get(var)
        if not c:
            rest.append(({v: k for v, k in coeffs.items() if v != var}, const, rel))
        elif c > 0:
            uppers.append((coeffs, const, rel, c))
        else:
            lowers.append((coeffs, const, rel, c))
    for ucoeffs, uconst, urel, uc in uppers:
        for lcoeffs, lconst, lrel, lc in lowers:
            scale_u, scale_l = -lc, uc  # both positive
            coeffs = {}
            for v in set(ucoeffs) | set(lcoeffs):
                if v == var:
                    continue
                k = scale_u * ucoeffs.get(v, 0) + scale_l * lcoeffs.get(v, 0)
                if k != 0:
                    coeffs[v] = k
            const = scale_u * uconst + scale_l * lconst
            rel = "<" if "<" in (urel, lrel) else "<="
            rest.append((coeffs, const, rel))
    return rest


def _fm_feasible(rows) -> bool:
    """Feasibility over Q of a conjunction of {<, <=, =, /=} rows.

    The disequations are checked one at a time, each e /= 0 as e < 0 or
    -e < 0 next to the other rows; the module docstring says why that is
    exact.
    """
    base = []
    for coeffs, const, rel in rows:
        if rel == "=":
            base.append((coeffs, const, "<="))
            base.append(({v: -c for v, c in coeffs.items()}, -const, "<="))
        elif rel != "/=":
            base.append((coeffs, const, rel))
    if not _fm_feasible_base(base):
        return False
    for coeffs, const, rel in rows:
        if rel == "/=":
            neg = {v: -c for v, c in coeffs.items()}
            if not (
                _fm_feasible_base(base + [(coeffs, const, "<")])
                or _fm_feasible_base(base + [(neg, -const, "<")])
            ):
                return False
    return True


def _fm_feasible_base(rows) -> bool:
    """Pure <,<= rows: eliminate every variable, then check the constants."""
    variables = set()
    for coeffs, _, _ in rows:
        variables |= set(coeffs)
    for var in sorted(variables):
        rows = _fm_eliminate(rows, var)
    for coeffs, const, rel in rows:
        if rel == "<" and not const < 0:
            return False
        if rel == "<=" and not const <= 0:
            return False
    return True


def _rat_sat(formulas):
    clauses_per = []
    for f in formulas:
        d = _rat_dnf(f, True)
        if d is None:
            return UNKNOWN
        clauses_per.append(d)
    combos = [[]]
    for d in clauses_per:
        combos = [a + b for a in combos for b in d]
        if len(combos) > _DNF_CAP:
            return UNKNOWN
    return any(_fm_feasible(clause) for clause in combos)


# ---------------------------------------------------------------------------
# Public oracle operations


def models(sigma, phi: Formula, J: Algebra, bound, _boost: int = 0):
    """Does the state satisfy phi (store entails it under the substitution)?

    True / False when decided within the bound's exactness regime, None
    (Unknown) otherwise.  sigma must not be the error state.
    """
    if sigma is ERROR:
        raise ValueError("models is undefined on the error state")
    theta = sigma.subst
    premises = [subst_formula(f, theta, J) for f in sigma.store]
    conclusion = subst_formula(phi, theta, J)
    if J.numeric == "rat":
        sat = _rat_sat(premises + [Not(conclusion)])
        return UNKNOWN if sat is UNKNOWN else not sat
    return _enum_entails(premises, conclusion, J, bound, _boost)


def satisfiable(store_formulas, theta: JSubst, J: Algebra, bound, _boost: int = 0):
    """Bounded-enumeration satisfiability of the store under theta."""
    applied = [subst_formula(f, theta, J) for f in store_formulas]
    if J.numeric == "rat":
        return _rat_sat(applied)
    return _enum_sat(applied, J, bound, _boost)


# ---------------------------------------------------------------------------
# The soundness / persistence property harness


@dataclass
class SoundnessReport:
    policy: str
    algebra: str
    cases: int = 0
    decided: int = 0
    skipped_unknown: int = 0
    checks: int = 0
    violations: list = field(default_factory=list)
    failed: int = field(default=0, init=False)  # decided cases with a violation

    @property
    def passed(self) -> bool:
        return not self.violations

    def skip_rate(self) -> float:
        return self.skipped_unknown / self.cases if self.cases else 0.0

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "algebra": self.algebra,
            "cases": self.cases,
            "decided": self.decided,
            "passed": self.decided - self.failed,
            "skipped_unknown": self.skipped_unknown,
            "checks": self.checks,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def lemma_safe(phi: Formula) -> bool:
    """Whether the consistency-preservation property applies to this formula.

    Its literal statement fails when the evaluated formula can fork into
    disjuncts whose stored constraints contradict the carried formula (the
    claim only holds with the joint-consistency premise taken per disjunct);
    disjunctions under a negation never fork, so those are fine.
    """
    if isinstance(phi, Or):
        return False
    if isinstance(phi, And):
        return lemma_safe(phi.lhs) and lemma_safe(phi.rhs)
    if isinstance(phi, Exists):
        return lemma_safe(phi.body)
    return True


def _case_checks(phi, sigma, policy, J, bound, boost):
    """All oracle assertions for one corpus case.

    Returns (checks, unknown) where checks is a list of
    (name, expected_true_verdict, detail) triples.  A detail is a function
    that formats the check's text; only a failing check's is called.
    """
    checks = []
    unknown = False

    def ask(name, verdict, detail):
        nonlocal unknown
        if verdict is UNKNOWN:
            unknown = True
        else:
            checks.append((name, verdict, detail))

    out = evaluate(phi, sigma, make_context(J, policy))
    for st in out:
        if isinstance(st, Pair):
            ask("soundness-satisfaction", models(st, phi, J, bound, boost), lambda st=st: f"{st} |= {phi}")
    if not cons_plus(out, J):
        ask("soundness-refutation", models(sigma, Not(phi), J, bound, boost), lambda: f"{sigma} |= ~({phi})")

    if isinstance(phi, And):
        phi1, phi2 = phi.lhs, phi.rhs
        out2 = evaluate(phi2, sigma, make_context(J, policy))
        premise1 = models(sigma, phi1, J, bound, boost)
        if premise1 is UNKNOWN:
            unknown = True
        elif premise1:
            for st in out2:
                if isinstance(st, Pair):
                    verdict = models(st, phi1, J, bound, boost)
                    ask("preservation-validity", verdict, lambda st=st: f"{st} |= {phi1}")
        if lemma_safe(phi2):
            both = list(sigma.store) + [phi]
            premise2 = satisfiable(both, sigma.subst, J, bound, boost)
            if premise2 is UNKNOWN:
                unknown = True
            elif premise2:
                for st in cons(out2, J):
                    ask(
                        "preservation-consistency",
                        satisfiable(list(st.store) + [phi], st.subst, J, bound, boost),
                        lambda st=st: f"sat({st.store}; {phi}) under {st.subst}",
                    )
    return checks, unknown


def check_soundness(corpus, policy, J: Algebra, bound=None) -> SoundnessReport:
    """Run the soundness and preservation/persistence property suites.

    Soundness: every surviving pair state satisfies the evaluated formula,
    and an answer set with no surviving states certifies the negation.
    Preservation: evaluating one conjunct neither invalidates a formula the
    input state satisfied nor destroys joint consistency.

    corpus yields (formula, state) pairs.  A would-be violation is retried
    at an enlarged bound before being recorded, so an imprecise bounded
    verdict is downgraded to a skip instead of a false alarm.
    """
    if bound is None:
        bound = default_bound(J)
    report = SoundnessReport(policy=policy.name, algebra=J.name)
    for phi, sigma in corpus:
        report.cases += 1
        checks, unknown = _case_checks(phi, sigma, policy, J, bound, 0)
        failing = [c for c in checks if c[1] is False]
        if failing:
            rechecks, re_unknown = _case_checks(phi, sigma, policy, J, bound, 3)
            refailing = [c for c in rechecks if c[1] is False]
            if refailing:
                for name, _, detail in refailing:
                    report.violations.append(
                        {"criterion": name, "formula": str(phi), "state": str(sigma), "detail": detail()}
                    )
                report.decided += 1
                report.failed += 1
                report.checks += len(rechecks)
                continue
            unknown = True
        if unknown:
            report.skipped_unknown += 1
        else:
            report.decided += 1
            report.checks += len(checks)
    return report
