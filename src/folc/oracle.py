"""Brute-force satisfaction and satisfiability at desk scale.

This is the ground-truth side of every property suite: satisfaction is
decided by enumerating assignments of bounded domain elements to free
variables (re-enumerating quantifiers under the bound).  A syntactic guard
decides whether the bounded verdict is exact; anything outside the guard
comes back Unknown (None) rather than risking an unsound verdict.

Each query is compiled once: every formula becomes a closure over an
environment of variable values.  The free variables are then enumerated by
backtracking, and each formula is tested as soon as its last free variable
has a value, so one failing formula rules out every extension of the
partial assignment.

Over the exact rationals bounded enumeration cannot work (the order is
dense), so linear queries are decided exactly by Fourier-Motzkin
elimination instead; non-linear ones are Unknown.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .algebra import Algebra, JSubst, apply_subst, eval_ground, j_eval
from .semantics import make_context, evaluate
from .state import ERROR, Pair, cons, cons_plus, drop_subst
from .syntax import (
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
    rename_free,
    term_vars,
)

UNKNOWN = None

_COST_CAP = 400_000
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
    if isinstance(f, Eq):
        return Eq(j_eval(apply_subst(f.lhs, theta), J), j_eval(apply_subst(f.rhs, theta), J))
    if isinstance(f, Neq):
        return Neq(j_eval(apply_subst(f.lhs, theta), J), j_eval(apply_subst(f.rhs, theta), J))
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(j_eval(apply_subst(a, theta), J) for a in f.args))
    if isinstance(f, Not):
        return Not(subst_formula(f.body, theta, J, _fresh))
    if isinstance(f, And):
        return And(subst_formula(f.lhs, theta, J, _fresh), subst_formula(f.rhs, theta, J, _fresh))
    if isinstance(f, Or):
        return Or(subst_formula(f.lhs, theta, J, _fresh), subst_formula(f.rhs, theta, J, _fresh))
    if isinstance(f, Exists):
        inner = drop_subst(f.var, theta)
        body_free = free_vars(f.body)
        incoming = set()
        for name, value in inner.bindings:
            if name in body_free:
                incoming |= term_vars(value)
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


def _collect_atoms(f: Formula, out: list) -> bool:
    """Gather (lhs, rhs) atom sides into out; False for unsupported shapes."""
    if isinstance(f, (Eq, Neq)):
        out.append((f.lhs, f.rhs))
        return True
    if isinstance(f, Atom):
        if len(f.args) != 2:
            return False
        out.append((f.args[0], f.args[1]))
        return True
    if isinstance(f, Not):
        return _collect_atoms(f.body, out)
    if isinstance(f, (And, Or)):
        return _collect_atoms(f.lhs, out) and _collect_atoms(f.rhs, out)
    if isinstance(f, Exists):
        return _collect_atoms(f.body, out)
    return True  # Bottom carries no terms


def _quant_depth(f: Formula) -> int:
    if isinstance(f, Exists):
        return 1 + _quant_depth(f.body)
    if isinstance(f, Not):
        return _quant_depth(f.body)
    if isinstance(f, (And, Or)):
        return max(_quant_depth(f.lhs), _quant_depth(f.rhs))
    return 0


def _quant_count(f: Formula) -> int:
    if isinstance(f, Exists):
        return 1 + _quant_count(f.body)
    if isinstance(f, Not):
        return _quant_count(f.body)
    if isinstance(f, (And, Or)):
        return _quant_count(f.lhs) + _quant_count(f.rhs)
    return 0


def _lin(t: Term):
    """Independent linear extraction: (const, {var: coeff}) or None."""
    if isinstance(t, Val):
        return Fraction(t.value), {}
    if isinstance(t, Var):
        return Fraction(0), {t.name: Fraction(1)}
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
            coeffs[v] = coeffs.get(v, Fraction(0)) + sign * c
        return a[0] + sign * b[0], coeffs


def _term_depth(t: Term) -> int:
    if isinstance(t, App) and t.args:
        return 1 + max(_term_depth(a) for a in t.args)
    return 0


def _int_candidates(formulas, bound: IntervalBound, boost: int):
    """(free candidates, quantifier candidates) or None when the guard refuses.

    Guard: every atom linear with small coefficient mass and a slack margin
    covering the query's constants, so truth cannot flip outside the
    enumerated interval for the shapes the corpus generates.  Quantified
    variables range over a wider interval: their witnesses are images of
    free values under the atoms, one slack step per nesting level.
    """
    atoms: list = []
    if not all(_collect_atoms(f, atoms) for f in formulas):
        return None
    span = max(abs(bound.lo), abs(bound.hi))
    max_const = 0
    for lhs, rhs in atoms:
        la, ra = _lin(lhs), _lin(rhs)
        if la is None or ra is None:
            return None
        coeffs = dict(la[1])
        for v, c in ra[1].items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        mass = sum(abs(c) for c in coeffs.values())
        if mass > 4:
            return None
        const = abs(la[0] - ra[0])
        if const != int(const):
            return None
        max_const = max(max_const, int(const))
    qd = max((_quant_depth(f) for f in formulas), default=0)
    if qd > 2:
        return None
    slack = max_const + span + 1 + boost
    if slack > 4 * span + 10:
        return None
    free = list(range(bound.lo - slack, bound.hi + slack + 1))
    reach = qd * (max_const + span + slack)
    quant = list(range(bound.lo - slack - reach, bound.hi + slack + reach + 1))
    return free, quant


_GROUND_CACHE: dict = {}
_GROUND_LIMIT = 2000


def ground_terms(signature, depth: int, limit: int = _GROUND_LIMIT):
    """All ground constructor terms up to the given depth, or None past limit.

    Binary constructors grow the term population doubly exponentially, so
    the enumeration bails out (None) once it exceeds the limit.
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
            for combo in itertools.product(layers, repeat=arity):
                t = App(name, combo)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                if len(seen) > limit:
                    _GROUND_CACHE[key] = None
                    return None
        if not nxt:
            break
        layers = layers + nxt
    _GROUND_CACHE[key] = layers
    return layers


def _herbrand_candidates(formulas, J: Algebra, bound: DepthBound, boost: int):
    """(free candidates, quantifier candidates) or None.

    Minimal solutions of equation/disequation combinations are built from
    the query's term shapes, so free variables need depth covering one atom
    image per variable plus enough distinct terms to dodge disequations;
    existential witnesses add one atom image per quantifier level on top.
    """
    atoms: list = []
    if not all(_collect_atoms(f, atoms) for f in formulas):
        return None
    has_functions = any(a > 0 for a in J.signature.functions.values())
    if not has_functions:
        cands = ground_terms(J.signature, 0)
        return (cands, cands) if cands else None  # finite universe: exact
    md = max((max(_term_depth(l), _term_depth(r)) for l, r in atoms), default=0)
    qd = max((_quant_depth(f) for f in formulas), default=0)
    nfree = len(set().union(*(free_vars(f) for f in formulas)) if formulas else set())
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
    return free, quant


# ---------------------------------------------------------------------------
# Bounded truth: each formula is compiled once into a closure over an
# environment (a dict from variable names to carrier values)


def _compile_term(t: Term, J: Algebra):
    """A closure env -> the J-value of t; ground subterms are evaluated once."""
    if isinstance(t, Var):
        return itemgetter(t.name)
    if not term_vars(t):
        value = eval_ground(t, J)
        return lambda env: value
    fn, symbol = J.eval_fn, t.symbol
    if len(t.args) == 2:
        a, b = _compile_term(t.args[0], J), t.args[1]
        if not term_vars(b):  # x + 1: the constant is captured, not called
            value = eval_ground(b, J)
            return lambda env: fn(symbol, (a(env), value))
        b = _compile_term(b, J)
        return lambda env: fn(symbol, (a(env), b(env)))
    args = [_compile_term(a, J) for a in t.args]
    return lambda env: fn(symbol, [a(env) for a in args])


def _compile(f: Formula, J: Algebra, qcands: list):
    """The truth of f as a closure env -> bool; quantifiers range over qcands."""
    if isinstance(f, (Eq, Neq)):
        lhs, rhs = _compile_term(f.lhs, J), _compile_term(f.rhs, J)
        if isinstance(f, Eq):
            return lambda env: lhs(env) == rhs(env)
        return lambda env: lhs(env) != rhs(env)
    if isinstance(f, Atom):
        truth, rel = J.rel_truth, f.rel
        a, b = (_compile_term(t, J) for t in f.args)  # the guard admits binary atoms only
        return lambda env: truth(rel, (a(env), b(env)))
    if isinstance(f, Not):
        body = _compile(f.body, J, qcands)
        return lambda env: not body(env)
    if isinstance(f, And):
        lhs, rhs = _compile(f.lhs, J, qcands), _compile(f.rhs, J, qcands)
        return lambda env: lhs(env) and rhs(env)
    if isinstance(f, Or):
        lhs, rhs = _compile(f.lhs, J, qcands), _compile(f.rhs, J, qcands)
        return lambda env: lhs(env) or rhs(env)
    if isinstance(f, Exists):
        var, body = f.var, _compile(f.body, J, qcands)

        def exists(env):
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
            return found

        return exists
    if isinstance(f, Bottom):
        return lambda env: False
    raise TypeError(f"not a formula: {f!r}")


def _enum_prepare(formulas, J: Algebra, bound, boost: int):
    if isinstance(bound, IntervalBound):
        sets = _int_candidates(formulas, bound, boost)
    else:
        sets = _herbrand_candidates(formulas, J, bound, boost)
    if sets is None:
        return None
    free_cands, qcands = sets
    fv = sorted(set().union(*(free_vars(f) for f in formulas)) if formulas else set())
    nodes = sum(1 + len(str(f)) // 8 for f in formulas)
    cost = (len(free_cands) ** len(fv)) * max(1, nodes)
    for f in formulas:
        cost *= len(qcands) ** _quant_count(f)
        if cost > _COST_CAP:
            return None
    if cost > _COST_CAP:
        return None
    return fv, free_cands, qcands


def _enum_exists(formulas, fv, free_cands, J: Algebra, qcands):
    """Is there an assignment of free_cands to fv under which every formula holds?

    Backtracking over fv in order: each compiled formula is tested as soon as
    its last free variable has a value, closed formulas before anything is
    bound, so a failing formula prunes every extension of the partial
    assignment at once.
    """
    level = {v: i + 1 for i, v in enumerate(fv)}
    tests = [[] for _ in range(len(fv) + 1)]
    for f in formulas:
        tests[max((level[v] for v in free_vars(f)), default=0)].append(_compile(f, J, qcands))
    env = {}
    if not all(test(env) for test in tests[0]):
        return False

    def extend(i):
        if i == len(fv):
            return True
        var, here = fv[i], tests[i + 1]
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
    prep = _enum_prepare(list(premises) + [conclusion], J, bound, boost)
    if prep is None:
        return UNKNOWN
    fv, free_cands, qcands = prep
    return not _enum_exists(list(premises) + [Not(conclusion)], fv, free_cands, J, qcands)


def _enum_sat(formulas, J: Algebra, bound, boost: int):
    prep = _enum_prepare(list(formulas), J, bound, boost)
    if prep is None:
        return UNKNOWN
    fv, free_cands, qcands = prep
    return _enum_exists(list(formulas), fv, free_cands, J, qcands)


# ---------------------------------------------------------------------------
# Exact linear decisions over the rationals (Fourier-Motzkin)

_DNF_CAP = 256


def _rat_literal_rows(f: Formula, positive: bool):
    """Rows (coeffs, const, rel) meaning coeffs.x + const REL 0, or None."""
    if isinstance(f, (Eq, Neq, Atom)):
        if isinstance(f, Eq):
            rel = "=" if positive else "!="
            lhs, rhs = f.lhs, f.rhs
        elif isinstance(f, Neq):
            rel = "!=" if positive else "="
            lhs, rhs = f.lhs, f.rhs
        else:
            if f.rel == "<":
                rel = "<" if positive else ">="
            elif f.rel == "<=":
                rel = "<=" if positive else ">"
            else:
                return None
            lhs, rhs = f.args
        la, ra = _lin(lhs), _lin(rhs)
        if la is None or ra is None:
            return None
        coeffs = dict(la[1])
        for v, c in ra[1].items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        const = la[0] - ra[0]
        if rel == ">=":
            coeffs = {v: -c for v, c in coeffs.items()}
            const, rel = -const, "<="
        elif rel == ">":
            coeffs = {v: -c for v, c in coeffs.items()}
            const, rel = -const, "<"
        return [(coeffs, const, rel)]
    if isinstance(f, Bottom):
        return [({}, Fraction(1 if positive else 0), "=" if positive else "<=")]
    return None


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
                k = scale_u * ucoeffs.get(v, Fraction(0)) + scale_l * lcoeffs.get(v, Fraction(0))
                if k != 0:
                    coeffs[v] = k
            const = scale_u * uconst + scale_l * lconst
            rel = "<" if "<" in (urel, lrel) else "<="
            rest.append((coeffs, const, rel))
    return rest


def _expand_equalities(rows):
    """Replace every = row by the pair of opposing <= rows; drop != rows."""
    base = []
    for coeffs, const, rel in rows:
        if rel == "=":
            base.append((coeffs, const, "<="))
            base.append(({v: -c for v, c in coeffs.items()}, -const, "<="))
        elif rel != "!=":
            base.append((coeffs, const, rel))
    return base


def _fm_feasible(rows) -> bool:
    """Feasibility over Q of a conjunction of {<, <=, =, !=} rows.

    Disequations branch into strict inequalities; past the branching cap
    they are checked one at a time instead, which is exact over Q: a convex
    region is never covered by finitely many proper hyperplanes.
    """
    neqs = [r for r in rows if r[2] == "!="]
    base = _expand_equalities(rows)
    if 2 ** len(neqs) > _DNF_CAP:
        return _fm_feasible_base(base) and all(_fm_neq_ok(base, r) for r in neqs)
    expanded = [base]
    for coeffs, const, _ in neqs:
        neg = {v: -c for v, c in coeffs.items()}
        expanded = [
            clause + [branch]
            for clause in expanded
            for branch in ((coeffs, const, "<"), (neg, -const, "<"))
        ]
    return any(_fm_feasible_base(clause) for clause in expanded)


def _fm_neq_ok(base, neq_row) -> bool:
    coeffs, const, _ = neq_row
    neg = {v: -c for v, c in coeffs.items()}
    return _fm_feasible_base(base + [(coeffs, const, "<")]) or _fm_feasible_base(
        base + [(neg, -const, "<")]
    )


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


def _rat_entails(premises, conclusion):
    sat = _rat_sat(list(premises) + [Not(conclusion)])
    if sat is UNKNOWN:
        return UNKNOWN
    return not sat


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
        return _rat_entails(premises, conclusion)
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
            "passed": self.decided - len(self.violations),
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
    (name, expected_true_verdict, detail) triples.
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
            ask("soundness-satisfaction", models(st, phi, J, bound, boost), f"{st} |= {phi}")
    if not cons_plus(out, J):
        ask("soundness-refutation", models(sigma, Not(phi), J, bound, boost), f"{sigma} |= ~({phi})")

    if isinstance(phi, And):
        phi1, phi2 = phi.lhs, phi.rhs
        out2 = evaluate(phi2, sigma, make_context(J, policy))
        premise1 = models(sigma, phi1, J, bound, boost)
        if premise1 is UNKNOWN:
            unknown = True
        elif premise1:
            for st in out2:
                if isinstance(st, Pair):
                    ask("preservation-validity", models(st, phi1, J, bound, boost), f"{st} |= {phi1}")
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
                        f"sat({st.store}; {phi}) under {st.subst}",
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
                        {"criterion": name, "formula": str(phi), "state": str(sigma), "detail": detail}
                    )
                report.decided += 1
                report.checks += len(rechecks)
                continue
            unknown = True
        if unknown:
            report.skipped_unknown += 1
        else:
            report.decided += 1
            report.checks += len(checks)
    return report
