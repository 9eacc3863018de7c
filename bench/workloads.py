"""Inputs, operations and correctness references of the benchmark workloads.

Inputs are generated from the benchmark seed with folc's own corpus
generators and printed to text.  An operation sees only that text
(eval-corpus, deep-store) or the objects parsed from it during set-up
(check-corpus).  Every call into folc goes through a module attribute at
call time, so the tracer's in-place wrappers see it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from folc import algebra, corpus, infer, oracle, semantics, state, syntax

DEFAULT_SEED = 0
POLICY_ORDER = ("baseline", "atoms", "literals", "unify", "diseq", "linear")

EVAL_CHUNK = 250  # soundness_corpus cases generated per policy at a time
EVAL_REF_OPS = 3000  # eval-corpus ops covered by the frozen digest and references
CHECK_PER_POLICY = 1200  # check-corpus pool: half soundness-, half persistence-shaped
CHECK_CANDIDATES = 3  # candidates generated per pool place when filling class quotas

# family -> (policy, algebra key into policy_algebras(), sizes); the largest
# size of each family gives its *_chain_s metric.  unify n=100 (about 3 s
# here) is left out so that a run still holds several rounds.
FAMILIES = {
    "unify": ("unify", "unify", (25, 40, 50, 60)),
    "linear": ("linear", "linear", (25, 50, 75, 100)),
    "atoms": ("atoms", "atoms", (25, 50, 75, 100)),
    "disj": ("atoms", "atoms", (6, 8, 9, 10)),
}
ROUND_OPS = sum(len(sizes) for _, _, sizes in FAMILIES.values())  # ops in one deep-store round


def policy_algebras():
    """The six policy/algebra pairs and oracle bounds of the acceptance suite."""
    int_ = algebra.int_algebra()
    herbrand = algebra.herbrand_algebra([("f", 1), ("a", 0), ("b", 0)])
    int_bound = oracle.IntervalBound(-3, 3)
    depth_bound = oracle.DepthBound(3)
    return {
        "baseline": (int_, int_bound),
        "atoms": (int_, int_bound),
        "literals": (int_, int_bound),
        "unify": (herbrand, depth_bound),
        "diseq": (herbrand, depth_bound),
        "linear": (algebra.rat_algebra(), None),
    }


def policies():
    return {name: infer.get_policy(name) for name in POLICY_ORDER}


def sub_seed(seed: int, *parts) -> int:
    """A generator seed derived from the benchmark seed, stable across processes."""
    key = "/".join(map(str, (seed, *parts))).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:6], "big")


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def output_digest(printed) -> str:
    return digest(printed)[:16]


@dataclass
class Op:
    """One timed call with its stable key, its group and its reference check."""

    key: str
    group: str  # policy for the corpus workloads, family/size for deep-store
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct
    decided: Callable[[object], bool]


# ---------------------------------------------------------------------------
# Case text: (formula, store, theta) as the CLI's positional, --store and --theta


def case_text(phi, sigma) -> tuple[str, str, str]:
    return str(phi), "; ".join(str(f) for f in sigma.store), str(sigma.subst)


def parse_case(text, J):
    """The CLI's parsing of a formula, --store and --theta, without argparse."""
    formula, store, theta = text
    phi = syntax.parse_formula(formula, J.signature)
    subst = algebra.parse_subst(theta, J) if theta else algebra.EMPTY_SUBST
    formulas = [syntax.parse_formula(c.strip(), J.signature) for c in store.split(";") if c.strip()]
    return phi, state.Pair(state.Store(formulas), subst)


def text_line(policy: str, text) -> str:
    return "\t".join((policy, *text))


def parse_text_line(line: str):
    policy, formula, store, theta = line.split("\t")
    return policy, (formula, store, theta)


def _no_error(printed) -> bool:
    return "error" not in printed


# ---------------------------------------------------------------------------
# eval-corpus


def eval_cases(seed: int, pairs):
    """Endless round-robin stream of (policy, index, case text); never repeats."""
    for chunk in itertools.count():
        cases = {
            p: corpus.soundness_corpus(sub_seed(seed, "eval", p, chunk), pairs[p][0], p, EVAL_CHUNK)
            for p in POLICY_ORDER
        }
        for j in range(EVAL_CHUNK):
            for p in POLICY_ORDER:
                yield p, chunk * EVAL_CHUNK + j, case_text(*cases[p][j])


def eval_run(text, J, policy):
    phi, sigma = parse_case(text, J)
    answers = semantics.evaluate(phi, sigma, semantics.make_context(J, policy))
    return [str(s) for s in answers]


def _storeless_reference(text, J):
    """Printed answer set the embedding theorem predicts for a baseline op, or None.

    Applies when the input store is empty: the baseline policy then embeds
    storeless_eval, which never touches a store.
    """
    phi, sigma = parse_case(text, J)
    if len(sigma.store):
        return None
    out = set()
    for r in infer.storeless_eval(phi, sigma.subst, J):
        out.add("error" if r is state.ERROR else str(state.Pair(state.EMPTY_STORE, r)))
    return out


def eval_ops(seed: int, pairs, pols, refs=None):
    """The eval-corpus op stream; refs are recorded output digests by op index."""
    for i, (p, _, text) in enumerate(eval_cases(seed, pairs)):
        J = pairs[p][0]
        expected = _storeless_reference(text, J) if p == "baseline" else None
        recorded = refs[i] if refs is not None and i < len(refs) else None

        def check(printed, expected=expected, recorded=recorded):
            if len(set(printed)) != len(printed):
                return "answer set has duplicates"
            if expected is not None and set(printed) != expected:
                return f"storeless_eval predicts {sorted(expected)}, got {printed}"
            if recorded is not None and output_digest(printed) != recorded:
                return "printed answer set differs from the recorded reference"
            return None

        yield Op(f"eval/{i}", p, lambda text=text, J=J, pol=pols[p]: eval_run(text, J, pol), check, _no_error)


def eval_input_lines(seed: int, pairs, n: int = EVAL_REF_OPS):
    cases = itertools.islice(eval_cases(seed, pairs), n)
    return [text_line(p, text) for p, _, text in cases]


# ---------------------------------------------------------------------------
# check-corpus


def _quantifiers(f) -> int:
    if isinstance(f, syntax.Exists):
        return 1 + _quantifiers(f.body)
    if isinstance(f, syntax.Not):
        return _quantifiers(f.body)
    if isinstance(f, (syntax.And, syntax.Or)):
        return _quantifiers(f.lhs) + _quantifiers(f.rhs)
    return 0


def _free_names(x, bound=frozenset()) -> set:
    """Free variable names of a term or formula, by the benchmark's own walk."""
    if isinstance(x, syntax.Var):
        return set() if x.name in bound else {x.name}
    if isinstance(x, syntax.Exists):
        return _free_names(x.body, bound | {x.var})
    out = set()
    for value in vars(x).values():
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (syntax.Term, syntax.Formula)):
                out |= _free_names(child, bound)
    return out


def case_class(phi, sigma) -> tuple[int, int]:
    """Free-variable and quantifier counts: what drives the oracle's enumeration cost."""
    names = _free_names(phi).union(*(_free_names(f) for f in sigma.store))
    return len(names), _quantifiers(phi)


def _fill_quotas(candidates, quotas: dict, n: int) -> list:
    """The first n candidates that fit the class quotas, in generation order.

    Places a quota cannot fill take the earliest leftover candidates.
    """
    left = dict(quotas)
    taken, rest = [], []
    for case in candidates:
        cls = case_class(*case)
        if left.get(cls, 0) > 0:
            left[cls] -= 1
            taken.append(case)
        else:
            rest.append(case)
        if len(taken) == n:
            return taken
    return taken + rest[: n - len(taken)]


def _check_shapes(seed: int, block: int, pairs, p: str, n: int):
    J = pairs[p][0]
    return (
        corpus.soundness_corpus(sub_seed(seed, "check-s", p, block), J, p, n),
        corpus.persistence_corpus(sub_seed(seed, "check-p", p, block), J, p, n),
    )


def check_quotas(pairs) -> dict:
    """Per policy, the class mix of each shape in the default seed's first block."""
    half = CHECK_PER_POLICY // 2
    return {
        p: [Counter(case_class(*c) for c in cases) for cases in _check_shapes(DEFAULT_SEED, 0, pairs, p, half)]
        for p in POLICY_ORDER
    }


def check_input_lines(seed: int, pairs, block: int = 0, quotas=None):
    """One block of the check-corpus pool, round-robin over policies, alternating shape.

    The per-case cost has a heavy tail set mostly by how many free variables
    and quantifiers a case has.  So that pools of different seeds weigh that
    tail alike, every block has, per policy and shape, the class mix of the
    default seed's first block (the generators' own first cases); the cases
    themselves are fresh for each seed and block.
    """
    half = CHECK_PER_POLICY // 2
    if seed == DEFAULT_SEED and block == 0:
        per_policy = {p: _check_shapes(seed, block, pairs, p, half) for p in POLICY_ORDER}
    else:
        quotas = quotas or check_quotas(pairs)
        per_policy = {}
        for p in POLICY_ORDER:
            candidates = _check_shapes(seed, block, pairs, p, CHECK_CANDIDATES * half)
            per_policy[p] = tuple(_fill_quotas(c, q, half) for c, q in zip(candidates, quotas[p]))
    lines = []
    for j in range(half):
        for kind in (0, 1):
            for p in POLICY_ORDER:
                lines.append(text_line(p, case_text(*per_policy[p][kind][j])))
    return lines


def parse_check_pool(lines, pairs):
    """Set-up work of check-corpus: parse every pool case into (policy, phi, state)."""
    out = []
    for line in lines:
        p, text = parse_text_line(line)
        out.append((p, *parse_case(text, pairs[p][0])))
    return out


def check_run(phi, sigma, policy, J, bound):
    rep = oracle.check_soundness([(phi, sigma)], policy, J, bound)
    return rep.decided, rep.skipped_unknown, rep.checks, len(rep.violations)


def check_counts(result) -> str:
    return "%d %d %d" % result[:3]


def check_ops(seed: int, pairs, pols, first_block, refs=None):
    """Endless stream of check cases; refs are recorded counts for the first block.

    The first block is parsed during set-up.  Later blocks are generated and
    parsed when the stream reaches them, so no case repeats within a run.
    """
    quotas = None
    pool, first_block = first_block, None
    for block in itertools.count():
        if block:
            # drop the finished block first, so that a run which reaches more
            # blocks does not hold more memory
            pool = None
            quotas = quotas or check_quotas(pairs)
            pool = parse_check_pool(check_input_lines(seed, pairs, block, quotas), pairs)
            gc.collect()
            gc.freeze()  # keep the new pool out of the collections that ops trigger
        for k, (p, phi, sigma) in enumerate(pool):
            J, bound = pairs[p]
            recorded = refs[k] if refs is not None and block == 0 else None

            def check(result, recorded=recorded):
                if result[3]:
                    return f"{result[3]} violation(s)"
                if recorded is not None and check_counts(result) != recorded:
                    return f"decided/skipped/checks {check_counts(result)} differ from recorded {recorded}"
                return None

            yield Op(
                f"check/{block}/{k}",
                p,
                lambda phi=phi, sigma=sigma, pol=pols[p], J=J, bound=bound: check_run(phi, sigma, pol, J, bound),
                check,
                lambda result: result[0] == 1,
            )


# ---------------------------------------------------------------------------
# deep-store


@dataclass(frozen=True)
class Chain:
    family: str
    size: int
    stem: str  # variable names are stem0, stem1, ...
    const: int

    def var(self, i: int) -> str:
        return f"{self.stem}{i}"

    def text(self) -> str:
        n, v, c = self.size, self.var, self.const
        if self.family == "unify":
            parts = [f"{v(i)} = f({v(i + 1)})" for i in range(n)]
        elif self.family == "linear":
            parts = [f"{v(i)} = {v(i + 1)} + {c}" for i in range(n)]
        elif self.family == "atoms":
            parts = [f"{v(i)} < {v(i + 1)}" for i in range(n)]
            parts += [f"{v(i)} = {c + i}" for i in range(n + 1)]
        else:
            parts = [f"({v(i)} = {c} | {v(i)} = {c + 1})" for i in range(n)]
        return " & ".join(parts)

    def check(self, printed, answers) -> str | None:
        """Compare with an answer the harness derives without the evaluator."""
        if self.family == "linear":
            return self._check_linear(answers)
        if self.family == "disj":
            expected = {
                _printed_pair({self.var(i): str(val) for i, val in enumerate(vals)})
                for vals in itertools.product((self.const, self.const + 1), repeat=self.size)
            }
            if len(printed) != len(expected) or set(printed) != expected:
                return f"expected the {len(expected)} groundings, got {len(printed)} states"
            return None
        if self.family == "unify":
            n = self.size
            binding = {self.var(i): "f(" * (n - i) + self.var(n) + ")" * (n - i) for i in range(n)}
        else:
            binding = {self.var(i): str(self.const + i) for i in range(self.size + 1)}
        expected = [_printed_pair(binding)]
        return None if printed == expected else "answer differs from the closed form"

    def _check_linear(self, answers) -> str | None:
        """Every equation holds under the answer, with the one free variable at 0."""
        if len(answers) != 1 or not isinstance(answers[0], state.Pair) or len(answers[0].store):
            return "expected one state with an empty store"
        bound = dict(answers[0].subst.bindings)
        names = [self.var(i) for i in range(self.size + 1)]
        free = [x for x in names if x not in bound]
        if len(free) != 1 or set(bound) - set(names):
            return f"expected exactly one free chain variable, got {free}"

        def value(t):
            if isinstance(t, syntax.Var):
                return 0 if t.name == free[0] else None
            if isinstance(t, syntax.Val):
                return t.value
            a, b = (value(x) for x in t.args)
            if a is None or b is None:
                return None
            return {"+": a + b, "-": a - b, "*": a * b}[t.symbol]

        vals = {x: value(bound[x]) if x in bound else 0 for x in names}
        for i in range(self.size):
            if vals[self.var(i)] is None or vals[self.var(i)] != vals[self.var(i + 1)] + self.const:
                return f"{self.var(i)} = {self.var(i + 1)} + {self.const} does not hold"
        return None


def _printed_pair(binding: dict) -> str:
    return "<{} | {" + ", ".join(f"{k}/{binding[k]}" for k in sorted(binding)) + "}>"


def chains(seed: int):
    """One round of deep-store: every family at every size, families interleaved."""
    rng = random.Random(sub_seed(seed, "deep"))
    stem = rng.choice("uvwxyz")
    const = rng.randint(1, 7)
    families = list(FAMILIES)
    shift = rng.randrange(len(families))
    families = families[shift:] + families[:shift]
    n_sizes = max(len(sizes) for _, _, sizes in FAMILIES.values())
    return [
        Chain(fam, FAMILIES[fam][2][s], stem, const)
        for s in range(n_sizes)
        for fam in families
        if s < len(FAMILIES[fam][2])
    ]


def deep_run(text, J, policy):
    phi = syntax.parse_formula(text, J.signature)
    sigma = state.Pair(state.EMPTY_STORE, algebra.EMPTY_SUBST)
    answers = semantics.evaluate(phi, sigma, semantics.make_context(J, policy))
    return [str(s) for s in answers], answers


def deep_input_lines(seed: int):
    return [f"{c.family}\t{c.size}\t{c.text()}" for c in chains(seed)]


def deep_ops(seed: int, pairs, pols, refs=None):
    """Endless rounds over chains(seed); refs are recorded output digests by chain."""
    round_ = chains(seed)
    for i in itertools.count():
        k = i % len(round_)
        c = round_[k]
        policy_name, alg, _ = FAMILIES[c.family]
        J = pairs[alg][0]
        recorded = refs[k] if refs is not None else None

        def check(result, c=c, recorded=recorded):
            printed, answers = result
            problem = c.check(printed, answers)
            if problem is None and recorded is not None and output_digest(printed) != recorded:
                problem = "printed answer set differs from the recorded reference"
            return problem

        yield Op(
            f"deep/{c.family}/{c.size}",
            f"{c.family}/{c.size}",
            lambda text=c.text(), J=J, pol=pols[policy_name]: deep_run(text, J, pol),
            check,
            lambda result: _no_error(result[0]),
        )


# ---------------------------------------------------------------------------
# Per-workload entry points


def input_lines(workload: str, seed: int, pairs):
    """Serialized inputs; their digest at DEFAULT_SEED freezes the workload."""
    if workload == "eval-corpus":
        return eval_input_lines(seed, pairs)
    if workload == "check-corpus":
        return check_input_lines(seed, pairs)
    return deep_input_lines(seed)


def round_ops(workload: str) -> int:
    """Ops in one round of the workload's round-robin; a measured run holds whole rounds."""
    if workload == "eval-corpus":
        return len(POLICY_ORDER)
    if workload == "check-corpus":
        return 2 * len(POLICY_ORDER)  # both shapes
    return ROUND_OPS


def make_ops(workload: str, seed: int, pairs, pols, lines, refs=None):
    """The endless op stream of a workload; lines are its input_lines(seed)."""
    if workload == "eval-corpus":
        return eval_ops(seed, pairs, pols, refs)
    if workload == "check-corpus":
        return check_ops(seed, pairs, pols, parse_check_pool(lines, pairs), refs)
    return deep_ops(seed, pairs, pols, refs)


def reference_value(workload: str, result) -> str:
    """What the recorded reference file keeps of one op's output."""
    if workload == "check-corpus":
        return check_counts(result)
    if workload == "deep-store":
        return output_digest(result[0])
    return output_digest(result)
