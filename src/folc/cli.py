"""Command-line front end: evaluate formulas or run the oracle check suites.

    folc eval  --algebra int --policy atoms "y < z & y = 1 & z = 2"
    folc check --algebra int --policy literals --bound -3..3 "~(x=1) & x=0"

Exit codes for eval: 0 when the answer set is non-empty and error-free, 1
when it contains the error state, 2 when it is empty (inconsistency), 3 on
usage or parse errors.  check exits 0 iff the report has no violations, and
3 on the same errors or on --n below 1 or --depth below 0.
Both exit 4 on a resource limit: a formula nested too deeply for the
recursive walks of the evaluator (one Python frame per level) or the
oracle, or for the hash and == of formula nodes.  The parser and the
printer read and print any depth.  A closed stdout cuts the listing short
and leaves the exit code as it is; a closed stderr loses the messages and
the trace, and leaves the listing and the exit code as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algebra import (
    EMPTY_SUBST,
    Algebra,
    herbrand_algebra,
    int_algebra,
    make_subst,
    parse_subst,
    rat_algebra,
)
from .corpus import soundness_corpus
from .infer import POLICIES, get_policy
from .oracle import DepthBound, IntervalBound, check_soundness
from .semantics import evaluate, make_context
from .state import ERROR, Pair, Store
from .syntax import ParseError, formula_to_str, parse_formula, parse_signature_decl, parse_term


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _to_stderr(self.format_usage().rstrip("\n"))
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    p = _Parser(prog="folc", description="first-order logic with constraint stores")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--algebra", choices=("herbrand", "int", "rat"), default="int")
        sp.add_argument("--sig", help='constructor declarations, e.g. "f/1,g/2,a/0,b/0"')
        sp.add_argument("--policy", choices=sorted(POLICIES), default="baseline")
        sp.add_argument("--store", help='initial constraint store: formulas joined by ";"')
        sp.add_argument("--theta", help='initial substitution, e.g. "{x/1, y/f(a)}"')

    ev = sub.add_parser("eval", help="evaluate a formula and print the answer set")
    common(ev)
    ev.add_argument("--json", action="store_true", help="machine-readable output")
    ev.add_argument("--trace", action="store_true", help="JSON-lines evaluation events on stderr")
    ev.add_argument("formula")

    ck = sub.add_parser("check", help="run the soundness/persistence suites")
    common(ck)
    ck.add_argument("--bound", default="-3..3", help="integer interval lo..hi for the oracle")
    ck.add_argument("--depth", type=int, default=3, help="Herbrand term-depth bound")
    ck.add_argument("--corpus", choices=("random",), help="generate cases instead of a formula")
    ck.add_argument("--n", type=int, default=100)
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("formula", nargs="?")
    return p


def _make_algebra(args) -> Algebra:
    if args.algebra == "herbrand":
        if not args.sig:
            raise _UsageError("--algebra herbrand requires --sig")
        return herbrand_algebra(parse_signature_decl(args.sig))
    if args.sig:
        raise _UsageError("--sig only applies to the Herbrand algebra")
    return int_algebra() if args.algebra == "int" else rat_algebra()


def _initial_state(args, J: Algebra) -> Pair:
    theta = parse_subst(args.theta, J) if args.theta else EMPTY_SUBST
    formulas = []
    if args.store:
        for chunk in args.store.split(";"):
            chunk = chunk.strip()
            if chunk:
                formulas.append(parse_formula(chunk, J.signature))
    return Pair(Store(formulas), theta)


def state_to_json(sigma) -> dict:
    if sigma is ERROR:
        return {"error": True}
    return {
        "store": [formula_to_str(f) for f in sigma.store],
        "subst": {n: str(t) for n, t in sigma.subst.bindings},
    }


def state_from_json(d: dict, J: Algebra):
    """Re-parse a state printed with --json; fresh $ names are allowed here."""
    if d.get("error"):
        return ERROR
    formulas = [parse_formula(s, J.signature, allow_fresh=True) for s in d["store"]]
    pairs = [(n, parse_term(s, J.signature, allow_fresh=True)) for n, s in d["subst"].items()]
    return Pair(Store(formulas), make_subst(pairs, J))


def _parse_bound(text: str) -> IntervalBound:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise _UsageError(f"bad --bound {text!r}, expected lo..hi")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise _UsageError("--bound lower end exceeds upper end")
    return IntervalBound(lo, hi)


def _to_stderr(line: str) -> None:
    """Print one line to stderr: the usage, an error message or a trace event.

    A closed stderr loses the line, not the run: stderr then goes to
    devnull, as stdout does in main, so later lines and the interpreter's
    last flush write nowhere instead of raising again.  The trace stops,
    and the evaluation and the exit code stand.
    """
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _cmd_eval(args) -> tuple[int, str]:
    J = _make_algebra(args)
    policy = get_policy(args.policy)
    sigma = _initial_state(args, J)
    phi = parse_formula(args.formula, J.signature)
    ctx = make_context(J, policy, trace=(lambda event: _to_stderr(json.dumps(event))) if args.trace else None)
    answers = evaluate(phi, sigma, ctx)
    if args.json:
        text = json.dumps([state_to_json(s) for s in answers]) + "\n"
    else:
        text = "".join(f"{s}\n" for s in answers)
    if not answers:
        return 2, text
    return (1 if any(s is ERROR for s in answers) else 0), text


def _cmd_check(args) -> tuple[int, str]:
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    if args.depth < 0:
        raise _UsageError("--depth must be at least 0")
    J = _make_algebra(args)
    policy = get_policy(args.policy)
    policy.check_algebra(J)
    bound = DepthBound(args.depth) if args.algebra == "herbrand" else _parse_bound(args.bound)
    if args.corpus == "random":
        corpus = soundness_corpus(args.seed, J, policy.name, args.n)
    elif args.formula:
        phi = parse_formula(args.formula, J.signature)
        corpus = [(phi, _initial_state(args, J))]
    else:
        raise _UsageError("check needs a formula or --corpus random")
    report = check_soundness(corpus, policy, J, bound)
    return (0 if report.passed else 1), report.to_json() + "\n"


def _merge_bound_flag(argv):
    """Fold "--bound -3..3" into "--bound=-3..3" so argparse accepts the dash."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg == "--bound":
            value = next(it, None)
            if value is None:
                out.append(arg)
            else:
                out.append(f"--bound={value}")
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # CPython 3.10.7 on; earlier ones have no limit
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_bound_flag(list(argv))
    try:
        args = parser.parse_args(argv)
        code, text = (_cmd_eval if args.command == "eval" else _cmd_check)(args)
    except (_UsageError, ParseError, ValueError) as exc:
        _to_stderr(f"folc: {exc}")
        return 3
    except RecursionError:
        _to_stderr("folc: formula nests too deeply for the recursive walks")
        return 4
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, but the output was complete, so its code stands.  Stdout
        # goes to devnull so that the interpreter's last flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
