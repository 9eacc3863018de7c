"""Per-layer attribution by wrapping folc's public functions in place.

Each traced function or method is replaced, at every module attribute bound
to it (found by identity over vars(module) for every loaded folc module),
by a wrapper that opens a span named after its layer.  A call made while a
span of the same name is open (recursion through apply_subst, j_eval or the
printer, or eval_set inside evaluate) runs inside that span and opens none,
so call counts are outermost calls.  A span's self time is its duration
minus the durations of its child spans; time in unwrapped helpers counts
toward the span that called them.  Hashing, which runs millions of times,
and the policy's aux/split/step/resolve steps are only counted, never timed.

Spans (name, start, end, parent, op id) are kept in memory up to MAX_SPANS
and written out when the run ends; self times and counts cover every span.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

from folc import algebra, infer, oracle, semantics, state, syntax

_clock = time.perf_counter

# Span name -> (owner, attribute) pairs, each the defining binding.
SPAN_TARGETS = {
    "syntax.parse": [
        (syntax, "parse_formula"),
        (syntax, "parse_term"),
        (syntax, "parse_substitution_pairs"),
        (algebra, "parse_subst"),
    ],
    "syntax.print": [(syntax, "formula_to_str"), (syntax, "term_to_str")],  # plus every __str__
    "syntax.walk": [
        (syntax, "free_vars"),
        (syntax, "all_names"),
        (syntax, "term_vars"),
        (syntax, "rename_free"),
    ],
    "algebra.apply_subst": [(algebra, "apply_subst")],
    "algebra.compose": [(algebra, "compose")],
    "algebra.j_eval": [(algebra, "j_eval")],
    "algebra.truth": [(algebra, "atom_truth"), (algebra, "literal_truth")],
    "algebra.make_subst": [(algebra, "make_subst")],
    "state.dedup": [(state, "dedup")],
    "state.classify": [(state, "classify"), (state, "cons"), (state, "cons_plus")],
    "state.drop_state": [(state, "drop_state"), (state, "drop_subst")],
    "infer.apply": [(infer, "baseline_infer")],  # plus every policy's apply
    "semantics.evaluate": [(semantics, "evaluate"), (semantics, "eval_set")],
    "oracle.models": [(oracle, "models")],
    "oracle.satisfiable": [(oracle, "satisfiable")],
    "oracle.check": [(oracle, "check_soundness")],
}

COUNT_TARGETS = {
    "infer.aux": [(infer, "aux")],
    "infer.mgu": [(infer, "mgu")],
    "infer.rewrite_linear": [(infer, "rewrite_linear")],
    "oracle.ground_terms": [(oracle, "ground_terms")],
}  # plus hashing and the policy methods, found on the classes below

# Span names whose self times partition the traced time spent inside folc.
SELF_TIME_METRICS = {
    "syntax.parse.self_s": ("syntax.parse",),
    "syntax.print.self_s": ("syntax.print",),
    "syntax.walk.self_s": ("syntax.walk",),
    "algebra.self_s": (
        "algebra.apply_subst",
        "algebra.compose",
        "algebra.j_eval",
        "algebra.truth",
        "algebra.make_subst",
    ),
    "state.dedup.self_s": ("state.dedup",),
    "state.classify.self_s": ("state.classify",),
    "state.drop_state.self_s": ("state.drop_state",),
    "infer.apply.self_s": ("infer.apply",),
    "semantics.evaluate.self_s": ("semantics.evaluate",),
    "oracle.models.self_s": ("oracle.models",),
    "oracle.satisfiable.self_s": ("oracle.satisfiable",),
    "oracle.check.self_s": ("oracle.check",),
}

RESOLVE_OUTCOMES = ("bind", "drop", "fail", "passive")
MAX_SPANS = 200_000  # spans kept for the spans file; counts and self times cover all


def _classes(module, base):
    return [c for c in vars(module).values() if isinstance(c, type) and issubclass(c, base)]


def _method_targets():
    """(span or count name, class, method) for the methods wrapped on classes."""
    printable = _classes(syntax, (syntax.Term, syntax.Formula)) + [state.Pair, state.Store, algebra.JSubst]
    hashed = _classes(syntax, (syntax.Term, syntax.Formula))
    out = [("syntax.print", c, "__str__") for c in printable if "__str__" in vars(c)]
    out += [("syntax.hash", c, "__hash__") for c in hashed if vars(c).get("__hash__")]
    names = {"apply": "infer.apply", "resolve": "infer.resolve", "split": "infer.split", "step": "infer.step"}
    for c in _classes(infer, infer.InferPolicy):
        out += [(names[m], c, m) for m in names if m in vars(c)]
    return out


def _folc_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "folc" or name.startswith("folc.")]


def _sigma_size(sigma) -> int:
    return len(sigma.store) if isinstance(sigma, state.Pair) else 0


class Tracer:
    """Installs span and count wrappers on folc; use as a context manager.

    Spans and counts are recorded only between begin_op and end_op, so the
    benchmark's own checks between ops are never attributed to a layer.
    """

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.group = ""
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.self_time = defaultdict(float)
        self.group_self_time = defaultdict(float)  # (group, span name) -> s
        self.root_time = 0.0
        self.spans_total = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list = []
        self._depth: Counter = Counter()
        self._saved: list = []
        self._before = self._before_hooks()
        self._after = self._after_hooks()
        self.t0 = _clock()

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        modules = _folc_modules()
        wrappers = {}
        for name, targets in SPAN_TARGETS.items():
            for owner, attr in targets:
                wrappers[id(getattr(owner, attr))] = self._wrap(name, getattr(owner, attr), timed=True)
        for name, targets in COUNT_TARGETS.items():
            for owner, attr in targets:
                wrappers[id(getattr(owner, attr))] = self._wrap(name, getattr(owner, attr), timed=False)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replace(module, attr, wrapper)
        for name, cls, attr in _method_targets():
            fn = vars(cls)[attr]
            if name == "syntax.hash":
                wrapper = self._hash(fn)
            else:
                wrapper = self._wrap(name, fn, timed=name in SPAN_TARGETS)
            self._replace(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- op boundaries ----------------------------------------------------

    def begin_op(self, op_id: int, group: str) -> None:
        self.op_id, self.group, self.active = op_id, group, True

    def end_op(self) -> None:
        self.active = False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, timed: bool):
        """Count outermost calls of fn under name; timed ones also open a span."""
        depth = self._depth
        before = self._before.get(name)
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            if not self.active or depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            self.calls[name] += 1
            state_ = before(args) if before else None
            frame = self._open(name) if timed else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if timed:
                    self._close(frame)
                depth[name] = 0
            if after:
                after(args, result, state_)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hash(self, fn):
        calls = self.calls

        def wrapper(obj):
            if self.active:
                calls["syntax.hash"] += 1  # every call: nested hashing is what caching removes
            return fn(obj)

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_hooks(self):
        counts, maxima = self.counts, self.maxima

        def apply_(args):
            sigma = args[0] if isinstance(args[0], (state.Pair, type(state.ERROR))) else args[1]
            maxima["infer.store_size"] = max(maxima["infer.store_size"], _sigma_size(sigma))

        def evaluate(args):
            return args[2].fresh_counter

        def dedup(args):
            counts["state.dedup.in_items"] += len(args[0])

        return {"infer.apply": apply_, "semantics.evaluate": evaluate, "state.dedup": dedup}

    def _after_hooks(self):
        counts, maxima = self.counts, self.maxima

        def evaluate(args, result, fresh_before):
            counts["semantics.fresh_names"] += args[2].fresh_counter - fresh_before
            maxima["semantics.answer_width"] = max(maxima["semantics.answer_width"], len(result))

        def dedup(args, result, _):
            counts["state.dedup.out_items"] += len(result)

        def resolve(args, result, _):
            counts["infer.resolve.calls." + result[0]] += 1
            if self._depth["infer.step"]:
                counts["infer.resolve.in_step"] += 1

        def oracle_call(args, result, _):
            counts["oracle.verdicts"] += 1
            counts["oracle.unknown"] += result is None
            boost = args[4] if len(args) > 4 else 0
            counts["oracle.recheck.calls"] += boost > 0

        return {
            "semantics.evaluate": evaluate,
            "state.dedup": dedup,
            "infer.resolve": resolve,
            "oracle.models": oracle_call,
            "oracle.satisfiable": oracle_call,
        }

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        now = _clock()
        idx = -1
        if len(self.span_start) < MAX_SPANS:
            idx = len(self.span_start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(name_id)
            self.span_start.append(now - self.t0)
            self.span_end.append(0.0)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_op.append(self.op_id)
        frame = [name, now, 0.0, idx]
        self._stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        now = _clock()
        self._stack.pop()
        name, start, child, idx = frame
        duration = now - start
        own = duration - child
        self.self_time[name] += own
        self.group_self_time[(self.group, name)] += own
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_time += duration
        if idx >= 0:
            self.span_end[idx] = now - self.t0
        self.spans_total += 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts, self times and ratios (without the wall-time entries)."""
        c, k, mx, st = self.calls, self.counts, self.maxima, self.self_time
        resolves = sum(k["infer.resolve.calls." + o] for o in RESOLVE_OUTCOMES)
        out = {
            "syntax.parse.calls": c["syntax.parse"],
            "syntax.print.calls": c["syntax.print"],
            "syntax.walk.calls": c["syntax.walk"],
            "syntax.hash.calls": c["syntax.hash"],
            "algebra.apply_subst.calls": c["algebra.apply_subst"],
            "algebra.compose.calls": c["algebra.compose"],
            "algebra.compose.self_s": st["algebra.compose"],
            "algebra.j_eval.calls": c["algebra.j_eval"],
            "algebra.truth.calls": c["algebra.truth"],
            "state.dedup.calls": c["state.dedup"],
            "state.dedup.in_items": k["state.dedup.in_items"],
            "state.dedup.out_items": k["state.dedup.out_items"],
            "state.dedup.kept_ratio": _ratio(k["state.dedup.out_items"], k["state.dedup.in_items"]),
            "state.classify.calls": c["state.classify"],
            "state.drop_state.calls": c["state.drop_state"],
            "infer.apply.calls": c["infer.apply"],
            "infer.resolve.calls": resolves,
            **{"infer.resolve.calls." + o: k["infer.resolve.calls." + o] for o in RESOLVE_OUTCOMES},
            "infer.resolve.useful_ratio": _ratio(k["infer.resolve.in_step"], resolves),
            "infer.aux.calls": c["infer.aux"],
            "infer.aux.rounds": c["infer.split"],
            "infer.step.calls": c["infer.step"],
            "infer.mgu.calls": c["infer.mgu"],
            "infer.rewrite_linear.calls": c["infer.rewrite_linear"],
            "infer.store_size.max": mx["infer.store_size"],
            "semantics.evaluate.calls": c["semantics.evaluate"],
            "semantics.answer_width.max": mx["semantics.answer_width"],
            "semantics.fresh_names": k["semantics.fresh_names"],
            "oracle.models.calls": c["oracle.models"],
            "oracle.satisfiable.calls": c["oracle.satisfiable"],
            "oracle.recheck.calls": k["oracle.recheck.calls"],
            "oracle.unknown_ratio": _ratio(k["oracle.unknown"], k["oracle.verdicts"]),
            "oracle.ground_terms.calls": c["oracle.ground_terms"],
        }
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(st[n] for n in names)
        return out

    def group_breakdown(self) -> dict:
        """Self time per op group and self-time metric, for the run record."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for (group, name), seconds in self.group_self_time.items():
            for metric, names in SELF_TIME_METRICS.items():
                if name in names:
                    out[group][metric] += seconds
        return {g: dict(v) for g, v in out.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.7f}\t"
                    f"{self.span_end[i]:.7f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


def _ratio(num, den) -> float:
    return num / den if den else 0.0
