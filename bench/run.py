"""The folc benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload eval-corpus --seed 0 --seconds 20 --trace 0

Prints a summary of every end-to-end metric and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
measures the end-to-end metrics; --trace 1 replays a fixed prefix of the op
stream untraced and then traced and reports the per-layer metrics.  Each run
writes a record to bench/out/.  bench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REF = os.path.join(BENCH, "ref")

WORKLOADS = ("eval-corpus", "check-corpus", "deep-store")
SETUP_PROBES = 7
SETUP_SLICES = 10  # calibration slices before, between and after the set-up probes
TRACE_OPS = {"eval-corpus": 6000, "check-corpus": 600}  # deep-store: one round
CALIBRATE_EVERY_S = 0.02  # time inside ops between two calibration slices

# ROADMAP's single-run table (another machine), for the run record only.
ROADMAP_CHAINS = {
    "unify": {25: 0.013, 50: 0.14, 100: 1.17, 200: 18.1},
    "linear": {25: 0.03, 50: 0.07, 100: 0.37, 200: 3.3},
    "atoms": {25: 0.015, 50: 0.10, 100: 0.31, 200: 2.0},
    "disj": {8: 0.06, 10: 0.25, 12: 1.17},
}
ROADMAP_EVAL_ONLY_S = 0.45  # evaluate only, 6 policies x 300 soundness_corpus cases
ROADMAP_CHECK_LITERALS_S = 9.4  # check_soundness, persistence_corpus(3, int, "literals", 150), cProfile on

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_ops_share": "share",
    "decided_share": "share",
    "peak_rss_mb": "MB",
    "unify_chain_s": "s",
    "linear_chain_s": "s",
    "atoms_chain_s": "s",
    "disj_chain_s": "s",
}
# Printed on the last line: the metrics BENCHMARK.json bounds, which exist,
# and are never 0, on every workload.
REPORTED = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms", "decided_share", "peak_rss_mb")


class BenchError(Exception):
    """The run cannot measure what it should; it exits non-zero without a result."""


def import_folc():
    sys.path.insert(0, SRC)
    try:
        import folc
    except ImportError as exc:
        raise BenchError(f"cannot import folc from {SRC}: {exc}") from None
    if not os.path.abspath(folc.__file__).startswith(SRC + os.sep):
        raise BenchError(f"folc was imported from {folc.__file__}, not from {SRC}")


def load_reference(workload: str) -> dict:
    path = os.path.join(REF, f"{workload}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"missing reference file {path}: {exc}") from None


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def measure_setup(workload: str, lines) -> tuple[list[float], array]:
    """Set-up time of SETUP_PROBES fresh processes, each from its start to ready.

    Returns the wall times and the calibration slices run in this process
    before, between and after the probes.  Scaling one probe by the slices
    next to it is noisy, but the median of them all follows the speed of
    the machine over the minutes that move set-up time most.
    """
    payload = workload + "\n" + ("\n".join(lines) if workload == "check-corpus" else "")
    walls, slices = [], array("d")
    for k in range(SETUP_PROBES + 1):
        slices.extend(calibrate.timed_slice() for _ in range(SETUP_SLICES))
        if k == SETUP_PROBES:
            break
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-S", os.path.join(BENCH, "setup_probe.py")],
            input=payload,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        walls.append(float(proc.stdout.split()[-1]) - start)
    return walls, slices


class Results:
    """Latencies, failures and decided counts of one pass over ops.

    Per op it keeps only a latency and a group index, so that the harness's
    own memory, which grows with the number of ops and so with the speed of
    the machine, stays small against peak_rss_mb.
    """

    def __init__(self):
        self.latencies = array("d")
        self.group_ids = array("H")  # per op, an index into group_names
        self.group_names: list[str] = []  # policies, or chain family/size
        self.slices = array("d")  # calibration slice times
        self.slice_at = array("l")  # per slice, the number of ops run before it
        self.windows: list[list] = []  # [ops, time inside ops] per second of the run
        self.failures: list[tuple[str, str]] = []
        self.decided = 0
        self.outputs: list = []
        self._group_index: dict[str, int] = {}

    @property
    def count(self) -> int:
        return len(self.latencies)

    def add(self, group: str, dt: float) -> None:
        gid = self._group_index.get(group)
        if gid is None:
            gid = self._group_index[group] = len(self.group_names)
            self.group_names.append(group)
        self.latencies.append(dt)
        self.group_ids.append(gid)

    def add_slice(self) -> None:
        self.slices.append(calibrate.timed_slice())
        self.slice_at.append(self.count)

    def ref_latencies(self) -> array:
        """Op times in reference seconds; see calibrate.py."""
        out = array("d", self.latencies)
        ends = [*self.slice_at[1:], self.count]
        for start, end, factor in zip(self.slice_at, ends, calibrate.speed_factors(self.slices)):
            for i in range(start, end):
                out[i] *= factor
        return out

    def by_group(self, latencies) -> dict:
        out = defaultdict(lambda: array("d"))
        for gid, dt in zip(self.group_ids, latencies):
            out[self.group_names[gid]].append(dt)
        return out


def run_ops(ops, seconds=None, stride=1, tracer=None, keep_outputs=False) -> Results:
    """Closed loop, one client: each op starts when the previous one has been checked.

    With seconds, the run interleaves calibration slices and stops at the
    first multiple of stride ops once it has spent that many seconds inside
    ops, so that it holds whole rounds of the workload's round-robin.
    """
    res = Results()
    calibrated = seconds is not None
    if calibrated:
        res.add_slice()
    spent = since_slice = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if calibrated and i and i % stride == 0 and spent >= seconds:
            break
        if tracer is not None:
            tracer.begin_op(i, op.group)
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        res.add(op.group, dt)
        second = int(t0 - start)
        while len(res.windows) <= second:
            res.windows.append([0, 0.0])
        res.windows[second][0] += 1
        res.windows[second][1] += dt
        problem = err or op.check(out)
        if problem:
            res.failures.append((op.key, problem))
        elif op.decided(out):
            res.decided += 1
        if keep_outputs:
            res.outputs.append(out)
        if calibrated:
            spent += dt
            since_slice += dt
            if since_slice >= CALIBRATE_EVERY_S:
                res.add_slice()
                since_slice = 0.0
    return res


def percentiles(latencies) -> dict:
    data = sorted(latencies)
    n = len(data)
    q = statistics.quantiles(data, n=100, method="inclusive")
    return {
        "latency_p50_ms": {"value": q[49] * 1e3, "samples": n, "beyond": n - math.ceil(0.50 * n)},
        "latency_p99_ms": {"value": q[98] * 1e3, "samples": n, "beyond": n - math.ceil(0.99 * n)},
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def roadmap_rows(workload, W, pairs, pols, res) -> list[dict]:
    """The ROADMAP table's rows that this workload can be compared with, measured here."""
    if workload == "deep-store":
        by_group = res.by_group(res.latencies)
        return [
            {"row": f"{fam} chain n={n}", "roadmap_s": then, "here_s": statistics.median(by_group[f"{fam}/{n}"])}
            for fam, sizes in ROADMAP_CHAINS.items()
            for n, then in sizes.items()
            if f"{fam}/{n}" in by_group
        ]
    if workload == "eval-corpus":
        cases = [
            (p, phi, sigma)
            for p in W.POLICY_ORDER
            for phi, sigma in W.corpus.soundness_corpus(W.sub_seed(0, "roadmap", p), pairs[p][0], p, 300)
        ]

        def evaluate_all():
            for p, phi, sigma in cases:
                W.semantics.evaluate(phi, sigma, W.semantics.make_context(pairs[p][0], pols[p]))

        row = "evaluate only, 6 policies x 300 soundness_corpus cases"
        return [{"row": row, "roadmap_s": ROADMAP_EVAL_ONLY_S, "here_s": _timed(evaluate_all)}]
    J, bound = pairs["literals"]
    cases = W.corpus.persistence_corpus(3, J, "literals", 150)
    here = _timed(lambda: W.oracle.check_soundness(cases, pols["literals"], J, bound))
    row = "check_soundness on persistence_corpus(3, int, literals, 150); the ROADMAP figure was under cProfile"
    return [{"row": row, "roadmap_s": ROADMAP_CHECK_LITERALS_S, "here_s": here}]


def chain_metrics(W, by_group) -> dict:
    out = {}
    for fam, (_, _, sizes) in W.FAMILIES.items():
        samples = by_group.get(f"{fam}/{max(sizes)}")
        out[f"{fam}_chain_s"] = statistics.median(samples) if samples else None
    return out


def latency_samples(workload, latencies, by_group):
    """The per-op latencies the percentiles are taken over.

    Corpus ops never repeat, so each op gives one sample.  deep-store repeats
    the same ops every round; there an op's latency is the median of its
    repetitions, and each op of a round gives one sample.
    """
    if workload == "deep-store":
        return [statistics.median(v) for v in by_group.values()]
    return latencies


def time_metrics(W, workload, latencies, by_group) -> dict:
    pct = percentiles(latency_samples(workload, latencies, by_group))
    out = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": pct["latency_p50_ms"]["value"],
        "latency_p99_ms": pct["latency_p99_ms"]["value"],
    }
    if workload == "deep-store":
        out.update(chain_metrics(W, by_group))
    return out


def measure(args, W, pairs, pols, lines, refs, record) -> tuple[dict, int, int]:
    ops = W.make_ops(args.workload, args.seed, pairs, pols, lines, refs)
    gc.collect()
    gc.freeze()  # keep the harness's own objects out of the collections ops trigger
    res = run_ops(ops, seconds=args.seconds, stride=W.round_ops(args.workload))
    # read before the sorting and copying below, which are the harness's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = res.count
    ref = res.ref_latencies()
    ref_by_group = res.by_group(ref)
    metrics = time_metrics(W, args.workload, ref, ref_by_group)
    metrics.update(
        failed_ops_share=len(res.failures) / n,
        decided_share=res.decided / n,
        peak_rss_mb=peak_rss_mb,
    )
    record["percentiles"] = percentiles(latency_samples(args.workload, ref, ref_by_group))
    record["wall_clock"] = time_metrics(W, args.workload, res.latencies, res.by_group(res.latencies))
    record["calibration"] = {
        "slices": len(res.slices),
        "nominal_slice_s": calibrate.NOMINAL_SLICE_S,
        "median_slice_s": statistics.median(res.slices),
        "min_slice_s": min(res.slices),
        "max_slice_s": max(res.slices),
    }
    # per policy; for deep-store per family/size, which is the size curve
    record["per_group"] = {
        g: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3, "mean_ms": statistics.fmean(v) * 1e3}
        for g, v in sorted(ref_by_group.items())
    }
    record["ops_per_s_by_second"] = [n / t if t else None for n, t in res.windows]
    record["failures"] = res.failures[:20]
    record["roadmap_reference"] = roadmap_rows(args.workload, W, pairs, pols, res)
    return metrics, n, len(res.failures)


def traced_pass(ops, keep_outputs=False):
    """Run ops untraced, then traced: per-layer metrics, tracing overhead, unattributed time."""
    import tracing

    plain = run_ops(ops, keep_outputs=keep_outputs)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_ops(ops, tracer=tracer, keep_outputs=keep_outputs)
    wall = sum(traced.latencies)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = wall / sum(plain.latencies)
    metrics["unattributed_s"] = wall - tracer.root_time
    return metrics, plain, traced, tracer


def measure_traced(args, W, pairs, pols, lines, refs, record) -> tuple[dict, int, int]:
    count = TRACE_OPS.get(args.workload, W.ROUND_OPS)
    ops = list(itertools.islice(W.make_ops(args.workload, args.seed, pairs, pols, lines, refs), count))
    gc.collect()
    gc.freeze()
    metrics, plain, traced, tracer = traced_pass(ops)
    record["trace"] = {
        "ops": len(ops),
        "untraced_wall_s": sum(plain.latencies),
        "spans_total": tracer.spans_total,
        "spans_kept": len(tracer.span_start),
        "self_s_by_group": tracer.group_breakdown(),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv"))
    failures = plain.failures + traced.failures
    record["failures"] = failures[:20]
    return metrics, plain.count + traced.count, len(failures)


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_summary(args, metrics, attempted, failed, wall_clock) -> None:
    print(f"folc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{attempted} ops, {failed} failed")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:34s} {value:>14.6g} {per_layer_units(name)}")
        return
    print(f"  {'':18s} {'reference time':>22s} {'wall clock':>12s}")
    for name, unit in END_TO_END_UNITS.items():
        value = metrics.get(name)
        shown = "n/a (deep-store only)" if value is None else f"{value:.6g}"
        wall = wall_clock.get(name)
        wall = "" if wall is None else f"{wall:.6g}"
        print(f"  {name:18s} {shown:>22s} {wall:>12s} {unit}")


def run(args) -> int:
    import_folc()
    import workloads as W

    pairs, pols = W.policy_algebras(), W.policies()
    frozen = load_reference(args.workload)
    if W.digest(W.input_lines(args.workload, W.DEFAULT_SEED, pairs)) != frozen["inputs_sha256"]:
        raise BenchError(
            f"the {args.workload} inputs at the default seed {W.DEFAULT_SEED} no longer match the "
            "frozen digest: the corpus generators or the printer changed the workload; "
            "add a new workload instead of measuring a different one under the old name"
        )
    lines = W.input_lines(args.workload, args.seed, pairs)
    refs = frozen["outputs"] if args.seed == W.DEFAULT_SEED else None
    setups, setup_slices = ([], []) if args.trace else measure_setup(args.workload, lines)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "default_seed": W.DEFAULT_SEED,
        "reference_checked": refs is not None,
        "family_sizes": {f: list(v[2]) for f, v in W.FAMILIES.items()},
        "setup_probes_s": setups,
    }
    measure_fn = measure_traced if args.trace else measure
    metrics, attempted, failed = measure_fn(args, W, pairs, pols, lines, refs, record)
    if not args.trace:
        wall = record["wall_clock"]["setup_s"] = statistics.median(setups)
        record["setup_median_slice_s"] = statistics.median(setup_slices)
        metrics["setup_s"] = wall * calibrate.NOMINAL_SLICE_S / record["setup_median_slice_s"]
    record["metrics"] = metrics
    record["attempted"], record["failed"] = attempted, failed
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print_summary(args, metrics, attempted, failed, record.get("wall_clock", {}))
    for key, problem in record["failures"]:
        print(f"  FAILED {key}: {problem}")
    if args.trace:
        shown = {k: {"value": v, "unit": per_layer_units(k)} for k, v in metrics.items()}
    else:
        shown = {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]} for k in REPORTED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
