"""Consistency of the traced run, on a small input.

    python3 -m pytest bench/test_tracing.py
"""

import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_folc()
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def small_ops(workload, n, seed=5):
    pairs, pols = W.policy_algebras(), W.policies()
    if workload == "deep-store":
        chains = [W.Chain(fam, size, "x", 2) for fam in W.FAMILIES for size in (3, 6)]
        return [
            W.Op(
                f"deep/{c.family}/{c.size}",
                f"{c.family}/{c.size}",
                lambda c=c: W.deep_run(c.text(), *_deep_args(c, pairs, pols)),
                lambda result, c=c: c.check(*result),
                lambda result: True,
            )
            for c in chains
        ]
    lines = W.input_lines(workload, seed, pairs)
    return list(itertools.islice(W.make_ops(workload, seed, pairs, pols, lines), n))


def _deep_args(chain, pairs, pols):
    policy, alg, _ = W.FAMILIES[chain.family]
    return pairs[alg][0], pols[policy]


def _bindings():
    """Identity of every attribute of every folc module and of the classes they define."""
    out = {}
    for module in tracing._folc_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("folc"):
                for attr, member in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = member
    return out


@pytest.fixture(scope="module", params=["eval-corpus", "check-corpus", "deep-store"])
def ops(request):
    return small_ops(request.param, {"eval-corpus": 120, "check-corpus": 24, "deep-store": None}[request.param])


def test_self_times_and_unattributed_sum_to_traced_wall(ops):
    metrics, _, traced, tracer = run.traced_pass(ops)
    self_total = sum(metrics[m] for m in tracing.SELF_TIME_METRICS)
    assert not traced.failures
    assert tracer.spans_total > 0
    assert metrics["unattributed_s"] >= 0
    assert self_total + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert sum(tracer.self_time.values()) == pytest.approx(self_total, rel=1e-9)


def test_every_wrapped_name_is_restored(ops):
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("folc.semantics", "evaluate") in changed
        assert ("folc.oracle", "evaluate") in changed  # imported binding, found by identity
        assert ("folc.state", "Pair", "__str__") in changed
        run.run_ops(ops)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_outputs_identical_with_and_without_a_prior_traced_run(ops):
    first = run.run_ops(ops, keep_outputs=True).outputs
    _, plain, traced, _ = run.traced_pass(ops, keep_outputs=True)
    again = run.run_ops(ops, keep_outputs=True).outputs
    assert plain.outputs == first
    assert traced.outputs == first
    assert again == first
