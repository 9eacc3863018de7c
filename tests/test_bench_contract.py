"""The names the benchmark's tracer wraps must exist in the sources.

bench/tracing.py finds what it wraps by name; a renamed or deleted function
would otherwise break only `bench/run.py --trace 1`.  The module is loaded
from its file and used as it is.
"""

import importlib.util
from pathlib import Path

import pytest

from folc import algebra, infer, semantics, state, syntax
from folc.algebra import int_algebra

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("folc_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    for targets in (*tracing.SPAN_TARGETS.values(), *tracing.COUNT_TARGETS.values()):
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    methods = {(name, cls.__name__) for name, cls, _ in tracing._method_targets()}
    printed = {cls for name, cls in methods if name == "syntax.print"}
    assert {"Term", "Formula", "Pair"} <= printed
    assert ("infer.apply", "StorePolicy") in methods
    assert ("infer.resolve", "LiteralsPolicy") in methods


def test_traced_evaluation_counts_the_term_and_policy_layers(tracing):
    before = {name: value for name, value in vars(algebra).items() if callable(value)}
    J = int_algebra()
    phi = syntax.parse_formula("y < z & y = 1 & z = 2", J.signature)
    ctx = semantics.make_context(J, infer.get_policy("atoms"))
    with tracing.Tracer() as tracer:
        tracer.begin_op(0, "contract")
        answers = semantics.evaluate(phi, state.pair((), algebra.EMPTY_SUBST), ctx)
        tracer.end_op()
    assert [str(s) for s in answers] == ["<{} | {y/1, z/2}>"]
    metrics = tracer.metrics()
    assert metrics["algebra.apply_subst.calls"] > 0
    assert metrics["infer.resolve.calls"] > 0
    assert {name: value for name, value in vars(algebra).items() if callable(value)} == before
