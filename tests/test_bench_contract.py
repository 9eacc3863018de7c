"""What the benchmark reads of the sources must exist and keep its meaning.

bench/tracing.py finds what it wraps by name; a renamed or deleted function
would otherwise break only `bench/run.py --trace 1`.  bench/workloads.py
walks nodes through vars(), which the nodes' read-only __dict__ view
serves.  Both modules are loaded from their files and used as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from folc import algebra, corpus, infer, semantics, state, syntax
from folc.algebra import int_algebra

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"folc_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


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


def test_the_bench_free_names_walk_agrees_with_free_vars(workloads):
    for name, (J, _) in workloads.policy_algebras().items():
        for phi, sigma in corpus.soundness_corpus(11, J, name, 60):
            assert workloads._free_names(phi) == syntax.free_vars(phi), (name, str(phi))
            for f in sigma.store:
                assert workloads._free_names(f) == syntax.free_vars(f), (name, str(f))
