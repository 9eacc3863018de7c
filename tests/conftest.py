import functools
import pytest
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from folc.algebra import herbrand_algebra, int_algebra, rat_algebra
from folc.syntax import And, App, Atom, BOTTOM, Eq, Exists, Neq, Not, Or, Val, Var

settings.register_profile(
    "suite", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

VARS = ("x", "y", "z")


@pytest.fixture(scope="session")
def int_alg():
    return int_algebra()


@pytest.fixture(scope="session")
def rat_alg():
    return rat_algebra()


@pytest.fixture(scope="session")
def herb():
    return herbrand_algebra([("f", 1), ("g", 2), ("a", 0), ("b", 0), ("c", 0)])


# ---------------------------------------------------------------------------
# hypothesis strategies
#
# Each function is cached: it returns one strategy object per argument list,
# so Hypothesis does not build a new st.recursive on every call and draw.

names = st.sampled_from(VARS)


@functools.cache
def int_terms():
    leaves = st.one_of(
        names.map(Var),
        st.integers(min_value=-9, max_value=9).map(Val),
    )
    return st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(("+", "-", "*")), sub, sub).map(
            lambda t: App(t[0], (t[1], t[2]))
        ),
        max_leaves=6,
    )


@functools.cache
def rat_terms():
    fractions = st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=5),
    )
    leaves = st.one_of(names.map(Var), fractions.map(Val))
    return st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(("+", "-", "*")), sub, sub).map(
            lambda t: App(t[0], (t[1], t[2]))
        ),
        max_leaves=6,
    )


@functools.cache
def herb_terms(max_leaves=5):
    leaves = st.one_of(
        names.map(Var),
        st.sampled_from(("a", "b", "c")).map(lambda n: App(n, ())),
    )

    def build(sub):
        return st.one_of(
            sub.map(lambda t: App("f", (t,))),
            st.tuples(sub, sub).map(lambda p: App("g", p)),
        )

    return st.recursive(leaves, build, max_leaves=max_leaves)


@functools.cache
def formulas(terms, arith: bool):
    atom_choices = [
        st.tuples(terms, terms).map(lambda p: Eq(*p)),
        st.tuples(terms, terms).map(lambda p: Neq(*p)),
        st.just(BOTTOM),
    ]
    if arith:
        atom_choices.append(
            st.tuples(st.sampled_from(("<", "<=")), terms, terms).map(lambda t: Atom(*t))
        )
    atoms = st.one_of(*atom_choices)

    def build(sub):
        return st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(names, sub).map(lambda p: Exists(*p)),
        )

    return st.recursive(atoms, build, max_leaves=6)


@functools.cache
def int_formulas():
    return formulas(int_terms(), arith=True)


@functools.cache
def rat_formulas():
    return formulas(rat_terms(), arith=True)


@functools.cache
def herb_formulas():
    return formulas(herb_terms(), arith=False)
