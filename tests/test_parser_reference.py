"""The parser and printer against the recursive ones they replaced.

tests/reference_parser.py holds the previous implementation unchanged.  On
corpus text, on fuzzed token soup and on corpus text with parentheses
inserted, both parsers must build equal trees or both raise ParseError; the
messages may differ on a malformed parenthesised group, which the new parser
reads as a term or a formula from what reaches its `)`.  Both printers must
print the same text.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser as reference
from conftest import herb_formulas, herb_terms, int_formulas, int_terms, rat_formulas, rat_terms
from folc import syntax
from folc.corpus import persistence_corpus, soundness_corpus
from folc.syntax import ParseError
from test_acceptance import POLICY_ALGEBRAS
from test_cli import _TOKENS

_PARSERS = ("parse_formula", "parse_term", "parse_substitution_pairs")


def _outcome(module, name, text, signature, allow_fresh):
    try:
        return getattr(module, name)(text, signature, allow_fresh)
    except ParseError:
        return ParseError


def _case_texts(phi, sigma):
    """The formula, each --store chunk and the --theta of a case, as the CLI reads them."""
    yield "parse_formula", str(phi)
    for f in sigma.store:
        yield "parse_formula", str(f)
    yield "parse_substitution_pairs", str(sigma.subst)


@pytest.mark.parametrize("policy", sorted(POLICY_ALGEBRAS))
def test_corpus_texts_parse_to_the_same_trees(policy):
    J = POLICY_ALGEBRAS[policy][0]
    cases = soundness_corpus(11, J, policy, 150) + persistence_corpus(11, J, policy, 150)
    for phi, sigma in cases:
        for name, text in _case_texts(phi, sigma):
            tree = getattr(syntax, name)(text, J.signature)
            assert tree == getattr(reference, name)(text, J.signature), text


# Token soup: the CLI fuzz test's tokens, a character no token starts with,
# and runs of unbalanced parentheses; joined with or without spaces, so
# that neighbouring tokens also run together into new ones.
_SOUP = st.builds(
    str.join,
    st.sampled_from([" ", ""]),
    st.lists(st.one_of(_TOKENS, st.sampled_from(["@", "((", "))", "(((", ")))"])), max_size=12),
)


@pytest.mark.parametrize("algebra", ["int", "rat", "herbrand"])
@settings(max_examples=300)
@given(text=_SOUP, allow_fresh=st.booleans())
def test_token_soup_parses_alike(algebra, text, allow_fresh, int_alg, rat_alg, herb):
    signature = {"int": int_alg, "rat": rat_alg, "herbrand": herb}[algebra].signature
    for name in _PARSERS:
        ours = _outcome(syntax, name, text, signature, allow_fresh)
        assert ours == _outcome(reference, name, text, signature, allow_fresh), (name, text)


# The token pattern before its one-character class moved to the front.  No two
# alternatives start with the same character, so the order may move no token
# and no gap: soup and random characters split alike under both.
_PREVIOUS_SPLIT = re.compile(r"(\d+|\$?[a-z][a-z0-9_]*|<=|/=|[()=<>~&|.,+\-*/{};])")


@settings(max_examples=300)
@given(text=st.one_of(_SOUP, st.text(alphabet="xa1_$<=/()~&|.,+-*{};> \t@\u0663\u00a0", max_size=20)))
def test_token_soup_scans_alike(text):
    assert syntax._TOKEN_SPLIT.split(text) == _PREVIOUS_SPLIT.split(text)


def _near_valid(rng, text):
    """text with one or two "(" and zero to two ")" inserted, each pair around a random token span."""
    toks = [tok.text for tok in reference._tokenize(text)[:-1]]
    opens, closes = rng.randint(1, 2), rng.randint(0, 2)
    for k in range(max(opens, closes)):
        start = rng.randint(0, len(toks))
        stop = rng.randint(start, len(toks))
        if k < closes:
            toks.insert(stop, ")")
        if k < opens:
            toks.insert(start, "(")
    return " ".join(toks)


@pytest.mark.parametrize("policy", ["atoms", "linear", "unify"], ids=["int", "rat", "herbrand"])
def test_near_valid_texts_parse_alike(policy):
    """Printed corpus formulas with parentheses inserted: where a group holds a term or a formula."""
    J = POLICY_ALGEBRAS[policy][0]
    rng = random.Random(7)
    texts = [str(phi) for phi, _ in soundness_corpus(7, J, policy, 100)]
    for _ in range(1000):
        text = _near_valid(rng, rng.choice(texts))
        ours = _outcome(syntax, "parse_formula", text, J.signature, False)
        assert ours == _outcome(reference, "parse_formula", text, J.signature, False), text


def _message(module, text, signature):
    try:
        module.parse_formula(text, signature)
    except ParseError as exc:
        return str(exc)
    return None


def test_same_messages_on_stray_characters_and_open_groups(int_alg):
    """Unicode spaces and digits scan as before, a stray character stops the scan at the same
    place, and a group left open is a formula if any group inside it is."""
    sig = int_alg.signature
    stray = ("x =\u00a01", "x = \u0663", "x = 1 \u00e9", "x = 1_", "$ = 1", "x = $", "x = 1 @ ((")
    for text in (*stray, "(x = 1) ~", "((x = 1", "(((x + 1) = 2"):
        message = _message(syntax, text, sig)
        assert message == _message(reference, text, sig), text
        if message is None:
            assert syntax.parse_formula(text, sig) == reference.parse_formula(text, sig), text


@pytest.mark.parametrize(
    "formulas, terms",
    [(int_formulas, int_terms), (rat_formulas, rat_terms), (herb_formulas, herb_terms)],
    ids=["int", "rat", "herbrand"],
)
@settings(max_examples=100)
@given(data=st.data())
def test_printers_agree(formulas, terms, data):
    f = data.draw(formulas())
    t = data.draw(terms())
    assert syntax.formula_to_str(f) == reference.formula_to_str(f)
    assert syntax.term_to_str(t) == reference.term_to_str(t)
