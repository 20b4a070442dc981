from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlogic import sexpr
from structlogic.errors import ParseError
from structlogic.formats import (
    parse_decorated,
    parse_formula,
    parse_structure,
    parse_theory,
    parse_vocab,
    print_decorated,
    print_formula,
    print_structure,
    print_theory,
    print_vocab,
)
from structlogic.structures import FiniteStructure, decorated
from structlogic.syntax import Forall, Theory, qstruct
from structlogic.vocab import Vocabulary


def test_sexpr_tokens_and_comments():
    assert sexpr.parse_one("(a 1 (b -2)) ; trailing") == ["a", 1, ["b", -2]]
    assert sexpr.parse_all("; full-line comment\n(x)\n(y)") == [["x"], ["y"]]


def test_sexpr_error_position():
    with pytest.raises(ParseError) as err:
        sexpr.parse_one("(a (b)")
    assert "1:6" in str(err.value)


def test_vocab_round_trip():
    v = Vocabulary({"E": 2, "P": 1}, {"f": 1, "c": 0})
    assert parse_vocab(print_vocab(v)) == v
    text = print_vocab(v)
    assert "(rel E 2)" in text and "(const c)" in text


@pytest.mark.parametrize(
    "text",
    ["(vocab (rel R 2) (rel R 1))", "(vocab (fun f 1) (const f))", "(vocab (rel R 1) (fun R 1))"],
)
def test_a_symbol_declared_twice_is_a_parse_error(text):
    with pytest.raises(ParseError, match="'[Rf]' is declared twice"):
        parse_vocab(text)


def test_structure_round_trip_with_functions():
    v = Vocabulary({"E": 2}, {"f": 1, "c": 0})
    s = FiniteStructure(
        v, range(3), {"E": {(0, 1), (2, 2)}}, {"f": {(0,): 1, (1,): 2, (2,): 2}, "c": {(): 0}}
    )
    assert parse_structure(print_structure(s)) == s


def test_structure_explicit_universe_form():
    v = Vocabulary({"E": 2})
    s = FiniteStructure(v, [1, 4], {"E": {(1, 4)}})
    text = print_structure(s)
    assert "(universe (1 4))" in text
    assert parse_structure(text) == s


def test_structure_parse_errors():
    with pytest.raises(ParseError):
        parse_structure("(structure (vocab) )")
    with pytest.raises(ParseError):
        parse_structure("(vocab)")


def test_decorated_round_trip():
    v = Vocabulary({"E": 2})
    d = decorated(FiniteStructure(v, range(2), {"E": {(0, 1)}}), (frozenset({1}), frozenset()))
    assert parse_decorated(print_decorated(d)) == d


def test_formula_round_trip_all_nodes():
    texts = [
        "(rel E x z)",
        "(= x z)",
        "(= (f x) (f (f z)))",
        "(not (rel E x x))",
        "(and (rel E x z) (= x z))",
        "(or (rel E x z) (not (= x z)))",
        "(exists w (rel E w x))",
        "(forall z (exists x (rel E x z)))",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(print_formula(phi)) == phi


def test_qstruct_formula_round_trip():
    v = Vocabulary({"E": 2})
    target = decorated(FiniteStructure(v, range(2), {"E": {(0, 1)}}), (frozenset({0}),))
    q = qstruct(target, "x", ("y",), parse_formula("(rel E x z)"), (parse_formula("(rel E y z)"),))
    back = parse_formula(print_formula(q))
    assert back == q
    # embedded target is normalized on parse
    assert back.target == q.target


def test_theory_round_trip():
    v = Vocabulary({"E": 2})
    t = Theory("demo", v, (parse_formula("(forall z (rel E z z))"),))
    assert parse_theory(print_theory(t)) == t
    assert parse_theory(print_theory(t, pretty=False)) == t


def test_formula_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("(rel)")
    with pytest.raises(ParseError):
        parse_formula("(and)")
    with pytest.raises(ParseError):
        parse_formula("(bogus x)")


def _relation_structure(n, rows):
    return FiniteStructure(Vocabulary({"E": 2}), range(n), {"E": rows})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.data())
def test_structure_round_trip_property(n, data):
    rows = (
        data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))) if n else set()
    )
    s = _relation_structure(n, rows)
    assert parse_structure(print_structure(s)) == s
