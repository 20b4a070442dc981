"""The record classes behave as the dataclasses they replace: equality by
class and fields, the same hash values, frozen fields, the same repr text,
fresh factory defaults and `__post_init__` validation."""

from __future__ import annotations

import pytest

from structlogic.corpus import chain
from structlogic.errors import ShapeError
from structlogic.records import field, record
from structlogic.reports import CheckResult, VerificationReport
from structlogic.semantics import ElemReport
from structlogic.structures import decorated
from structlogic.syntax import (
    UNBOUNDED,
    And,
    App,
    Atomic,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    Theory,
    Var,
    qstruct,
)
from structlogic.vocab import Vocabulary

X, Y = Var("x"), Var("y")
LT = Atomic("lt", (X, Y))


def _formula_nodes():
    target = decorated(chain(2), [{0}])
    return [
        (X, ("x",)),
        (App("f", (X,)), ("f", (X,))),
        (LT, ("lt", (X, Y))),
        (Equal(X, Y), (X, Y)),
        (Not(LT), (LT,)),
        (And((LT, Not(LT))), ((LT, Not(LT)),)),
        (Or((LT, Not(LT))), ((LT, Not(LT)),)),
        (Exists("x", LT), ("x", LT)),
        (Forall("y", LT), ("y", LT)),
    ] + [
        (q, (q.target, q.var, q.yvars, q.phi, q.psis))
        for q in [qstruct(target, "v", ("w",), Atomic("lt", (Var("v"), X)), (Equal(Var("w"), X),))]
    ]


def test_equality_needs_the_same_class():
    assert And((LT, Not(LT))) != Or((LT, Not(LT)))
    assert And((LT, Not(LT))) == And((LT, Not(LT)))
    assert X.__eq__("x") is NotImplemented


@pytest.mark.parametrize("node, values", _formula_nodes(), ids=lambda v: type(v).__name__)
def test_hash_is_the_hash_of_the_field_tuple(node, values):
    assert hash(node) == hash(values)
    assert hash(node) == hash(type(node)(*values))


def test_decorated_structure_hash_is_the_hash_of_its_fields():
    d = decorated(chain(3), [{0, 2}, {1}])
    assert hash(d) == hash((d.base, d.subsets))


def test_hash_is_computed_once():
    class Counted:
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    node = Not(Counted())
    assert hash(node) == hash(node) == hash((Counted(),))
    assert Counted.calls == 2  # the node's first hash, and the comparison tuple's


def test_frozen_fields_refuse_assignment_and_deletion():
    with pytest.raises(AttributeError):
        LT.rel = "gt"
    with pytest.raises(AttributeError):
        del LT.rel
    with pytest.raises(AttributeError):
        decorated(chain(2)).subsets = ()
    assert LT.rel == "lt"


def test_repr_text_is_the_dataclass_text():
    assert repr(X) == "Var(name='x')"
    assert repr(Atomic("lt", (X, App("f", (Y,))))) == (
        "Atomic(rel='lt', terms=(Var(name='x'), App(fun='f', args=(Var(name='y'),))))"
    )
    assert repr(ElemReport(False, "truth-disagreement", LT, (("x", 0), ("y", 1)), "why")) == (
        "ElemReport(ok=False, kind='truth-disagreement', "
        "formula=Atomic(rel='lt', terms=(Var(name='x'), Var(name='y'))), "
        "assignment=(('x', 0), ('y', 1)), detail='why')"
    )
    assert repr(UNBOUNDED) == "Unbounded"  # a class's own method is kept


def test_factory_defaults_are_fresh_per_instance():
    first, second = CheckResult("a", "pass"), CheckResult("b", "pass")
    first.counts["n"] = 1
    assert second.counts == {}
    one, other = VerificationReport("one"), VerificationReport("other")
    one.add("c", "pass")
    assert other.checks == [] and len(one.checks) == 1


def test_post_init_validation_still_runs():
    with pytest.raises(ShapeError):
        And(())
    with pytest.raises(ShapeError):
        Theory("open", Vocabulary({"lt": 2}), (LT,))


def test_plain_records_are_mutable_and_unhashable():
    report = VerificationReport("x")
    report.command = "y"
    assert report.command == "y"
    with pytest.raises(TypeError):
        hash(report)


def test_record_defaults_and_keywords():
    @record(frozen=True)
    class Point:
        x: int
        y: int = 0
        tags: tuple = field(default_factory=tuple)

    assert Point(1) == Point(x=1, y=0, tags=())
    assert repr(Point(1, tags=("a",))) == f"{Point.__qualname__}(x=1, y=0, tags=('a',))"
    assert "tags" not in Point.__dict__
