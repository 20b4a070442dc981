"""The shipped class files and builders must agree, and the classes behave."""

from __future__ import annotations

import os

import pytest

from structlogic import classspec
from structlogic.classspec import (
    Caps,
    DefinedClass,
    ExplicitClass,
    check_class_properties,
    print_class_spec,
)
from structlogic.closure import class_slice
from structlogic.corpus import (
    BUILDERS,
    all_p,
    bare_set,
    bounded_blocks,
    chain,
    corpus_path,
    frozen_predicate,
    linear_orders,
    load_corpus_class,
    write_corpus_files,
)
from structlogic.errors import CapacityError
from structlogic.semantics import enumerate_models
from structlogic.structures import FiniteStructure, normalize, relabel
from structlogic.syntax import Atomic, Exists, Theory, Var
from structlogic.vocab import Vocabulary

GOOD = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_file_matches_builder(name):
    loaded = load_corpus_class(name)
    built = BUILDERS[name]()
    assert print_class_spec(loaded) == print_class_spec(built)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_file_is_regeneration_output(name, tmp_path):
    write_corpus_files(str(tmp_path))
    with open(corpus_path(name), encoding="utf-8") as fh:
        shipped = fh.read()
    regenerated = (tmp_path / f"{name}.sexp").read_text(encoding="utf-8")
    assert shipped == regenerated
    assert shipped.endswith("\n")


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        load_corpus_class("no-such-class")


def test_member_counts_up_to_iso():
    # chains 0..3; triangle-free graphs on <=3 vertices; 1+2+3+4 predicate
    # types; partitions of 0..3 into blocks of <=2.
    counts = {name: len(load_corpus_class(name).members(3)) for name in GOOD}
    assert counts == {
        "linear-orders": 4,
        "triangle-free": 7,
        "frozen-predicate": 10,
        "bounded-blocks": 6,
    }


@pytest.mark.parametrize("name", GOOD)
def test_hereditary_flag_holds(name):
    # members() grows models by one-point extensions of smaller models, which
    # finds every model only when the class is closed under substructures
    spec = load_corpus_class(name)
    assert spec.hereditary
    every = enumerate_models(spec.theory, max_size=4, kappa=spec.kappa, up_to_iso=True)
    assert spec.members(4) == tuple(every)


def test_members_without_the_hereditary_flag_are_the_models():
    # the flag is trusted, not checked: with it, this theory would lose every member
    theory = Theory("some-p", Vocabulary({"P": 1}), (Exists("x", Atomic("P", (Var("x"),))),))
    spec = DefinedClass("some-p", theory, size_cap=3)
    assert not spec.hereditary
    assert spec.members() == tuple(enumerate_models(theory, max_size=3))
    assert [m.size for m in spec.members()] == [1, 2, 2, 3, 3, 3]


def test_linear_order_le_is_initial_segment():
    spec = linear_orders()
    c3 = chain(3)
    assert spec.le(chain(2), c3)
    skip = c3.induced((0, 2))
    assert spec.contains(skip)
    assert not spec.le(skip, c3)


def test_frozen_predicate_le_freezes_the_p_set():
    spec = frozen_predicate()
    b = FiniteStructure(all_p(0).vocab, range(2), {"P": {(0,)}})
    assert spec.le(b.induced((0,)), b)
    assert not spec.le(b.induced((1,)), b)


def test_bounded_blocks_le_freezes_blocks():
    vocab = Vocabulary({"E": 2})
    spec = bounded_blocks()
    joined = FiniteStructure(
        vocab, range(2), {"E": {(0, 0), (0, 1), (1, 0), (1, 1)}}
    )
    split = FiniteStructure(vocab, range(2), {"E": {(0, 0), (1, 1)}})
    assert spec.contains(joined) and spec.contains(split)
    assert not spec.le(joined.induced((0,)), joined)
    assert spec.le(split.induced((0,)), split)


def test_members_are_canonical_and_closed_under_iso():
    for name in GOOD:
        spec = load_corpus_class(name)
        for n in spec.members(3):
            assert normalize(n).key == n.key
            relabeled = relabel(n, {e: e + 10 for e in n.universe})
            assert spec.contains(relabeled)


@pytest.mark.parametrize("name", GOOD)
def test_class_axiom_slice_passes(name):
    report = check_class_properties(load_corpus_class(name), Caps(size=3))
    assert report.ok
    untestable = {
        c.name for c in report.checks if c.status == "not-finitely-testable"
    }
    assert untestable == {"chain-axioms", "size-bound-axiom"}


def test_class_axioms_decide_each_order_pair_once(monkeypatch):
    asked = []
    real = classspec.elem_F_star

    def counted(m, n, *rest):
        asked.append((m, n))
        return real(m, n, *rest)

    monkeypatch.setattr(classspec, "elem_F_star", counted)
    class_slice.cache_clear()
    assert check_class_properties(load_corpus_class("linear-orders"), Caps(size=4)).ok
    assert len(asked) == len(set(asked)) == 41


def test_broken_coherence_fails_exactly_coherence():
    report = check_class_properties(load_corpus_class("broken-coherence"), Caps(size=4))
    assert not report.ok
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == ["coherence"]


def test_broken_intersections_still_satisfies_order_axioms():
    # the defect in this class is closure-by-intersection, not the order laws
    report = check_class_properties(
        load_corpus_class("broken-intersections"), Caps(size=4)
    )
    assert report.ok


def test_explicit_representative_past_the_labelling_cap_is_refused():
    with pytest.raises(CapacityError):
        ExplicitClass("big", (bare_set(3), bare_set(9)), frozenset())
