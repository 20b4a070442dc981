"""The structure quantifier's match against the part-building match it replaced.

`semantics._matches` takes the main and side sets as masks over n's
elements, as a sweep gives them.  It reads n's rows of the target's symbols
inside the main set, rejects on sizes, closure and row counts, and labels
only a part that passes them, without building a structure.  `reference_matches` (from
`test_eval_reference`) builds the reduct and the induced part and compares
canonical keys.  Verdicts, or the errors raised, must be the same: on random
structures over relational and function vocabularies (constants and a
binary function included), targets over the whole vocabulary or a proper
part of it, main sets closed or not, side sets inside main or not, sizes
0-1, and targets that share every row count with the part without being
isomorphic to it.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlogic import structures
from structlogic.errors import CapacityError
from structlogic.semantics import _matches, _target
from structlogic.semantics import eval as ev
from structlogic.structures import (
    CANONICAL_SIZE_CAP,
    FiniteStructure,
    decorated,
    normalize,
    relabel,
)
from structlogic.syntax import Atomic, Equal, QStruct, Var, qstruct
from structlogic.vocab import Vocabulary
from test_eval_reference import reference_matches

VOCABS = (
    Vocabulary({"R": 2, "P": 1}),
    Vocabulary({"R": 2, "S": 2}),
    Vocabulary({"P": 1}, {"f": 1}),
    Vocabulary({"R": 2}, {"g": 2, "c": 0}),
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapacityError as exc:
        return CapacityError, str(exc)


def mask(n: FiniteStructure, elements) -> int:
    """elements as a sweep gives them to `_matches`: bit i is n.elements[i]."""
    return sum(1 << i for i, e in enumerate(n.elements) if e in elements)


def engine(n, target, main, sides):
    sides = tuple(mask(n, side) for side in sides)
    return outcome(_matches, n, _target(target), mask(n, main), sides)


def reference(n, target, main, sides):
    return outcome(reference_matches, n, target, main, sides)


def closure(vocab: Vocabulary, n: FiniteStructure, seed) -> frozenset:
    """The least subset of n's universe holding seed and closed under vocab's functions."""
    closed = set(seed)
    while True:
        new = {
            n.apply(name, args)
            for name in vocab.function_names()
            for args in product(sorted(closed), repeat=vocab.fun_arity(name))
        } - closed
        if not new:
            return frozenset(closed)
        closed |= new


@st.composite
def tables(draw, vocab: Vocabulary, elems, counts=None):
    """Relations (of the given row counts, when counts are given) and total functions."""
    elems = list(elems)
    relations = {}
    for name in vocab.relation_names():
        cells = list(product(elems, repeat=vocab.rel_arity(name)))
        if not cells:
            relations[name] = set()
        elif counts is None:
            relations[name] = draw(st.sets(st.sampled_from(cells), max_size=len(cells)))
        else:
            relations[name] = set(draw(st.permutations(cells))[: counts[name]])
    functions = {
        name: {args: draw(st.sampled_from(elems)) for args in product(elems, repeat=arity)}
        for name, arity in vocab.functions.items()
    }
    return relations, functions


@st.composite
def sub_vocabularies(draw, vocab: Vocabulary) -> Vocabulary:
    rels = draw(st.sets(st.sampled_from(vocab.relation_names())))
    funs = draw(st.sets(st.sampled_from(vocab.function_names()))) if vocab.functions else ()
    return Vocabulary(
        {n: vocab.rel_arity(n) for n in rels}, {n: vocab.fun_arity(n) for n in funs}
    )


@st.composite
def cases(draw):
    vocab = draw(st.sampled_from(VOCABS))
    size = draw(st.integers(1 if vocab.has_constants() else 0, 5))
    low = draw(st.sampled_from((0, 10)))
    elems = range(low, low + size)
    n = FiniteStructure(vocab, elems, *draw(tables(vocab, elems)))
    tvocab = draw(sub_vocabularies(vocab))
    seed = draw(st.sets(st.sampled_from(elems), max_size=size) if size else st.just(set()))
    # a closed main set, or any subset, closed or not
    main = closure(tvocab, n, seed) if draw(st.booleans()) else frozenset(seed)
    inside = sorted(main if draw(st.booleans()) else elems)
    sides = tuple(
        frozenset(draw(st.sets(st.sampled_from(inside)) if inside else st.just(set())))
        for _ in range(draw(st.integers(0, 2)))
    )
    m = len(main)
    kind = draw(st.sampled_from(("copy", "counts", "random")))
    part = structures.reduct(n, tvocab)
    if kind != "random" and part.is_closed_subset(main):
        part = part.induced(main)
        ids = dict(zip(sorted(main), range(m)))
        if kind == "copy":
            base, subsets = relabel(part, ids), [{ids[e] for e in s & main} for s in sides]
        else:
            # every row count of the part, rows drawn afresh: isomorphic or not
            counts = {name: len(part.rel(name)) for name in tvocab.relation_names()}
            base = FiniteStructure(tvocab, range(m), *draw(tables(tvocab, range(m), counts)))
            subsets = [set(draw(st.permutations(range(m)))[: len(s & main)]) for s in sides]
    else:
        tsize = draw(st.integers(max(m - 1, 1 if tvocab.has_constants() else 0), m + 1))
        base = FiniteStructure(tvocab, range(tsize), *draw(tables(tvocab, range(tsize))))
        subsets = [draw(st.sets(st.sampled_from(range(tsize)))) if tsize else set() for _ in sides]
    target = decorated(base, subsets)
    if draw(st.booleans()):
        target = normalize(target)
    return n, target, main, sides


@settings(max_examples=400, deadline=None)
@given(cases())
def test_matches_agrees_with_the_part_building_reference(case):
    assert engine(*case) == reference(*case)


def test_equal_row_counts_are_labelled_and_distinct_counts_are_not(monkeypatch):
    """A path and an out-star share their row count: only labelling tells them
    apart.  A part with a different row count is rejected unlabelled.  The
    cycle runs downwards, so no part is already in canonical layout."""
    labelled = []
    rows = structures._canonical_rows
    monkeypatch.setattr(structures, "_canonical_rows", lambda g, m: labelled.append(m) or rows(g, m))
    vocab = Vocabulary({"R": 2})
    n = FiniteStructure(vocab, range(4), {"R": {(1, 0), (2, 1), (3, 2), (0, 3)}})
    star = decorated(FiniteStructure(vocab, range(3), {"R": {(0, 1), (0, 2)}}))
    path = decorated(FiniteStructure(vocab, range(3), {"R": {(0, 1), (1, 2)}}))
    one = decorated(FiniteStructure(vocab, range(3), {"R": {(0, 1)}}))
    star_t, path_t, one_t = (_target(t) for t in (star, path, one))
    labelled.clear()
    main = frozenset({0, 1, 2})
    induces = structures.induces_copy
    assert induces(n, star_t, main, ()) is False
    assert induces(n, path_t, main, ()) is True
    assert labelled == [3, 3]
    assert induces(n, one_t, main, ()) is False
    assert induces(n, path_t, frozenset({0, 1, 2, 3}), ()) is False
    assert labelled == [3, 3]
    for t in (star, path, one):
        assert reference_matches(n, t, main, ()) == induces(n, _target(t), main, ())


@pytest.mark.parametrize("vocab", VOCABS, ids=str)
def test_a_part_in_canonical_layout_matches_without_a_search(vocab, monkeypatch):
    """A canonical copy matches its own target with no label search: its rows,
    indexed in main's order, are the target's canonical rows.  A relabelled
    copy of it is searched for, and found."""
    rng = random.Random(7)
    cases = []
    for size in range(2, 6):
        elems = range(size)
        relations = {
            name: {r for r in product(elems, repeat=vocab.rel_arity(name)) if rng.random() < 0.4}
            for name in vocab.relation_names()
        }
        functions = {
            name: {args: rng.randrange(size) for args in product(elems, repeat=arity)}
            for name, arity in vocab.functions.items()
        }
        s = FiniteStructure(vocab, elems, relations, functions)
        canon = normalize(decorated(s, [frozenset(rng.sample(elems, 2))]))
        ids = dict(zip(range(size), range(size)[::-1]))
        flipped = (relabel(canon.base, ids), frozenset(ids[e] for e in canon.subsets[0]))
        cases.append((_target(canon), canon, flipped))
    labelled = []
    rows = structures._canonical_rows
    monkeypatch.setattr(structures, "_canonical_rows", lambda g, m: labelled.append(m) or rows(g, m))
    for target, canon, _ in cases:
        main = frozenset(canon.base.universe)
        assert structures.induces_copy(canon.base, target, main, canon.subsets) is True
    assert labelled == []
    for target, _, (base, side) in cases:
        assert structures.induces_copy(base, target, frozenset(base.universe), (side,)) is True
    assert labelled


def test_past_the_labelling_cap_both_raise_on_a_closed_main_set_only():
    m = CANONICAL_SIZE_CAP + 1
    vocab = Vocabulary({"R": 2}, {"f": 1})
    elems = range(m + 2)
    n = FiniteStructure(
        vocab,
        elems,
        {"R": {(e, e + 1) for e in elems[:-1]}},
        {"f": {(e,): max(e - 1, 0) if e < m else e for e in elems}},
    )
    big = FiniteStructure(vocab, range(m), {}, {"f": {(e,): e for e in range(m)}})
    closed, shifted = frozenset(range(m)), frozenset(range(1, m + 1))
    assert n.is_closed_subset(closed) and not n.is_closed_subset(shifted)
    runs = [
        (decorated(big), closed, ()),
        (decorated(big), shifted, ()),
        (decorated(big), frozenset(range(m - 1)), ()),
        (decorated(big, [{0}]), closed, (frozenset({0, 1}),)),
        (decorated(big, [{0}]), closed, (frozenset({m + 1}),)),
        (decorated(structures.reduct(big, Vocabulary({"R": 2}))), shifted, ()),
    ]
    seen = [engine(n, t, main, sides) for t, main, sides in runs]
    assert seen == [reference(n, t, main, sides) for t, main, sides in runs]
    raised = (CapacityError, f"canonical labeling caps at size {CANONICAL_SIZE_CAP}, got {m}")
    assert seen == [raised, False, False, raised, False, raised]


def test_quantifier_evaluation_leaves_the_labelling_memo_alone(monkeypatch):
    vocab = Vocabulary({"R": 2})
    x, y = Var("x"), Var("y")
    formulas = [
        qstruct(FiniteStructure(vocab, range(k), {"R": rows}), "x", (), Atomic("R", (x, y)), ())
        for k, rows in ((2, {(0, 1)}), (3, {(0, 1), (1, 2)}), (3, {(0, 1), (0, 2)}))
    ]
    formulas.append(
        QStruct(
            normalize(decorated(FiniteStructure(vocab, range(2), {"R": {(1, 0)}}), [{1}])),
            "x",
            ("z",),
            Atomic("R", (x, y)),
            (Equal(Var("z"), y),),
        )
    )
    rng = random.Random(5)
    cells = list(product(range(5), repeat=2))
    graphs = [FiniteStructure(vocab, range(5), {"R": rng.sample(cells, 6)}) for _ in range(60)]
    entries, label = [], structures._labelling
    monkeypatch.setattr(structures, "_labelling", lambda d: entries.append(d) or label(d))
    verdicts = [ev(g, phi, {"y": e}) for phi in formulas for g in graphs for e in g.universe]
    assert entries == []
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("vocab", VOCABS, ids=str)
def test_equal_targets_share_one_match_target(vocab):
    """Equal targets share one object, so they share `_matches` entries."""
    t = decorated(FiniteStructure(vocab, range(1), *_one_point(vocab)))
    copy = decorated(FiniteStructure(vocab, [0], *_one_point(vocab)))
    assert copy == t and copy is not t
    assert _target(copy) is _target(t)


def _one_point(vocab: Vocabulary):
    return (
        {name: {(0,) * vocab.rel_arity(name)} for name in vocab.relation_names()},
        {name: {(0,) * a: 0} for name, a in vocab.functions.items()},
    )
