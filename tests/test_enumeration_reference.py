"""Isomorph-free generation with the invariant filter, against the loop that labels everything.

`enumerate_hereditary` labels a one-point extension only when its new point
has the largest invariant, and only one extension per orbit of the
representative's known automorphisms.  The loop it replaced labelled every
extension and deduplicated the copies; it is kept below as the reference.
Both must give the same canonical keys in the same order, for every
structure, for the corpus classes' members and for seeded hereditary
predicates, also over seeded vocabularies.  The digraph counts are also
checked against OEIS, which owes nothing to either.

The enumerators label rows and deduplicate on the canonical rows of each
symbol.  The function-vocabulary route of `enumerate_structures` and
`enumerate_expansions` are checked against loops that build every candidate
through the public constructor, normalize it and keep the first copy of
each key.
"""

from __future__ import annotations

import itertools
import random

import pytest

from structlogic.corpus import BUILDERS
from structlogic.semantics import models
from structlogic.structures import (
    FiniteStructure,
    enumerate_expansions,
    enumerate_hereditary,
    enumerate_structures,
    normalize,
)
from structlogic.vocab import Vocabulary

GOOD_CLASSES = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")


# ---------------------------------------------------------------------------
# the loop the invariant filter replaced


def reference_hereditary(vocab: Vocabulary, max_size: int, keep):
    """Canonical representatives of the structures keep accepts: label every extension."""
    names = vocab.relation_names()
    level = [s for s in (FiniteStructure(vocab, ()),) if keep(s)]
    yield from level
    for k in range(1, max_size + 1):
        elems = list(range(k))
        spaces = []
        for n in names:
            cells = sorted(
                t for t in itertools.product(elems, repeat=vocab.rel_arity(n)) if k - 1 in t
            )
            spaces.append([
                frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
                for mask in range(1 << len(cells))
            ])
        seen = {}
        for rep in level:
            for combo in itertools.product(*spaces):
                rels = {n: rep.rel(n) | combo[j] for j, n in enumerate(names)}
                canon = normalize(FiniteStructure(vocab, elems, rels))
                seen.setdefault(canon.key, canon)
        level = [seen[key] for key in sorted(seen) if keep(seen[key])]
        yield from level


def keys(structures) -> list:
    return [s.key for s in structures]


# ---------------------------------------------------------------------------
# every structure


@pytest.mark.parametrize(
    "relations, max_size",
    [
        ({"R": 2}, 4),
        ({"R": 2, "P": 1}, 3),
        ({"T": 3}, 2),
        ({"P": 1, "Q": 1}, 6),
    ],
    ids=["binary-4", "binary+unary-3", "ternary-2", "two-unary-6"],
)
def test_every_type_matches_reference(relations, max_size):
    vocab = Vocabulary(relations)
    got = keys(enumerate_structures(vocab, max_size, up_to_iso=True))
    assert got == keys(reference_hereditary(vocab, max_size, lambda s: True))


def test_digraph_counts_match_oeis():
    # OEIS A000595: binary relations on n unlabelled points
    sizes = [s.size for s in enumerate_structures(Vocabulary({"R": 2}), 4, up_to_iso=True)]
    assert [sizes.count(k) for k in range(5)] == [1, 2, 10, 104, 3044]


# ---------------------------------------------------------------------------
# hereditary predicates


@pytest.mark.parametrize("name", GOOD_CLASSES)
def test_corpus_members_match_reference(name):
    spec = BUILDERS[name]()
    t, kappa = spec.theory, spec.kappa
    want = keys(reference_hereditary(spec.vocabulary, 5, lambda s: models(s, t, kappa)))
    assert keys(spec.members(5)) == want


# vocabularies and sizes of the seeded predicates, small enough for the reference
SEEDED = (({"R": 2}, 4), ({"R": 2, "P": 1}, 4))


def _forbidding(rng: random.Random, vocab: Vocabulary):
    """A hereditary predicate: no two-point induced substructure has one of three types in four."""
    types = [s.key for s in enumerate_structures(vocab, 2, up_to_iso=True) if s.size == 2]
    forbidden = set(rng.sample(types, 3 * len(types) // 4))

    def keep(s: FiniteStructure) -> bool:
        return all(
            normalize(s.induced(points)).key not in forbidden
            for points in itertools.combinations(sorted(s.universe), 2)
        )

    return keep


@pytest.mark.parametrize("seed", range(6))
def test_seeded_hereditary_predicates_match_reference(seed):
    rng = random.Random(f"hereditary-{seed}")
    relations, max_size = SEEDED[seed % len(SEEDED)]
    vocab = Vocabulary(relations)
    keep = _forbidding(rng, vocab)
    got = keys(enumerate_hereditary(vocab, max_size, keep))
    assert got == keys(reference_hereditary(vocab, max_size, keep))


def _seeded_vocabulary(rng: random.Random) -> tuple[Vocabulary, int]:
    """A binary relation and at most one unary one, or one or two unary relations, with
    the largest size the reference takes in about a second: 4 with the binary one, else 6."""
    binary = rng.random() < 0.5
    arities = [2, 1][: rng.randint(1, 2)] if binary else [1] * rng.randint(1, 2)
    return Vocabulary({f"R{i}": a for i, a in enumerate(arities)}), 4 if binary else 6


@pytest.mark.parametrize("seed", range(8))
def test_orbit_pruning_matches_reference_on_seeded_vocabularies(seed):
    # representatives with automorphisms skip extensions in a labelled one's orbit
    rng = random.Random(f"vocabulary-{seed}")
    vocab, max_size = _seeded_vocabulary(rng)
    keep = _forbidding(rng, vocab)
    got = keys(enumerate_hereditary(vocab, max_size, keep))
    assert got == keys(reference_hereditary(vocab, max_size, keep))


# ---------------------------------------------------------------------------
# normalize, then keep the first copy of each key


def interpretations(tau: Vocabulary, given: Vocabulary, elems: list[int]):
    """Every table of the symbols tau adds to given over elems, in product order: per
    added relation, the row sets by bit mask over the sorted cells; per added function,
    the value tuples over the sorted cells; relations first, each part in name order."""
    spaces = []
    for n in tau.relation_names():
        if n not in given.relations:
            cells = sorted(itertools.product(elems, repeat=tau.rel_arity(n)))
            spaces.append([
                (n, {c for i, c in enumerate(cells) if mask >> i & 1})
                for mask in range(1 << len(cells))
            ])
    for n in tau.function_names():
        if n not in given.functions:
            cells = sorted(itertools.product(elems, repeat=tau.fun_arity(n)))
            spaces.append([
                (n, dict(zip(cells, values)))
                for values in itertools.product(elems, repeat=len(cells))
            ])
    return [dict(combo) for combo in itertools.product(*spaces)]


def reference_up_to_iso(vocab: Vocabulary, max_size: int):
    """One canonical copy per type, sorted by key within each size."""
    for k in range(max_size + 1):
        seen = {}
        for tables in interpretations(vocab, Vocabulary(), list(range(k))):
            rels = {n: tables[n] for n in vocab.relation_names()}
            funs = {n: tables[n] for n in vocab.function_names()}
            canon = normalize(FiniteStructure(vocab, range(k), rels, funs))
            seen.setdefault(canon.key, canon)
        yield from (seen[key] for key in sorted(seen))


def reference_expansions(m: FiniteStructure, tau: Vocabulary) -> list[FiniteStructure]:
    """The first expansion in product order of each tau-isomorphism type."""
    seen = {}
    for tables in interpretations(tau, m.vocab, sorted(m.universe)):
        rels = {n: tables[n] if n in tables else m.rel(n) for n in tau.relation_names()}
        funs = {n: tables[n] if n in tables else m.fun(n) for n in tau.function_names()}
        cand = FiniteStructure(tau, m.universe, rels, funs)
        seen.setdefault(normalize(cand).key, cand)
    return list(seen.values())


def tables(structures) -> list:
    """Keys, with each function table's entries in their stored order."""
    return [
        (s.key, [list(s.fun(n).items()) for n in s.vocab.function_names()]) for s in structures
    ]


@pytest.mark.parametrize(
    "relations, functions, max_size",
    [
        ({}, {"f": 1}, 4),
        ({"P": 1}, {"c": 0}, 4),
        ({"P": 1, "Q": 1}, {"c": 0}, 3),
    ],
    ids=["unary-function-4", "unary+constant-4", "two-unary+constant-3"],
)
def test_function_route_matches_reference(relations, functions, max_size):
    vocab = Vocabulary(relations, functions)
    got = list(enumerate_structures(vocab, max_size, up_to_iso=True))
    assert tables(got) == tables(reference_up_to_iso(vocab, max_size))


def _seeded(rng: random.Random, vocab: Vocabulary, elems: list[int]) -> FiniteStructure:
    rels = {
        n: {t for t in itertools.product(elems, repeat=a) if rng.random() < 0.4}
        for n, a in vocab.relations.items()
    }
    funs = {
        n: {t: rng.choice(elems) for t in itertools.product(elems, repeat=a)}
        for n, a in vocab.functions.items()
    }
    return FiniteStructure(vocab, elems, rels, funs)


EXPANSIONS = [
    (Vocabulary({"R": 2}), Vocabulary({"R": 2, "P": 1}), [3, 5, 9]),
    (Vocabulary(), Vocabulary({"P": 1, "Q": 1}), [2, 4, 6, 7]),
    (Vocabulary(functions={"f": 1}), Vocabulary({"P": 1}, {"f": 1, "c": 0}), [1, 4, 8]),
    (Vocabulary({"P": 1}), Vocabulary({"P": 1, "E": 2}, {"g": 1}), [0, 3]),
    (Vocabulary(), Vocabulary({"E": 2}), []),
]


@pytest.mark.parametrize("case", range(len(EXPANSIONS)))
def test_expansions_match_reference(case):
    given, tau, elems = EXPANSIONS[case]
    rng = random.Random(f"expansions-{case}")
    for _ in range(3):
        m = _seeded(rng, given, elems)
        got = enumerate_expansions(m, tau)
        assert tables(got) == tables(reference_expansions(m, tau))


def test_two_unary_relations_are_not_merged():
    # P={0} and Q={0} have one row each, of one arity: an encoding that
    # flattened the symbols' rows together would take them for one type
    point = FiniteStructure(Vocabulary(), range(1))
    two = Vocabulary({"P": 1, "Q": 1})
    expansions = enumerate_expansions(point, two)
    assert [(s.rel("P"), s.rel("Q")) for s in expansions] == [
        (frozenset(), frozenset()),
        (frozenset(), frozenset({(0,)})),
        (frozenset({(0,)}), frozenset()),
        (frozenset({(0,)}), frozenset({(0,)})),
    ]
    assert len(list(enumerate_structures(two, 1, up_to_iso=True))) == 5
    with_constant = two.union(Vocabulary(functions={"c": 0}))
    assert len(list(enumerate_structures(with_constant, 1, up_to_iso=True))) == 4
