"""Isomorph-free generation with the invariant filter, against the loop that labels everything.

`enumerate_hereditary` labels a one-point extension only when its new point
has the largest invariant.  The loop it replaced labelled every extension
and deduplicated the copies; it is kept below as the reference.  Both must
give the same canonical keys in the same order, for every structure, for
the corpus classes' members and for seeded hereditary predicates.  The
digraph counts are also checked against OEIS, which owes nothing to either.
"""

from __future__ import annotations

import itertools
import random

import pytest

from structlogic.corpus import BUILDERS
from structlogic.semantics import models
from structlogic.structures import (
    FiniteStructure,
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
