"""The branch-and-bound canonical labelling, against the brute force it replaces.

`_labelling`, which `_canonical_labelling` keeps in each structure's memo,
must return the canonical copy that the minimum over all m! permutations
returns, and a labelling that maps its input onto that copy.  Which of the
labellings onto the copy it returns is not fixed: when the input has
automorphisms, several do.  The brute force is kept below as the
reference.  The copy's key is compared with it, and the labelling is
applied to the input, on seeded decorated structures over eight
vocabularies and on symmetric inputs, where a wrongly pruned branch would
first show.

The search itself, `_least_labelling`, is compared on random row groups
with a copy of it that builds each bound column by column and raises the
sorted keys in a second loop: the labelling must be the same, and each
automorphism it reports must map every group onto itself.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlogic.corpus import bare_set, chain, clique_with_loops
from structlogic.structures import (
    DecoratedStructure,
    FiniteStructure,
    _labelling,
    _least_labelling,
    decorated,
    relabel,
)
from structlogic.vocab import Vocabulary

VOCABULARIES = {
    "binary": Vocabulary({"R": 2}),
    "unary": Vocabulary({"P": 1}),
    "binary+unary": Vocabulary({"R": 2, "P": 1}),
    "ternary": Vocabulary({"T": 3}),
    "unary-function": Vocabulary(functions={"f": 1}),
    "binary-function+constant": Vocabulary(functions={"g": 2, "c": 0}),
    "relation+function": Vocabulary({"R": 2}, {"f": 1}),
    "empty": Vocabulary(),
}
CASES_PER_VOCABULARY = 400


# ---------------------------------------------------------------------------
# the brute force the branch and bound replaced


def reference_copy(d: DecoratedStructure) -> DecoratedStructure:
    """The copy of d with the least encoding over all permutations."""
    base = d.base
    m = base.size
    elems = sorted(base.universe)
    pos = {e: i for i, e in enumerate(elems)}
    rel_names = base.vocab.relation_names()
    fun_names = base.vocab.function_names()
    idx_rels = {n: [tuple(pos[c] for c in t) for t in base.rel(n)] for n in rel_names}
    idx_funs = {
        n: [(tuple(pos[c] for c in args), pos[v]) for args, v in base.fun(n).items()]
        for n in fun_names
    }
    idx_subsets = [sorted(pos[e] for e in s) for s in d.subsets]

    best = None
    for perm in itertools.permutations(range(m)):
        enc_rels = tuple(
            tuple(sorted(tuple(perm[i] for i in t) for t in idx_rels[n])) for n in rel_names
        )
        enc_funs = tuple(
            tuple(sorted((tuple(perm[i] for i in args), perm[v]) for args, v in idx_funs[n]))
            for n in fun_names
        )
        enc_subs = tuple(tuple(sorted(perm[i] for i in s)) for s in idx_subsets)
        enc = (enc_rels, enc_funs, enc_subs)
        if best is None or enc < best:
            best = enc
    enc_rels, enc_funs, enc_subs = best
    relations = {n: set(enc_rels[j]) for j, n in enumerate(rel_names)}
    functions = {n: dict(enc_funs[j]) for j, n in enumerate(fun_names)}
    canon_base = FiniteStructure(base.vocab, range(m), relations, functions)
    return DecoratedStructure(canon_base, tuple(frozenset(s) for s in enc_subs))


def assert_matches_reference(d: DecoratedStructure) -> None:
    canon, perm = _labelling(d)
    assert canon.key == reference_copy(d).key, d
    mapping = dict(zip(sorted(d.base.universe), perm))
    image = decorated(relabel(d.base, mapping), [{mapping[e] for e in s} for s in d.subsets])
    assert image.key == canon.key, d


# ---------------------------------------------------------------------------
# seeded inputs


def _random_decorated(rng: random.Random, vocab: Vocabulary) -> DecoratedStructure:
    """Size 0-6, one edge density in 0.1-0.9, 0-2 subsets, on a random non-contiguous universe."""
    size = rng.randint(1 if vocab.has_constants() else 0, 6)
    elems = range(size)
    density = rng.uniform(0.1, 0.9)
    relations = {
        n: {t for t in itertools.product(elems, repeat=a) if rng.random() < density}
        for n, a in vocab.relations.items()
    }
    functions = {
        n: {args: rng.randrange(size) for args in itertools.product(elems, repeat=a)}
        for n, a in vocab.functions.items()
    }
    base = FiniteStructure(vocab, elems, relations, functions)
    subsets = [
        {e for e in elems if rng.random() < rng.uniform(0.1, 0.9)} for _ in range(rng.randint(0, 2))
    ]
    mapping = dict(zip(elems, rng.sample(range(12), size)))
    return decorated(relabel(base, mapping), [{mapping[e] for e in s} for s in subsets])


@pytest.mark.parametrize("name", sorted(VOCABULARIES))
def test_labelling_agrees_with_brute_force(name):
    vocab = VOCABULARIES[name]
    rng = random.Random(f"labelling-{name}")
    for _ in range(CASES_PER_VOCABULARY):
        assert_matches_reference(_random_decorated(rng, vocab))


def _two_triangles_and_a_point() -> FiniteStructure:
    blocks = (range(3), range(3, 6))
    rows = {(a, b) for block in blocks for a in block for b in block if a != b}
    return FiniteStructure(Vocabulary({"E": 2}), range(7), {"E": rows})


def _involution_7() -> FiniteStructure:
    """A digraph with a predicate whose one automorphism is (1 2)(3 5)(4 6).

    The search meets the automorphism before the least leaf.  Pruning with
    automorphisms that move the labelled elements then loses the minimum.
    """
    rows = {
        (0, 1), (0, 2), (0, 4), (0, 6), (1, 0), (1, 1), (1, 3), (1, 4), (1, 5), (2, 0), (2, 2),
        (2, 3), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 0), (4, 1), (4, 4),
        (4, 6), (5, 1), (5, 3), (5, 4), (5, 5), (5, 6), (6, 0), (6, 2), (6, 4), (6, 6),
    }
    return FiniteStructure(
        Vocabulary({"R": 2, "P": 1}), range(7), {"R": rows, "P": {(e,) for e in range(1, 7)}}
    )


SYMMETRIC = {
    "bare-set-8": bare_set(8),
    "clique-with-loops-7": clique_with_loops(7),
    "chain-7": chain(7),
    "directed-7-cycle": FiniteStructure(
        Vocabulary({"R": 2}), range(7), {"R": {(i, (i + 1) % 7) for i in range(7)}}
    ),
    "two-triangles-and-a-point": _two_triangles_and_a_point(),
    "involution-7": _involution_7(),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_labelling_agrees_with_brute_force_on_symmetric_inputs(name):
    """Each input as built, relabelled onto a non-contiguous universe, and with one subset."""
    s = SYMMETRIC[name]
    rng = random.Random(f"symmetric-{name}")
    mapping = dict(zip(sorted(s.universe), rng.sample(range(12), s.size)))
    copy = relabel(s, mapping)
    assert_matches_reference(decorated(s))
    assert_matches_reference(decorated(copy))
    assert_matches_reference(decorated(copy, [set(rng.sample(sorted(copy.universe), 3))]))


# ---------------------------------------------------------------------------
# the search on rows, against the bound it computed before its one-pass rewrite


def _reference_orbits(points, generators) -> set[int]:
    seen = set(points)
    stack = list(points)
    while stack:
        p = stack.pop()
        for g in generators:
            if g[p] not in seen:
                seen.add(g[p])
                stack.append(g[p])
    return seen


def reference_least_labelling(groups, m: int) -> list[int]:
    """The least-labelling search with the bound built column by column and raised in a
    second loop, as it was before each group's keys came from one comprehension."""
    lab = [0] * m
    columns = [tuple(zip(*rows)) for rows in groups if rows]

    def encode(complete: bool) -> list[int]:
        enc = []
        for cols in columns:
            keys = [lab[c] for c in cols[0]]
            for col in cols[1:]:
                keys = [key * m + lab[c] for key, c in zip(keys, col)]
            keys.sort()
            if not complete:
                for i in range(1, len(keys)):
                    if keys[i] <= keys[i - 1]:
                        keys[i] = keys[i - 1] + 1
            enc += keys
        return enc

    best = best_lab = None
    automorphisms = []

    def search(prefix: list[int], free: list[int]) -> None:
        nonlocal best, best_lab
        k = len(prefix)
        leaves = len(free) == 2
        for w in free:
            lab[w] = k + 1
        children = []
        for u in free:
            lab[u] = k
            children.append((encode(leaves), u))
            lab[u] = k + 1
        children.sort()
        explored: list[int] = []
        for enc, u in children:
            if best is not None and enc > best:
                break
            if explored and automorphisms:
                fixing = [g for g in automorphisms if all(g[p] == p for p in prefix)]
                if u in _reference_orbits(explored, fixing):
                    continue
            if leaves:
                lab[u] = k
                if best is None or enc < best:
                    best, best_lab = enc, lab[:]
                else:
                    inverse = sorted(range(m), key=best_lab.__getitem__)
                    automorphisms.append([inverse[label] for label in lab])
                lab[u] = k + 1
            else:
                for w in free:
                    lab[w] = k + 1
                lab[u] = k
                search(prefix + [u], [w for w in free if w != u])
            explored.append(u)

    search([], list(range(m)))
    return best_lab


@st.composite
def row_groups(draw):
    """m in 2..7 and 1-4 groups of distinct rows of arity 1-3 over 0..m-1, each group one arity."""
    m = draw(st.integers(2, 7))
    point = st.integers(0, m - 1)
    groups = []
    for arity in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        rows = draw(st.sets(st.tuples(*[point] * arity), max_size=min(m**arity, 20)))
        groups.append(list(rows))
    return groups, m


@settings(max_examples=400, deadline=None)
@given(row_groups(), st.booleans())
def test_least_labelling_agrees_with_the_column_bound(case, frozen):
    groups, m = case
    if frozen:
        groups = [frozenset(rows) for rows in groups]
    labelling, automorphisms = _least_labelling(groups, m)
    assert labelling == reference_least_labelling(groups, m)
    for g in automorphisms:
        assert sorted(g) == list(range(m))
        for rows in groups:
            assert {tuple(g[c] for c in row) for row in rows} == set(rows)
