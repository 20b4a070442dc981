"""Isomorphisms derived from the canonical labelling, against the backtracking search they replace.

`find_isomorphism` composes two canonical labellings, and `galois_equiv`
compares two anchored types.  Both are checked here against engines that
share nothing with the labelling: the backtracking search the library used
before, kept below as a reference, and the brute-force checks in oracles.py.
"""

from __future__ import annotations

import itertools
import random

import pytest

from oracles import brute_decorated_isomorphic, is_decorated_isomorphism
from structlogic.classspec import Caps
from structlogic.closure import PointedModel, class_slice, galois_equiv
from structlogic.corpus import BUILDERS
from structlogic.errors import ArityError, PinError, SignatureError
from structlogic.structures import (
    DecoratedStructure,
    FiniteStructure,
    decorated,
    find_isomorphism,
    relabel,
)
from structlogic.vocab import Vocabulary
from test_labelling_reference import SYMMETRIC

BIN = Vocabulary({"R": 2})
FUN = Vocabulary(functions={"f": 1})
GOOD_CLASSES = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")


# ---------------------------------------------------------------------------
# the backtracking search the labelling replaced


def _element_invariants(d: DecoratedStructure) -> dict[int, tuple]:
    base = d.base
    inv: dict[int, list] = {e: [] for e in base.universe}
    for name in base.vocab.relation_names():
        arity = base.vocab.rel_arity(name)
        for e in base.universe:
            counts = [0] * arity
            diag = 0
            for t in base.rel(name):
                for j, c in enumerate(t):
                    if c == e:
                        counts[j] += 1
                if all(c == e for c in t):
                    diag += 1
            inv[e].append((tuple(counts), diag))
    for name in base.vocab.function_names():
        table = base.fun(name)
        for e in base.universe:
            out_count = sum(1 for v in table.values() if v == e)
            in_count = sum(1 for args in table if e in args)
            fixed = sum(1 for args, v in table.items() if v == e and all(c == e for c in args))
            inv[e].append((out_count, in_count, fixed))
    for subset in d.subsets:
        for e in base.universe:
            inv[e].append(e in subset)
    return {e: tuple(v) for e, v in inv.items()}


def reference_isomorphisms(src: DecoratedStructure, dst: DecoratedStructure, pins):
    """Every isomorphism src -> dst extending pins, by backtracking over invariants."""
    if src.base.size != dst.base.size:
        return
    for name in src.base.vocab.relation_names():
        if len(src.base.rel(name)) != len(dst.base.rel(name)):
            return
    for s_sub, d_sub in zip(src.subsets, dst.subsets):
        if len(s_sub) != len(d_sub):
            return

    inv_src = _element_invariants(src)
    inv_dst = _element_invariants(dst)
    if sorted(inv_src.values()) != sorted(inv_dst.values()):
        return

    candidates: dict[int, list[int]] = {}
    for e in src.base.universe:
        if e in pins:
            opts = [pins[e]] if inv_dst.get(pins[e]) == inv_src[e] else []
        else:
            opts = sorted(b for b in dst.base.universe if inv_dst[b] == inv_src[e])
        if not opts:
            return
        candidates[e] = opts

    base_s, base_d = src.base, dst.base
    rel_names = base_s.vocab.relation_names()
    tuples_by_elem_s = {
        n: {e: [t for t in base_s.rel(n) if e in t] for e in base_s.universe} for n in rel_names
    }
    tuples_by_elem_d = {
        n: {e: [t for t in base_d.rel(n) if e in t] for e in base_d.universe} for n in rel_names
    }
    fun_names = base_s.vocab.function_names()
    fun_entries_s = {
        n: {
            e: [(args, v) for args, v in base_s.fun(n).items() if e in args or v == e]
            for e in base_s.universe
        }
        for n in fun_names
    }

    order = sorted(base_s.universe, key=lambda e: (len(candidates[e]), e))
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}

    def consistent(e: int, d: int) -> bool:
        for n in rel_names:
            rel_d = base_d.rel(n)
            for t in tuples_by_elem_s[n][e]:
                if all(c in fwd or c == e for c in t):
                    mapped = tuple(d if c == e else fwd[c] for c in t)
                    if mapped not in rel_d:
                        return False
            rel_s = base_s.rel(n)
            for t in tuples_by_elem_d[n][d]:
                if all(c in bwd or c == d for c in t):
                    pre = tuple(e if c == d else bwd[c] for c in t)
                    if pre not in rel_s:
                        return False
        for n in fun_names:
            table_d = base_d.fun(n)
            for args, v in fun_entries_s[n][e]:
                if all(c in fwd or c == e for c in args) and (v in fwd or v == e):
                    mapped_args = tuple(d if c == e else fwd[c] for c in args)
                    mapped_v = d if v == e else fwd[v]
                    if table_d[mapped_args] != mapped_v:
                        return False
        return True

    def extend(i: int):
        if i == len(order):
            yield dict(fwd)
            return
        e = order[i]
        for d in candidates[e]:
            if d in bwd:
                continue
            if not consistent(e, d):
                continue
            fwd[e] = d
            bwd[d] = e
            yield from extend(i + 1)
            del fwd[e]
            del bwd[d]

    yield from extend(0)


# ---------------------------------------------------------------------------
# seeded inputs


def _random_structure(rng: random.Random, vocab: Vocabulary, size: int) -> FiniteStructure:
    elems = range(size)
    if vocab is BIN:
        density = rng.random()
        rows = {t for t in itertools.product(elems, repeat=2) if rng.random() < density}
        return FiniteStructure(BIN, elems, {"R": rows})
    return FiniteStructure(FUN, elems, {}, {"f": {(e,): rng.randrange(size) for e in elems}})


def _perturbed(rng: random.Random, s: FiniteStructure) -> FiniteStructure:
    """s with one relation row toggled or one function value moved."""
    elems = sorted(s.universe)
    if not elems:
        return s
    if s.vocab is BIN:
        row = (rng.choice(elems), rng.choice(elems))
        return FiniteStructure(BIN, s.universe, {"R": s.rel("R") ^ {row}})
    table = dict(s.fun("f"))
    table[(rng.choice(elems),)] = rng.choice(elems)
    return FiniteStructure(FUN, s.universe, {}, {"f": table})


def _cases(seed: int, vocab: Vocabulary, max_size: int, count: int):
    """(src, dst, pins): src decorated by 0-1 subsets, dst a partner of the same size."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.choices(range(max_size + 1), weights=[1] + [4] * max_size)[0]
        base = _random_structure(rng, vocab, size)
        # relabel onto a random, usually non-contiguous universe
        image = rng.sample(range(10), size)
        mapping = dict(zip(range(size), image))
        copy = relabel(base, mapping)
        partner = rng.choice(
            [copy, copy, relabel(_perturbed(rng, base), mapping),
             relabel(_random_structure(rng, vocab, size), mapping)]
        )
        subsets = [frozenset(e for e in range(size) if rng.random() < 0.5)
                   for _ in range(rng.randint(0, 1))]
        if subsets and rng.random() < 0.7:
            partner_subsets = [frozenset(mapping[e] for e in sub) for sub in subsets]
        else:
            partner_subsets = [frozenset(e for e in image if rng.random() < 0.5)
                               for _ in subsets]
        pins: dict[int, int] = {}
        for a in rng.sample(range(size), min(size, rng.randint(0, 2))):
            b = mapping[a] if rng.random() < 0.6 else rng.choice(image)
            if b not in pins.values():
                pins[a] = b
        yield decorated(base, subsets), decorated(partner, partner_subsets), pins


def _symmetric_cases(seed: int):
    """(src, dst, pins): inputs with many automorphisms against a relabelled copy.

    Each copy is tried with no pin, with one pin along the relabelling, and
    with one pin onto a random element, which may or may not extend.
    """
    rng = random.Random(seed)
    for name in ("involution-7", "two-triangles-and-a-point", "bare-set-8", "clique-with-loops-7"):
        s = SYMMETRIC[name]
        mapping = dict(zip(sorted(s.universe), rng.sample(range(12), s.size)))
        src, dst = decorated(s), decorated(relabel(s, mapping))
        a = rng.choice(sorted(s.universe))
        yield src, dst, {}
        yield src, dst, {a: mapping[a]}
        yield src, dst, {a: rng.choice(list(mapping.values()))}


def _check_against_backtracking(src, dst, pins) -> bool:
    """Whether src and dst are isomorphic under pins; find_isomorphism must agree and be valid."""
    ref = next(reference_isomorphisms(src, dst, pins), None)
    got = find_isomorphism(src, dst, pins)
    assert (got is None) == (ref is None), (src, dst, pins)
    if got is not None:
        assert is_decorated_isomorphism(src, dst, got)
        assert all(got[a] == b for a, b in pins.items())
    return got is not None


@pytest.mark.parametrize(
    "vocab, max_size, seed", [(BIN, 6, 1), (BIN, 6, 2), (FUN, 3, 3), (FUN, 3, 4)]
)
def test_find_isomorphism_agrees_with_backtracking(vocab, max_size, seed):
    count = 1000
    found = sum(
        _check_against_backtracking(*case) for case in _cases(seed, vocab, max_size, count)
    )
    # both outcomes occur often enough to mean something
    assert count // 5 < found < count * 4 // 5
    for case in _symmetric_cases(seed):
        _check_against_backtracking(*case)


def test_find_isomorphism_refuses_bad_arguments():
    s = FiniteStructure(BIN, range(2), {"R": {(0, 1)}})
    with pytest.raises(SignatureError):
        find_isomorphism(s, FiniteStructure(FUN, range(2), {}, {"f": {(0,): 0, (1,): 0}}))
    with pytest.raises(ArityError):
        find_isomorphism(decorated(s, ({0},)), s)
    with pytest.raises(PinError):
        find_isomorphism(s, s, {0: 5})
    with pytest.raises(PinError):
        find_isomorphism(s, s, {0: 1, 1: 1})


@pytest.mark.parametrize("name", GOOD_CLASSES)
def test_galois_equiv_agrees_with_brute_decorated_isomorphism(name):
    """Anchored tuples of length <= 2 over members up to size 4, quotiented by brute force.

    Every tuple is compared with one representative of every class found so
    far; galois_equiv and the brute check must agree on each comparison.
    """
    spec = BUILDERS[name]()
    caps = Caps(size=4)
    sl = class_slice(spec, caps)
    compared = 0
    for length in range(3):
        classes: list[tuple[PointedModel, DecoratedStructure]] = []
        for n in sl.members:
            for anchor in itertools.product(sorted(n.universe), repeat=length):
                p = PointedModel(n, anchor)
                closed = sl.cl(n, frozenset(anchor)).structure
                dp = decorated(closed, [frozenset((e,)) for e in anchor])
                matches = []
                for q, dq in classes:
                    same = brute_decorated_isomorphic(dp, dq)
                    assert galois_equiv(p, q, spec, caps) == same, (n, anchor, q)
                    matches.append(same)
                    compared += 1
                assert matches.count(True) <= 1
                if not any(matches):
                    classes.append((p, dp))
    assert compared > 100
