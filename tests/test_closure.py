from __future__ import annotations

import itertools

import pytest

from structlogic.classspec import Caps, DefinedClass
from structlogic.closure import (
    PointedModel,
    cl,
    check_cl_coherence,
    class_slice,
    enumerate_DK,
    galois_equiv,
    verify_intersections,
)
from structlogic.corpus import BUILDERS, bare_set, chain
from structlogic.errors import ArityError, CapacityError, DomainError

CAPS = Caps(size=4)


def lin():
    return BUILDERS["linear-orders"]()


def test_strong_submodels_of_chain_are_initial_segments():
    subs = class_slice(lin(), CAPS).strong(chain(3))
    assert sorted((s.universe for s in subs), key=len) == [
        frozenset(),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    ]


def test_strong_submodels_always_include_self():
    for spec_name in ("linear-orders", "triangle-free", "frozen-predicate"):
        spec = BUILDERS[spec_name]()
        for n in spec.members(3):
            assert n in class_slice(spec, CAPS).strong(n)


def test_cl_pulls_in_predecessors():
    result = cl(chain(3), {2}, lin(), CAPS)
    assert result.structure.universe == frozenset({0, 1, 2})
    assert result.is_strong


def test_cl_of_empty_seed():
    result = cl(chain(3), set(), lin(), CAPS)
    assert result.structure.universe == frozenset()
    assert result.is_strong


def test_cl_past_the_subset_cap_raises():
    # 2^17 subsets exceed the 2^16 the closure sweep tries
    with pytest.raises(CapacityError):
        cl(chain(17), {0}, lin(), CAPS)


def test_cl_monotone_and_idempotent():
    spec = lin()
    c4 = chain(4)
    for seed in ({1}, {2, 3}, {0, 3}):
        closed = cl(c4, seed, spec, CAPS).structure
        assert seed <= closed.universe
        again = cl(c4, closed.universe, spec, CAPS).structure
        assert again.universe == closed.universe


def test_cl_seed_must_lie_inside():
    with pytest.raises(DomainError):
        cl(chain(2), {7}, lin(), CAPS)


@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("spec_name", sorted(BUILDERS))
def test_class_slice_matches_brute_force_closure(spec_name, size):
    # closure by definition: intersect the universes of every closed subset
    # whose induced part is a member and sits below n by spec.le itself;
    # broken-intersections has a closure that is not strong only at size 4
    spec = BUILDERS[spec_name]()
    sl = class_slice(spec, Caps(size=size))
    assert sl.members == tuple(spec.members(size))
    for n in spec.members(size):
        elems = sorted(n.universe)
        subsets = [
            frozenset(c)
            for k in range(len(elems) + 1)
            for c in itertools.combinations(elems, k)
        ]
        strong = [
            u
            for u in subsets
            if n.is_closed_subset(u)
            and spec.contains(n.induced(u))
            and spec.le(n.induced(u), n)
        ]
        assert [m.universe for m in sl.strong(n)] == strong
        for seed in subsets:
            inter = frozenset(n.universe)
            for u in strong:
                if seed <= u:
                    inter &= u
            result = sl.cl(n, seed)
            assert result.structure == n.induced(inter)
            assert result.is_strong == (inter in strong)


def test_one_closure_query_leaves_the_members_alone(monkeypatch):
    def members(self, max_size=None):
        raise AssertionError("a closure query enumerated the class")

    monkeypatch.setattr(DefinedClass, "members", members)
    class_slice.cache_clear()
    result = cl(chain(3), {1}, lin(), CAPS)
    assert result.structure.universe == frozenset({0, 1})


def test_verify_intersections_passes_on_linear_orders():
    report = verify_intersections(lin(), Caps(size=3))
    assert report.ok


def test_verify_intersections_fails_on_broken_spec():
    spec = BUILDERS["broken-intersections"]()
    report = verify_intersections(spec, CAPS)
    assert not report.ok
    failing = [c for c in report.checks if not c.ok]
    assert failing and failing[0].witnesses


def test_check_cl_coherence():
    assert check_cl_coherence(lin(), Caps(size=3)).ok
    broken = BUILDERS["broken-coherence"]()
    report = check_cl_coherence(broken, CAPS)
    assert not report.ok


def test_galois_equiv_basic():
    spec = lin()
    # the two endpoints of distinct chains with matching closure shape
    assert galois_equiv(
        PointedModel(chain(2), (1,)), PointedModel(chain(2), (1,)), spec, CAPS
    )
    assert not galois_equiv(
        PointedModel(chain(2), (0,)), PointedModel(chain(2), (1,)), spec, CAPS
    )
    # closures differ in size: 2-chain top vs 3-chain top
    assert not galois_equiv(
        PointedModel(chain(2), (1,)), PointedModel(chain(3), (2,)), spec, CAPS
    )


def test_galois_equiv_repeated_entries_pin_consistently():
    spec = lin()
    p = PointedModel(chain(2), (1, 1))
    q = PointedModel(chain(2), (1, 0))
    assert galois_equiv(p, p, spec, CAPS)
    # (1,1) forces both anchor slots onto one point; (1,0) needs two
    assert not galois_equiv(p, q, spec, CAPS)
    with pytest.raises(ArityError):
        galois_equiv(PointedModel(chain(2), (1,)), PointedModel(chain(2), (1, 0)), spec, CAPS)


def test_pointed_model_anchor_in_universe():
    with pytest.raises(DomainError):
        PointedModel(chain(2), (5,))


def test_enumerate_DK_linear_orders_counts():
    reps = enumerate_DK(lin(), max_tuple_len=1, caps=Caps(size=3))
    by_len = {}
    for rep in reps:
        by_len.setdefault(len(rep.anchor), []).append(rep)
    assert len(by_len[0]) == 1
    assert len(by_len[1]) == 3
    # each representative is shrunk to its own closure
    spec = lin()
    for rep in reps:
        closed = cl(rep.model, set(rep.anchor), spec, Caps(size=3)).structure
        assert closed.universe == rep.model.universe


def test_enumerate_DK_matches_brute_quotient():
    # brute force: quotient all anchored tuples by pairwise galois_equiv
    spec = lin()
    caps = Caps(size=3)
    for length in (0, 1, 2):
        points = []
        for n in spec.members(3):
            for anchor in itertools.product(sorted(n.universe), repeat=length):
                points.append(PointedModel(n, anchor))
        classes: list[PointedModel] = []
        for p in points:
            if not any(galois_equiv(p, q, spec, caps) for q in classes):
                classes.append(p)
        reps = [r for r in enumerate_DK(spec, length, caps) if len(r.anchor) == length]
        assert len(reps) == len(classes)


def test_enumerate_DK_explicit_class():
    spec = BUILDERS["broken-coherence"]()
    reps = enumerate_DK(spec, max_tuple_len=0, caps=CAPS)
    # bare sets of sizes 0..3 under the given order: distinct empty-anchor types
    assert all(rep.anchor == () for rep in reps)
    assert len(reps) >= 1


def test_bare_set_builder():
    assert bare_set(2).universe == frozenset({0, 1})
    assert not bare_set(2).vocab.relations
