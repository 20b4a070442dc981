from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_decorated_isomorphic, brute_isomorphic
from structlogic import structures
from structlogic.axiomatizer import functorial_expansion, galois_morleyization
from structlogic.classspec import Caps
from structlogic.closure import class_slice
from structlogic.corpus import BUILDERS
from structlogic.errors import CapacityError, DomainError, SignatureError
from structlogic.semantics import enumerate_models, models
from structlogic.structures import (
    CANONICAL_SIZE_CAP,
    DecoratedStructure,
    FiniteStructure,
    canonical_key,
    decorated,
    enumerate_expansions,
    enumerate_hereditary,
    enumerate_structures,
    expand,
    find_isomorphism,
    generated_substructure,
    normalize,
    part_type,
    reduct,
    relabel,
)
from structlogic.syntax import And, Atomic, Forall, Not, Or, Theory, Var
from structlogic.vocab import Vocabulary

GRAPH = Vocabulary({"E": 2})
POINTED = Vocabulary({"E": 2}, {"c": 0})
UNARY_FUN = Vocabulary(functions={"f": 1})


def chain(n):
    return FiniteStructure(
        Vocabulary({"lt": 2}), range(n), {"lt": {(i, j) for i in range(n) for j in range(n) if i < j}}
    )


def test_construction_rejects_bad_rows():
    with pytest.raises(DomainError):
        FiniteStructure(GRAPH, range(2), {"E": {(0, 5)}})
    with pytest.raises(SignatureError):
        FiniteStructure(GRAPH, range(2), {"F": {(0, 1)}})
    with pytest.raises(DomainError):
        # function table must be total
        FiniteStructure(UNARY_FUN, range(2), {}, {"f": {(0,): 1}})


def test_universe_need_not_be_contiguous():
    s = FiniteStructure(GRAPH, [3, 7], {"E": {(3, 7)}})
    assert s.universe == frozenset({3, 7})
    assert s.rel("E") == frozenset({(3, 7)})


def test_induced_requires_function_closure():
    f_loop = FiniteStructure(UNARY_FUN, range(3), {}, {"f": {(0,): 1, (1,): 2, (2,): 2}})
    assert f_loop.is_closed_subset(frozenset({2}))
    assert not f_loop.is_closed_subset(frozenset({0}))
    with pytest.raises(DomainError):
        f_loop.induced({0})
    assert f_loop.induced({2}).universe == frozenset({2})


def test_substructure_relation():
    c3 = chain(3)
    assert c3.induced({0, 1}).is_substructure_of(c3)
    assert c3.is_substructure_of(c3)
    other = FiniteStructure(c3.vocab, range(2), {"lt": {(1, 0)}})
    assert not other.is_substructure_of(c3)


def test_reduct_drops_symbols():
    s = FiniteStructure(POINTED, range(2), {"E": {(0, 1)}}, {"c": {(): 0}})
    r = reduct(s, GRAPH)
    assert r.vocab == GRAPH and r.rel("E") == frozenset({(0, 1)})
    with pytest.raises(SignatureError):
        reduct(s, Vocabulary({"X": 1}))


def test_relabel_and_isomorphisms():
    c2 = chain(2)
    swapped = relabel(c2, {0: 1, 1: 0})
    assert swapped.rel("lt") == frozenset({(1, 0)})
    assert find_isomorphism(c2, swapped) == {0: 1, 1: 0}
    assert find_isomorphism(c2, c2) == {0: 0, 1: 1}
    assert find_isomorphism(c2, c2, {0: 1}) is None


def test_find_isomorphism_past_the_labelling_cap_raises():
    bare = Vocabulary()
    with pytest.raises(CapacityError):
        find_isomorphism(FiniteStructure(bare, range(9)), FiniteStructure(bare, range(1, 10)))


def test_normalize_idempotent_and_canonical():
    s = FiniteStructure(GRAPH, [4, 9], {"E": {(9, 4)}})
    n = normalize(s)
    assert sorted(n.universe) == [0, 1]
    assert normalize(n) == n
    assert canonical_key(n) == canonical_key(s)


def test_canonical_key_separates_iso_classes():
    # all digraphs on 2 vertices: keys agree exactly on isomorphic pairs
    structs = []
    for rows in itertools.chain.from_iterable(
        itertools.combinations(list(itertools.product(range(2), repeat=2)), k) for k in range(5)
    ):
        structs.append(FiniteStructure(GRAPH, range(2), {"E": set(rows)}))
    for a in structs:
        for b in structs:
            assert (canonical_key(a) == canonical_key(b)) == brute_isomorphic(a, b)


def test_decorated_normalize_respects_subsets():
    c2 = chain(2)
    d1 = decorated(c2, (frozenset({0}),))
    d2 = decorated(c2, (frozenset({1}),))
    assert canonical_key(d1) != canonical_key(d2)
    assert brute_decorated_isomorphic(d1, normalize(d1))
    assert not brute_decorated_isomorphic(d1, d2)


def test_decorated_subset_must_lie_inside():
    with pytest.raises(DomainError):
        decorated(chain(2), (frozenset({5}),))


def test_enumerate_structures_counts():
    # digraph iso types: 1, 2, 10 at sizes 0, 1, 2
    assert len(list(enumerate_structures(GRAPH, 0, up_to_iso=True))) == 1
    assert len(list(enumerate_structures(GRAPH, 1, up_to_iso=True))) == 3
    assert len(list(enumerate_structures(GRAPH, 2, up_to_iso=True))) == 13
    # raw count at size 2: 2^4 plus smaller sizes
    raw = list(enumerate_structures(GRAPH, 2, up_to_iso=False))
    assert len(raw) == 1 + 2 + 16


def test_enumerate_structures_unary_function_counts():
    # self-maps up to conjugacy: 1, 3, 7 cumulative at sizes 0..2, 1..3
    assert len(list(enumerate_structures(UNARY_FUN, 2, up_to_iso=True))) == 1 + 1 + 3
    assert len(list(enumerate_structures(UNARY_FUN, 3, up_to_iso=True))) == 1 + 1 + 3 + 7


def test_enumerate_structures_reps_are_canonical():
    for s in enumerate_structures(GRAPH, 3, up_to_iso=True):
        assert normalize(s) == s


def test_enumerate_hereditary_rejects_functions_first():
    with pytest.raises(SignatureError, match="function-free"):
        next(enumerate_hereditary(UNARY_FUN, 2, lambda s: True))


def test_raw_cap_counts_every_extension():
    # 2 + 16 + 320 + 13312 one-point extensions, labelled or not
    binary = Vocabulary({"R": 2})
    assert len(list(enumerate_structures(binary, 4, up_to_iso=True, max_raw=13650))) == 3161
    with pytest.raises(CapacityError) as err:
        list(enumerate_structures(binary, 4, up_to_iso=True, max_raw=13649))
    assert err.value.count == 13650


def test_enumeration_labels_few_extensions_per_type(monkeypatch):
    # labelling every extension costs 13650 labellings for the 3161 types
    calls = []

    def counted(groups, m):
        calls.append(m)
        return canonical_rows(groups, m)

    canonical_rows = structures._canonical_rows
    monkeypatch.setattr(structures, "_canonical_rows", counted)
    types = sum(1 for _ in enumerate_structures(Vocabulary({"R": 2}), 4, up_to_iso=True))
    assert types == 3161
    assert len(calls) < 2 * types


def _universal_theory():
    # every structure whose P points are isolated under the symmetric E
    x, y = Var("x"), Var("y")
    symmetric = Or((Not(Atomic("E", (x, y))), Atomic("E", (y, x))))
    isolated = Or((Not(Atomic("P", (x,))), Not(Atomic("E", (x, y)))))
    sentence = Forall("x", Forall("y", And((symmetric, isolated))))
    return Theory("isolated-P", Vocabulary({"E": 2, "P": 1}), (sentence,))


def test_enumerators_leave_the_labelling_memo_alone(monkeypatch):
    # the memo is for structures callers label again; enumerated candidates are labelled once
    entries, label = [], structures._labelling
    monkeypatch.setattr(structures, "_labelling", lambda d: entries.append(d) or label(d))
    loopless = lambda s: all(a != b for a, b in s.rel("E"))  # noqa: E731
    outputs = [
        list(enumerate_structures(Vocabulary({"R": 2}), 3, up_to_iso=True)),
        list(enumerate_structures(WITH_CONSTANT, 3, up_to_iso=True)),
        list(enumerate_hereditary(GRAPH, 3, loopless)),
        enumerate_expansions(chain(3), Vocabulary({"lt": 2, "P": 1})),
        list(enumerate_models(_universal_theory(), max_size=3)),
    ]
    assert list(map(len, outputs)) == [1 + 2 + 10 + 104, 2 + 4 + 6, 1 + 1 + 3 + 16, 8, 42]
    assert entries == []
    assert all(s.memo == {} for output in outputs for s in output)


def _kept_sizes_and_raw_count(vocab: Vocabulary, max_size: int, keep) -> tuple[list[int], int]:
    """The sizes enumerate_hereditary yields, and its raw count: every one-point extension of
    each kept type, 2 ** (the cells holding the new point) per type of size k - 1."""
    sizes = [s.size for s in enumerate_hereditary(vocab, max_size, keep)]
    cells = lambda k: sum(k**a - (k - 1) ** a for a in vocab.relations.values())  # noqa: E731
    return sizes, sum(sizes.count(k - 1) * 2 ** cells(k) for k in range(1, max_size + 1))


BOUNDED_BLOCKS = BUILDERS["bounded-blocks"]()


@pytest.mark.parametrize(
    "vocab, max_size, keep",
    [
        (Vocabulary({"R": 2}), 4, lambda s: True),
        (Vocabulary({"P": 1, "Q": 1}), 6, lambda s: True),
        (GRAPH, 4, lambda s: all(a != b for a, b in s.rel("E"))),
        (GRAPH, 5, lambda s: models(s, BOUNDED_BLOCKS.theory, BOUNDED_BLOCKS.kappa)),
    ],
    ids=["binary-4", "two-unary-6", "loopless-4", "bounded-blocks-5"],
)
def test_raw_cap_counts_pruned_extensions_too(vocab, max_size, keep):
    # orbit pruning skips extensions of a symmetric type, and each one still counts
    sizes, raw = _kept_sizes_and_raw_count(vocab, max_size, keep)
    assert [s.size for s in enumerate_hereditary(vocab, max_size, keep, max_raw=raw)] == sizes
    with pytest.raises(CapacityError) as err:
        list(enumerate_hereditary(vocab, max_size, keep, max_raw=raw - 1))
    assert (err.value.count, err.value.limit) == (raw, raw - 1)


def test_orbit_pruning_pins_the_label_searches(monkeypatch):
    # labelling every extension the invariant filter passes took 3975 and 687 searches
    calls, least, counting = [], structures._least_labelling, [True]

    def counted(groups, m):
        if counting[0]:
            calls.append(m)
        return least(groups, m)

    def keep(s):
        # the class's own label searches, if any, are not the enumeration's
        counting[0] = False
        try:
            return models(s, BOUNDED_BLOCKS.theory, BOUNDED_BLOCKS.kappa)
        finally:
            counting[0] = True

    monkeypatch.setattr(structures, "_least_labelling", counted)
    assert sum(1 for _ in enumerate_structures(Vocabulary({"R": 2}), 4, up_to_iso=True)) == 3161
    assert len(calls) == 3322
    calls.clear()
    members = list(enumerate_hereditary(GRAPH, 5, keep))
    assert len(calls) == 184
    counting[0] = False
    assert [s.key for s in members] == [s.key for s in BOUNDED_BLOCKS.members(5)]


def test_every_enumeration_route_stops_at_the_labelling_cap():
    past = CANONICAL_SIZE_CAP + 1
    unary = Vocabulary({"P": 1})
    routes = [
        lambda: list(enumerate_hereditary(unary, past, lambda s: not s.rel("P"))),
        lambda: list(enumerate_structures(unary, past, up_to_iso=True)),
        lambda: list(enumerate_structures(Vocabulary(functions={"c": 0}), past, up_to_iso=True)),
        lambda: enumerate_expansions(FiniteStructure(Vocabulary(), range(past)), unary),
        lambda: list(enumerate_models(Theory("all", unary, ()), max_size=past)),
    ]
    for route in routes:
        with pytest.raises(CapacityError) as err:
            route()
        assert (err.value.count, err.value.limit) == (past, CANONICAL_SIZE_CAP)


def test_generated_substructure_closes_under_functions():
    f = FiniteStructure(UNARY_FUN, range(4), {}, {"f": {(0,): 1, (1,): 2, (2,): 2, (3,): 3}})
    g = generated_substructure(f, {0})
    assert g.universe == frozenset({0, 1, 2})


def test_relabel_gives_the_constructors_copy_and_raises_its_errors():
    rng = random.Random("relabel")
    for vocab in DERIVED_VOCABS:
        for size in range(1 if vocab.has_constants() else 0, 6):
            s = random_structure(rng, vocab, size)
            mapping = dict(zip(sorted(s.universe), rng.sample(range(40), size)))
            rels = {
                n: {tuple(mapping[e] for e in row) for row in s.rel(n)}
                for n in vocab.relation_names()
            }
            funs = {
                n: {tuple(mapping[e] for e in args): mapping[v] for args, v in s.fun(n).items()}
                for n in vocab.function_names()
            }
            copy, checked = relabel(s, mapping), FiniteStructure(vocab, mapping.values(), rels, funs)
            assert copy == checked
            assert [list(copy.fun(n).items()) for n in vocab.function_names()] == [
                list(checked.fun(n).items()) for n in vocab.function_names()
            ]
    s = chain(3)
    for bad, message in [
        ({0: 0, 1: -1, 2: 2}, "universe elements must be nonnegative ints, got -1"),
        ({0: 0, 1: "b", 2: 2}, "universe elements must be nonnegative ints, got 'b'"),
        ({0: 0, 1: 1.5, 2: 2}, "universe elements must be nonnegative ints, got 1.5"),
        ({0: 0, 1: 0, 2: 1}, "relabeling must be a bijection on the universe"),
        ({0: 0, 1: 1}, "relabeling must be a bijection on the universe"),
    ]:
        with pytest.raises(DomainError) as err:
            relabel(s, bad)
        assert str(err.value) == message


def test_part_types_are_equal_exactly_for_isomorphic_parts(monkeypatch):
    rng = random.Random("part-type")
    vocab = Vocabulary({"R": 2, "P": 1})
    samples = [random_structure(rng, vocab, size) for size in (3, 4, 5) for _ in range(3)]
    parts = [
        (s, frozenset(e for e in range(s.size) if bits >> e & 1))
        for s in samples
        for bits in range(1 << s.size)
    ]
    keys = [canonical_key(s.induced(part)) for s, part in parts]
    for s in samples:
        s.memo.clear()
    monkeypatch.setattr(structures, "_structure", None)  # part_type builds nothing
    types = [part_type(s, part) for s, part in parts]
    assert all(s.memo == {} for s in samples)
    for (key, t), (other_key, other_t) in itertools.combinations(zip(keys, types), 2):
        assert (key == other_key) == (t == other_t)
    with pytest.raises(SignatureError):
        part_type(random_structure(rng, UNARY_FUN, 2), frozenset({0}))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.data())
def test_relabel_preserves_key(n, data):
    rows = data.draw(
        st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))))
    ) if n else set()
    s = FiniteStructure(GRAPH, range(n), {"E": rows})
    perm = data.draw(st.permutations(list(range(n))))
    m = relabel(s, dict(enumerate(perm)))
    assert canonical_key(m) == canonical_key(s)


# ---------------------------------------------------------------------------
# derived structures, rebuilt through the checked constructor


def assert_valid(s):
    """s rebuilt by the public constructor: it must raise nothing and give an equal structure."""
    rels = {n: s.rel(n) for n in s.vocab.relation_names()}
    funs = {n: s.fun(n) for n in s.vocab.function_names()}
    assert all(type(rows) is frozenset for rows in rels.values())
    assert FiniteStructure(s.vocab, s.universe, rels, funs) == s


WITH_CONSTANT = Vocabulary({"P": 1}, {"c": 0})
DERIVED_VOCABS = [Vocabulary({"R": 2}), UNARY_FUN, WITH_CONSTANT]


def random_structure(rng, vocab, size):
    elems = range(size)
    rels = {
        n: {t for t in itertools.product(elems, repeat=vocab.rel_arity(n)) if rng.random() < 0.4}
        for n in vocab.relation_names()
    }
    funs = {
        n: {t: rng.randrange(size) for t in itertools.product(elems, repeat=vocab.fun_arity(n))}
        for n in vocab.function_names()
    }
    return FiniteStructure(vocab, elems, rels, funs)


@pytest.mark.parametrize("vocab", DERIVED_VOCABS, ids=["R2", "f1", "P1-c"])
def test_derived_structures_pass_the_constructor_checks(vocab):
    rng = random.Random(str(vocab))
    wider = vocab.union(Vocabulary({"Q": 1, "S": 2}, {"g": 1}))
    for size in range(1 if vocab.has_constants() else 0, 6):
        for _ in range(4):
            s = random_structure(rng, vocab, size)
            for bits in range(1 << size):
                subset = frozenset(e for e in range(size) if bits >> e & 1)
                if s.is_closed_subset(subset):
                    part = s.induced(subset)
                    assert_valid(part)
                    assert part.is_substructure_of(s)
            assert_valid(generated_substructure(s, rng.sample(range(size), min(size, 1))))
            assert reduct(s, vocab) is s
            for tau0 in (Vocabulary(), Vocabulary(vocab.relations)):
                assert_valid(reduct(s, tau0))
            wide = expand(
                s,
                wider,
                {
                    "Q": {(e,) for e in range(size) if rng.random() < 0.5},
                    "S": {(rng.randrange(size), rng.randrange(size))} if size else set(),
                    "g": {(e,): rng.randrange(size) for e in range(size)},
                },
            )
            assert_valid(wide)
            assert reduct(wide, vocab) == s
            assert_valid(normalize(s))
            assert_valid(normalize(decorated(wide, [frozenset(range(size // 2))])).base)


def test_expand_takes_one_table_per_added_symbol():
    s = chain(2)
    with pytest.raises(SignatureError):
        expand(s, Vocabulary({"lt": 2, "P": 1}), {})
    with pytest.raises(SignatureError):
        expand(s, Vocabulary({"lt": 2}), {"lt": set()})
    with pytest.raises(SignatureError):
        expand(s, Vocabulary({"P": 1}), {"P": set()})


@pytest.mark.parametrize("vocab", DERIVED_VOCABS, ids=["R2", "f1", "P1-c"])
@pytest.mark.parametrize("up_to_iso", [False, True], ids=["raw", "up-to-iso"])
def test_enumerated_structures_pass_the_constructor_checks(vocab, up_to_iso):
    for s in enumerate_structures(vocab, 3, up_to_iso=up_to_iso):
        assert_valid(s)


def test_enumerated_expansions_pass_the_constructor_checks():
    rng = random.Random(7)
    cases = [
        (chain(3), Vocabulary({"lt": 2, "P": 1})),
        (chain(2), Vocabulary({"lt": 2}, {"c": 0, "f": 1})),
        (random_structure(rng, UNARY_FUN, 3), Vocabulary({"R": 2}, {"f": 1})),
        (random_structure(rng, WITH_CONSTANT, 2), WITH_CONSTANT.union(Vocabulary({"E": 2}))),
    ]
    for m, tau in cases:
        expansions = enumerate_expansions(m, tau)
        assert expansions
        for s in expansions:
            assert_valid(s)
            assert reduct(s, m.vocab) == m


@pytest.mark.parametrize(
    "name", ["linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks"]
)
def test_class_parts_and_expansions_pass_the_constructor_checks(name):
    spec = BUILDERS[name]()
    caps = Caps(size=3)
    sl = class_slice(spec, caps)
    maps = [functorial_expansion(spec, caps), galois_morleyization(spec, caps=caps)[0]]
    for n in sl.members:
        for part in sl.parts(n):
            assert_valid(part)
        for emap in maps:
            n_plus = emap.expand(n)
            assert_valid(n_plus)
            assert reduct(n_plus, spec.vocabulary) == n
