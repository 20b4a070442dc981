"""Finite structures, decorated structures, and the combinatorics over them.

Universes are finite sets of nonnegative ints and need not be contiguous:
substructures keep the parent's element ids so closure intersections stay
meaningful.  The file format and canonical forms use contiguous universes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from functools import partial, reduce
from math import prod
from operator import add, attrgetter

from .errors import ArityError, CapacityError, DomainError, PinError, SignatureError
from .records import record
from .vocab import EMPTY_VOCABULARY, Vocabulary

# Canonical labelling is an exact search over labellings, still exponential in
# the worst case; the cap bounds it, and tests pin the error past it.
CANONICAL_SIZE_CAP = 8


class FiniteStructure:
    """A finite structure over a vocabulary.

    `relations` maps each relation symbol to its frozenset of rows; read it,
    never change it.  Function tables stay behind `fun` and `apply`.  `memo`
    keeps what the package computes from the structure (canonical labellings,
    the evaluator's sweeps and matches), so each entry dies with it.  The key
    and its hash are built on first use: most derived structures are never
    hashed.
    """

    __slots__ = (
        "vocab", "universe", "relations", "_functions", "_elements", "_key", "_hash", "memo"
    )

    def __init__(
        self,
        vocab: Vocabulary,
        universe: Iterable[int],
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        functions: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
    ):
        universe = frozenset(universe)
        _check_elements(universe)
        rels: dict[str, frozenset[tuple[int, ...]]] = {}
        relations = dict(relations or {})
        for name in relations:
            vocab.rel_arity(name)
        for name in vocab.relation_names():
            arity = vocab.rel_arity(name)
            tuples = frozenset(tuple(t) for t in relations.get(name, ()))
            for t in tuples:
                if len(t) != arity:
                    raise ArityError(f"relation {name!r} expects {arity}-tuples, got {t}")
                if not all(c in universe for c in t):
                    raise DomainError(f"relation {name!r} tuple {t} leaves the universe")
            rels[name] = tuples
        funs: dict[str, dict[tuple[int, ...], int]] = {}
        functions = dict(functions or {})
        for name in functions:
            vocab.fun_arity(name)
        for name in vocab.function_names():
            arity = vocab.fun_arity(name)
            if arity == 0 and not universe:
                raise DomainError(f"constant {name!r} cannot be interpreted on an empty universe")
            table = {tuple(k): v for k, v in (functions.get(name) or {}).items()}
            expected = list(itertools.product(sorted(universe), repeat=arity))
            if set(table) != set(expected):
                raise DomainError(f"function {name!r} table must be total on the universe")
            for args, val in table.items():
                if val not in universe:
                    raise DomainError(f"function {name!r} value {val} leaves the universe")
            funs[name] = table
        self._fill(vocab, universe, rels, funs)

    def _fill(self, vocab, universe, rels, funs) -> "FiniteStructure":
        self.vocab = vocab
        self.universe = universe
        self.relations = rels
        self._functions = funs
        self._elements = tuple(sorted(universe))
        self._key = self._hash = None
        self.memo = {}
        return self

    @property
    def size(self) -> int:
        return len(self.universe)

    @property
    def key(self):
        key = self._key
        if key is None:
            rels, funs = self.relations, self._functions
            key = self._key = (
                self.vocab.key,
                self.elements,
                tuple((n, tuple(sorted(rels[n]))) for n in sorted(rels)),
                tuple((n, tuple(sorted(funs[n].items()))) for n in sorted(funs)),
            )
        return key

    @property
    def elements(self) -> tuple[int, ...]:
        """The universe in increasing order."""
        return self._elements

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        try:
            return self.relations[name]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {name!r}") from None

    def fun(self, name: str) -> dict[tuple[int, ...], int]:
        try:
            return self._functions[name]
        except KeyError:
            raise SignatureError(f"unknown function symbol {name!r}") from None

    def apply(self, name: str, args: tuple[int, ...]) -> int:
        table = self.fun(name)
        try:
            return table[args]
        except KeyError:
            raise DomainError(f"function {name!r} has no entry for {args}") from None

    def constant(self, name: str) -> int:
        return self.apply(name, ())

    def is_closed_subset(self, subset: frozenset[int]) -> bool:
        """True when subset contains every constant and is closed under functions."""
        return all(
            table[args] in subset
            for name, table in self._functions.items()
            for args in itertools.product(subset, repeat=self.vocab.fun_arity(name))
        )

    def induced(self, subset: Iterable[int]) -> "FiniteStructure":
        """Substructure on subset; requires closure under functions and constants."""
        subset = frozenset(subset)
        if not subset <= self.universe:
            raise DomainError("subset leaves the universe")
        if not self.is_closed_subset(subset):
            raise DomainError("subset is not closed under the structure's functions")
        return _induced(self, subset)

    def is_substructure_of(self, other: "FiniteStructure") -> bool:
        if self.vocab != other.vocab or not self.universe <= other.universe:
            return False
        return other.is_closed_subset(self.universe) and _induced(other, self.universe) == self

    def __eq__(self, other):
        return isinstance(other, FiniteStructure) and self.key == other.key

    def __hash__(self):
        found = self._hash
        if found is None:
            found = self._hash = hash(self.key)
        return found

    def __repr__(self):
        return f"FiniteStructure(size={self.size}, vocab={self.vocab!r})"


@record(frozen=True)
class DecoratedStructure:
    """A structure with a finite list of distinguished subsets of its universe."""

    base: FiniteStructure
    subsets: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "subsets", tuple(frozenset(s) for s in self.subsets))
        for s in self.subsets:
            if not s <= self.base.universe:
                raise DomainError("decoration subset leaves the universe")

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def key(self):
        return (self.base.key, tuple(tuple(sorted(s)) for s in self.subsets))


def _check_elements(universe: frozenset) -> None:
    for e in universe:
        if not isinstance(e, int) or e < 0:
            raise DomainError(f"universe elements must be nonnegative ints, got {e!r}")


def _structure(vocab: Vocabulary, universe: frozenset[int], rels, funs) -> FiniteStructure:
    """A structure built from valid tables without the constructor's checks: rels maps
    each relation of vocab to a frozenset of rows, funs each function to a total table."""
    return FiniteStructure.__new__(FiniteStructure)._fill(vocab, universe, rels, funs)


def _induced(s: FiniteStructure, subset: frozenset[int]) -> FiniteStructure:
    """The substructure of s on subset, a closed subset of its universe, unchecked."""
    inside = subset.issuperset
    rels = {n: frozenset(filter(inside, ts)) for n, ts in s.relations.items()}
    funs = {n: {a: v for a, v in f.items() if inside(a)} for n, f in s._functions.items()}
    return _structure(s.vocab, subset, rels, funs)


def _decorated(base: FiniteStructure, subsets: tuple[frozenset[int], ...]) -> DecoratedStructure:
    """A decorated structure from frozensets inside base's universe, without the checks."""
    d = DecoratedStructure.__new__(DecoratedStructure)
    object.__setattr__(d, "base", base)
    object.__setattr__(d, "subsets", subsets)
    return d


def decorated(base: FiniteStructure, subsets: Iterable[Iterable[int]] = ()) -> DecoratedStructure:
    return DecoratedStructure(base, tuple(frozenset(s) for s in subsets))


def reduct(s: FiniteStructure, tau0: Vocabulary) -> FiniteStructure:
    """Forget the symbols outside tau0; tau0 must be a sub-vocabulary."""
    if not tau0.is_subvocabulary_of(s.vocab):
        raise SignatureError("reduct target is not a sub-vocabulary")
    if tau0 == s.vocab:
        return s
    rels = {n: s.relations[n] for n in tau0.relation_names()}
    funs = {n: s._functions[n] for n in tau0.function_names()}
    return _structure(tau0, s.universe, rels, funs)


def expand(s: FiniteStructure, tau: Vocabulary, tables: Mapping) -> FiniteStructure:
    """s over the wider tau, with a row set or table for each added symbol.

    The tables are taken as given, as for every structure the package derives.
    """
    added = {*tau.relation_names(), *tau.function_names()} - s.relations.keys()
    added -= s._functions.keys()
    if not s.vocab.is_subvocabulary_of(tau) or tables.keys() != added:
        raise SignatureError("an expansion needs a wider vocabulary and a table per added symbol")
    rels = {
        n: frozenset(tables[n]) if n in added else s.relations[n] for n in tau.relation_names()
    }
    funs = {n: tables[n] if n in added else s._functions[n] for n in tau.function_names()}
    return _structure(tau, s.universe, rels, funs)


def relabel(s: FiniteStructure, mapping: dict[int, int]) -> FiniteStructure:
    """Copy of s with elements renamed by the given bijection onto nonnegative ints."""
    universe = frozenset(mapping.values())
    if sorted(mapping) != sorted(s.universe) or len(universe) != s.size:
        raise DomainError("relabeling must be a bijection on the universe")
    _check_elements(universe)
    rename = mapping.__getitem__
    rels = {
        name: frozenset([tuple(map(rename, row)) for row in s.relations[name]])
        for name in s.vocab.relation_names()
    }
    funs = {
        name: {tuple(map(rename, args)): mapping[val] for args, val in s._functions[name].items()}
        for name in s.vocab.function_names()
    }
    return _structure(s.vocab, universe, rels, funs)


def generated_substructure(s: FiniteStructure, seed: Iterable[int]) -> FiniteStructure:
    """Smallest substructure whose universe contains seed."""
    seed = frozenset(seed)
    if not seed <= s.universe:
        raise DomainError("seed leaves the universe")
    closed = set(seed)
    changed = True
    while changed:
        changed = False
        for name, table in s._functions.items():
            for args in itertools.product(sorted(closed), repeat=s.vocab.fun_arity(name)):
                val = table[args]
                if val not in closed:
                    closed.add(val)
                    changed = True
    return s.induced(closed)


# ---------------------------------------------------------------------------
# canonical forms


def _as_decorated(x) -> DecoratedStructure:
    return x if isinstance(x, DecoratedStructure) else _decorated(x, ())


def _part_rows(s: FiniteStructure, part, vocab: Vocabulary, subsets=(), counts=None):
    """The rows of vocab's symbols inside part, and the subsets, as indices into part.

    part lists elements of s in increasing order, and vocab is a
    sub-vocabulary of s's; each subset lies inside part.  One group per
    symbol or subset, in encoding order: relations, function graphs (args
    then value), subsets.  Each group has a fixed row count and arity, so
    comparing two labellings' sorted groups in turn is comparing their
    (relations, functions, subsets) encodings.  None when part is not closed
    under vocab's functions, or when counts, the row count of each group,
    are given and some group has another; a part refused on counts has no
    relation row indexed.
    """
    index = dict(zip(part, range(len(part))))
    at = index.get
    graphs = []
    for name in vocab.function_names():
        table = s._functions[name]
        graph = [
            (*map(at, args), at(table[args]))
            for args in itertools.product(part, repeat=vocab.fun_arity(name))
        ]
        if any(row[-1] is None for row in graph):
            return None
        graphs.append(graph)
    inside = frozenset(part).issuperset
    rows = [list(filter(inside, s.relations[name])) for name in vocab.relation_names()]
    if counts is not None and tuple(map(len, [*rows, *graphs, *subsets])) != counts:
        return None
    groups = [[tuple(map(at, row)) for row in group] for group in rows]
    return groups + graphs + [[(at(e),) for e in subset] for subset in subsets]


def _orbits_of(points, generators) -> set:
    """The points' orbits under the generators, each a function from a point to its image."""
    seen = set(points)
    stack = list(points)
    while stack:
        p = stack.pop()
        for g in generators:
            q = g(p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _row_keys(rows: tuple, lab: list[int], m: int):
    """A function giving each row's base-m key under the labels lab holds when it is called."""
    arity = len(rows[0])
    if arity == 1:
        return lambda: [lab[x] for x, in rows]
    if arity == 2:
        return lambda: [lab[x] * m + lab[y] for x, y in rows]
    return lambda: [reduce(lambda key, c: key * m + lab[c], row, 0) for row in rows]


def _least_labelling(groups, m: int) -> tuple[list[int], list[list[int]]]:
    """A labelling of 0..m-1 (m >= 2) with the least encoding, the least leaf the search
    reaches, and the automorphisms of the groups it found on the way.

    Branch and bound: labels 0, 1, 2, ... go to elements depth first, and a
    node's children are tried in the order of their bounds.  Each row is
    read as a base-m number, which orders rows of one arity as tuples.  A
    child's bound reads every unassigned coordinate as the next label, so
    each row, and with it each sorted group, is no larger than in any
    completion.  Distinct rows keep distinct images, so each row of a
    sorted group is then raised to at least one above the row before it,
    in one pass.

    A child whose bound exceeds the best leaf so far is cut.  A leaf that
    ties the best yields an automorphism g (point p to g[p]), and a child
    in the orbit of an explored sibling, under the automorphisms that fix
    the labelled elements, is skipped.  The automorphisms generate a
    subgroup of the groups' automorphism group, not always all of it.
    Groups may be lists or frozensets of rows.
    """
    lab = [0] * m
    keyers = [_row_keys(tuple(rows), lab, m) for rows in groups if rows]

    def encode(complete: bool) -> list[int]:
        enc = []
        for keys_of in keyers:
            keys = sorted(keys_of())
            if not complete:
                hi = -1
                keys = [hi := key if key > hi else hi + 1 for key in keys]
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
                fixing = [g.__getitem__ for g in automorphisms if all(g[p] == p for p in prefix)]
                if u in _orbits_of(explored, fixing):
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
    del search  # it refers to itself: a cycle the collector would otherwise have to free
    return best_lab, automorphisms


def _check_labelling_size(m: int) -> None:
    if m > CANONICAL_SIZE_CAP:
        raise CapacityError(
            f"canonical labeling caps at size {CANONICAL_SIZE_CAP}, got {m}",
            count=m,
            limit=CANONICAL_SIZE_CAP,
        )


def _canonical_rows(groups, m: int):
    """Each group's rows under a least labelling of the points 0..m-1, as frozensets, the
    labelling and the automorphisms found: those _least_labelling reaches for groups,
    the rows of each symbol and subset as _part_rows gives them.

    Two row lists over one vocabulary give equal frozensets exactly when
    their structures are isomorphic: the frozensets are the canonical copy's
    tables, one per symbol, so rows of different symbols are never merged.
    Sizes beyond CANONICAL_SIZE_CAP raise CapacityError.
    """
    _check_labelling_size(m)
    perm, automorphisms = _least_labelling(groups, m) if m > 1 else (list(range(m)), [])
    label = perm.__getitem__
    rows = tuple(frozenset([tuple(map(label, row)) for row in rows]) for rows in groups)
    return rows, perm, automorphisms


def _canonical_tables(vocab: Vocabulary, canon_rows, groups, perm):
    """The canonical copy's relations and function tables, from _canonical_rows(groups, m).

    A function table is relabelled from its rows in groups (args then value).
    """
    label = perm.__getitem__
    r = len(vocab.relations)
    rels = dict(zip(vocab.relation_names(), canon_rows))
    funs = {
        n: {tuple(map(label, row[:-1])): label(row[-1]) for row in groups[r + j]}
        for j, n in enumerate(vocab.function_names())
    }
    return rels, funs


def _canonical_labelling(d: DecoratedStructure) -> tuple[DecoratedStructure, tuple[int, ...]]:
    """_labelling(d), kept in d.base's memo under d's subsets for normalize,
    canonical_key and find_isomorphism; the enumerators leave no entry here.
    A d in canonical form is its own copy, kept as None: no entry refers to
    its owner, and labelling the copy again finds the entry."""
    memo = d.base.memo
    found = memo.get(d.subsets)
    if found is None:
        canon, perm = _labelling(d)
        found = memo[d.subsets] = (None if canon == d else canon), perm
    return found[0] or d, found[1]


def _labelling(d: DecoratedStructure) -> tuple[DecoratedStructure, tuple[int, ...]]:
    """The canonical copy of d and a labelling onto it, computed afresh.

    The copy has the least (relations, functions, subsets) encoding over all
    labellings of d by 0..m-1.  The labelling is a tuple: the i-th smallest
    element of d goes to label labelling[i].  It is one of the labellings
    whose encoding is that minimum, the one _least_labelling reaches; when d
    has automorphisms, others reach the same copy.
    """
    m = d.base.size
    vocab = d.base.vocab
    groups = _part_rows(d.base, d.base.elements, vocab, d.subsets)
    canon_rows, perm, _ = _canonical_rows(groups, m)
    rels, funs = _canonical_tables(vocab, canon_rows, groups, perm)
    subsets = tuple(frozenset([c for (c,) in rows]) for rows in canon_rows[len(rels) + len(funs):])
    canon = _decorated(_structure(vocab, frozenset(range(m)), rels, funs), subsets)
    return canon, tuple(perm)


class MatchTarget:
    """A decorated structure as induces_copy compares parts with it: its size,
    and the row count of each group _part_rows gives for it and its canonical
    rows, both None past CANONICAL_SIZE_CAP, where no part of its size can be
    labelled.  Hashed by identity.  `vocab` is the target's vocabulary, and
    `admitted` the last structure vocabulary the evaluator checked it against.
    """

    __slots__ = ("vocab", "admitted", "size", "counts", "rows", "__weakref__")

    def __init__(self, target: DecoratedStructure):
        base = target.base
        vocab, m = base.vocab, base.size
        self.vocab, self.admitted = vocab, None
        self.size = m
        self.counts = self.rows = None
        if m <= CANONICAL_SIZE_CAP:
            groups = _part_rows(base, base.elements, vocab, target.subsets)
            self.counts = tuple(map(len, groups))
            self.rows = _canonical_rows(groups, m)[0]


def induces_copy(n: FiniteStructure, target: MatchTarget, main, sides: tuple) -> bool:
    """Whether main, decorated by sides, induces a copy of the target in n.

    As the evaluator's `_matches` gives them: the target's vocabulary is a
    sub-vocabulary of n's, main lists target.size of n's elements in
    increasing order, and sides is a tuple of such lists inside main; none of
    this is checked here, since `_matches` rejects other sets on its masks.
    Only n's tables of the target's symbols are read, and nothing is built.
    In turn: main's closure under the target's functions; past
    CANONICAL_SIZE_CAP, CapacityError; the row count of each relation and
    side set.  _part_rows makes the first and last refusals, the last only
    within the cap (a target past it has no counts), before it indexes any
    relation row.  A part that passes them all, and whose rows indexed in
    main's order are not already the target's canonical rows, is labelled by
    _canonical_rows; the labelling memo is not touched.
    """
    groups = _part_rows(n, main, target.vocab, sides, target.counts)
    if groups is None:
        return False
    _check_labelling_size(target.size)
    rows = tuple(map(frozenset, groups))
    return rows == target.rows or _canonical_rows(groups, target.size)[0] == target.rows


def part_type(s: FiniteStructure, part: frozenset[int]):
    """The isomorphism type of s's substructure on part, as its size and the canonical
    rows of each relation; two parts over one vocabulary have equal types exactly
    when they are isomorphic.  Relational vocabularies only.  The part's rows are
    labelled by _canonical_rows: nothing is built, and the labelling memo is not
    touched.
    """
    if s.vocab.functions:
        raise SignatureError("part types need a relational vocabulary")
    groups = _part_rows(s, sorted(part), s.vocab)
    return len(part), _canonical_rows(groups, len(part))[0]


def normalize(x):
    """Canonical isomorphic copy on {0..m-1}; equal outputs iff isomorphic inputs.

    Works for FiniteStructure and DecoratedStructure (subsets relabeled along).
    Sizes beyond CANONICAL_SIZE_CAP raise CapacityError.
    """
    if isinstance(x, DecoratedStructure):
        return _canonical_labelling(x)[0]
    return _canonical_labelling(_decorated(x, ()))[0].base


def canonical_key(x):
    return normalize(_as_decorated(x)).key


def find_isomorphism(src, dst, pins: Mapping[int, int] | None = None) -> dict[int, int] | None:
    """An isomorphism src -> dst extending pins, as a {src id: dst id} dict, or None.

    Isomorphisms preserve all relations and functions in both directions and
    map the i-th distinguished subset of src onto the i-th of dst exactly.
    The pins become ordered singleton subsets; the map is src's canonical
    labelling followed by the inverse of dst's.  Sizes beyond
    CANONICAL_SIZE_CAP raise CapacityError.
    """
    src = _as_decorated(src)
    dst = _as_decorated(dst)
    if src.base.vocab != dst.base.vocab:
        raise SignatureError("isomorphism search needs a shared vocabulary")
    if len(src.subsets) != len(dst.subsets):
        raise ArityError("isomorphism search needs equal subset-list lengths")
    pins = dict(pins or {})
    for a, b in pins.items():
        if a not in src.base.universe or b not in dst.base.universe:
            raise PinError(f"pin {a}->{b} leaves the universes")
    if len(set(pins.values())) != len(pins):
        raise PinError("pins must be injective")
    if src.size != dst.size:
        return None
    canon_src, to_label = _canonical_labelling(
        _decorated(src.base, src.subsets + tuple(frozenset((a,)) for a in pins))
    )
    canon_dst, from_label = _canonical_labelling(
        _decorated(dst.base, dst.subsets + tuple(frozenset((b,)) for b in pins.values()))
    )
    if canon_src != canon_dst:
        return None
    dst_of = dict(zip(from_label, dst.base.elements))
    return {e: dst_of[label] for e, label in zip(src.base.elements, to_label)}


# ---------------------------------------------------------------------------
# enumeration


def _relation_interps(name: str, arity: int, elems: list[int]):
    cells = sorted(itertools.product(elems, repeat=arity))
    for mask in range(1 << len(cells)):
        yield name, frozenset(c for i, c in enumerate(cells) if mask >> i & 1)


def _function_interps(name: str, arity: int, elems: list[int]):
    cells = sorted(itertools.product(elems, repeat=arity))
    for values in itertools.product(elems, repeat=len(cells)):
        yield name, dict(zip(cells, values))


def _interpretations(old: Vocabulary, tau: Vocabulary, elems: list[int]):
    """Each interpretation over elems of the symbols tau adds to old, in product order.

    An interpretation is a tuple of (name, row set) for the added relations,
    then (name, table) for the added functions, each part in name order.
    """
    spaces = [
        _relation_interps(n, tau.rel_arity(n), elems)
        for n in tau.relation_names()
        if n not in old.relations
    ]
    spaces += [
        _function_interps(n, tau.fun_arity(n), elems)
        for n in tau.function_names()
        if n not in old.functions
    ]
    return itertools.product(*spaces)


def _graph(table) -> list[tuple[int, ...]]:
    """A function table's rows for labelling: the arguments, then the value."""
    return [(*args, v) for args, v in table.items()]


def _raw_tables(vocab: Vocabulary, k: int, budget: list[int], limit: int):
    """Each interpretation of vocab over 0..k-1, counted against the raw cap."""
    for combo in _interpretations(EMPTY_VOCABULARY, vocab, range(k)):
        budget[0] += 1
        if budget[0] > limit:
            raise CapacityError(
                f"structure enumeration exceeded the raw cap of {limit}",
                count=budget[0],
                limit=limit,
            )
        yield combo


def _invariant_fields(vocab: Vocabulary, k: int) -> dict[str, list[int]]:
    """Per relation, the packed-int field of each set of positions a point can fill in a row.

    Field (name, mask) counts the rows of that relation in which the point
    fills exactly the positions in mask.  A field of a k-point structure
    counts at most k**arity rows, so the fields never carry into each other
    and comparing packed ints compares the counts in field order.
    """
    fields, shift = {}, 0
    for name in vocab.relation_names():
        arity = vocab.rel_arity(name)
        width = (k**arity).bit_length()
        fields[name] = [0] + [1 << (shift + width * i) for i in range((1 << arity) - 1)]
        shift += width * ((1 << arity) - 1)
    return fields


def _point_invariants(relations: Mapping[str, Iterable[tuple[int, ...]]], fields, k: int):
    """Each point's packed row counts in the given relations' fields, for points 0..k-1."""
    inv = [0] * k
    for name, rows in relations.items():
        field = fields[name]
        for row in rows:
            masks = {}
            for i, c in enumerate(row):
                masks[c] = masks.get(c, 0) | 1 << i
            for c, mask in masks.items():
                inv[c] += field[mask]
    return inv


def _moved(images, masks: tuple[int, ...]) -> tuple[int, ...]:
    """masks, one bit mask over the cells of each relation, with bit a of the j-th mask
    moved to bit images[j][a]."""
    return tuple(
        sum([1 << b for a, b in enumerate(image) if mask >> a & 1])
        for mask, image in zip(masks, images)
    )


def enumerate_hereditary(vocab: Vocabulary, max_size: int, keep, max_raw: int = 5_000_000):
    """Canonical representatives of the structures keep accepts, smallest first.

    Relational vocabularies only.  Size k is grown from one-point extensions
    of the size-(k-1) representatives kept, and keep must be hereditary: it
    holds of each induced substructure of a structure it accepts.  Within
    each size, representatives are sorted by canonical key.

    Only an extension whose new point k-1 has the largest invariant is
    labelled (McKay, "Isomorph-free exhaustive generation", 1998).  A point's
    invariant counts, per relation, the rows it fills, split by the set of
    positions it fills in the row.  Each type keep accepts has a point w of
    largest invariant; deleting w leaves a type keep accepts, and the
    extension of its representative whose new point plays w's role passes.
    So the output is every accepted type up to max_size, as when every
    extension is labelled; when keep is not hereditary, types may be lost.
    max_raw counts every extension, labelled or not: a size whose extensions
    would pass it raises CapacityError before any of them is built.

    Of the extensions of one representative P, one per orbit is labelled.
    The search that labelled P's type first found automorphisms of it; in
    P's canonical labels, each fixing the new point, they carry an
    extension to an isomorphic one with the new point in the same role.  So
    an extension in the orbit of one labelled before is skipped; it has the
    same invariants, and its type is already found.  Any subgroup of P's
    automorphism group serves, and the automorphisms are kept beside P for
    this enumeration only.

    An extension is labelled as rows, the representative's plus the new
    point's, and deduplicated on its canonical rows; a structure is built
    only for the first extension of each new type, and the canonical
    labelling memo is not touched.
    """
    if vocab.functions:
        raise SignatureError("hereditary enumeration requires a function-free vocabulary")
    if max_size < 0:
        return
    names = vocab.relation_names()
    budget = 0
    # representative -> automorphisms of it in its labels, each fixing the next new point
    automorphisms_of = {}
    level = [s for s in (FiniteStructure(vocab, ()),) if keep(s)]
    yield from level
    for k in range(1, max_size + 1):
        if not level:
            return
        elems = list(range(k))
        universe = frozenset(elems)
        fields = _invariant_fields(vocab, k)
        # the cells of each relation's rows that hold the new point k - 1
        new_cells = [
            sorted(t for t in itertools.product(elems, repeat=vocab.rel_arity(n)) if k - 1 in t)
            for n in names
        ]
        budget += len(level) * prod(1 << len(cells) for cells in new_cells)
        if budget > max_raw:
            raise CapacityError(
                f"structure enumeration exceeded the raw cap of {max_raw}",
                count=budget,
                limit=max_raw,
            )
        indexes, spaces = [], []
        for n, cells in zip(names, new_cells):
            space = []
            for mask in range(1 << len(cells)):
                rows = [c for i, c in enumerate(cells) if mask >> i & 1]
                space.append((mask, rows, _point_invariants({n: rows}, fields, k)))
            indexes.append(dict(zip(cells, itertools.count())))
            spaces.append(space)
        seen = {}
        for rep in level:
            base = _point_invariants(rep.relations, fields, k)
            rep_rows = [list(rep.relations[n]) for n in names]
            moves = [
                partial(_moved, [[ix[tuple(map(g.__getitem__, c))] for c in ix] for ix in indexes])
                for g in automorphisms_of.get(rep, ())
            ]
            marked = set()
            for combo in itertools.product(*spaces):
                inv = base
                for _, _, counts in combo:
                    inv = list(map(add, inv, counts))
                if inv[-1] < max(inv):
                    continue
                if moves:
                    masks = tuple([mask for mask, _, _ in combo])
                    if masks in marked:
                        continue
                    marked |= _orbits_of([masks], moves)
                groups = [old + new for old, (_, new, _) in zip(rep_rows, combo)]
                canon_rows, perm, automorphisms = _canonical_rows(groups, k)
                if canon_rows not in seen:
                    s = _structure(vocab, universe, dict(zip(names, canon_rows)), {})
                    seen[canon_rows] = s
                    if automorphisms and k < max_size:
                        # g moves point i to g[i]; in canonical labels, perm[i] goes to perm[g[i]]
                        inverse = sorted(elems, key=perm.__getitem__)
                        automorphisms_of[s] = [
                            [perm[g[i]] for i in inverse] + [k] for g in automorphisms
                        ]
        level = [s for s in sorted(seen.values(), key=attrgetter("key")) if keep(s)]
        yield from level


def enumerate_structures(
    vocab: Vocabulary,
    max_size: int,
    up_to_iso: bool = False,
    max_raw: int = 5_000_000,
):
    """All structures with universe {0..k-1}, k <= max_size, smallest first.

    With up_to_iso, exactly one canonical representative per isomorphism type,
    sorted by canonical key within each size.  Purely relational vocabularies
    go one element at a time (every structure extends one of its one-point
    deletions); vocabularies with functions fall back to labelling the raw
    tables, where one-point deletions need not be substructures, and build
    the canonical copy of each new type only.
    """
    budget = [0]
    if up_to_iso and not vocab.functions:
        yield from enumerate_hereditary(vocab, max_size, lambda s: True, max_raw)
        return
    r = len(vocab.relations)
    for k in range(max_size + 1):
        universe = frozenset(range(k))
        if not up_to_iso:
            for combo in _raw_tables(vocab, k, budget, max_raw):
                yield _structure(vocab, universe, dict(combo[:r]), dict(combo[r:]))
            continue
        seen = {}
        for combo in _raw_tables(vocab, k, budget, max_raw):
            groups = [rows for _, rows in combo[:r]] + [_graph(t) for _, t in combo[r:]]
            canon_rows, perm, _ = _canonical_rows(groups, k)
            if canon_rows not in seen:
                rels, funs = _canonical_tables(vocab, canon_rows, groups, perm)
                seen[canon_rows] = _structure(vocab, universe, rels, funs)
        yield from sorted(seen.values(), key=attrgetter("key"))


def enumerate_expansions(m: FiniteStructure, tau: Vocabulary, max_raw: int = 5_000_000):
    """All tau-structures whose reduct to m's vocabulary is m, one per tau-isomorphism type.

    Representatives keep m's universe; of each type, the first expansion in
    product order is kept.  Each expansion is labelled as rows, m's and the
    added symbols', and only the kept ones are built.
    """
    if not m.vocab.is_subvocabulary_of(tau):
        raise SignatureError("expansion vocabulary must extend the structure's vocabulary")
    if not m.universe and tau.has_constants():
        raise DomainError("cannot expand an empty structure with constants")
    k = m.size
    total = prod(2 ** k**a for n, a in tau.relations.items() if n not in m.vocab.relations)
    total *= prod(k ** k**a for n, a in tau.functions.items() if n not in m.vocab.functions)
    if total > max_raw:
        raise CapacityError(
            f"expansion enumeration exceeded the raw cap of {max_raw}",
            count=total,
            limit=max_raw,
        )
    names = m.vocab.relation_names() + m.vocab.function_names()
    old = dict(zip(names, _part_rows(m, m.elements, m.vocab)))
    by_index = _interpretations(m.vocab, tau, range(k))
    seen = {}
    # the same interpretations over m's elements and over their indices, in step
    for combo, on_elements in zip(by_index, _interpretations(m.vocab, tau, m.elements)):
        added = dict(combo)
        groups = [old[n] if n in old else added[n] for n in tau.relation_names()]
        groups += [old[n] if n in old else _graph(added[n]) for n in tau.function_names()]
        canon_rows = _canonical_rows(groups, k)[0]
        if canon_rows not in seen:
            seen[canon_rows] = expand(m, tau, dict(on_elements))
    return list(seen.values())
