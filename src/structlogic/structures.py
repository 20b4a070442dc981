"""Finite structures, decorated structures, and the combinatorics over them.

Universes are finite sets of nonnegative ints and need not be contiguous:
substructures keep the parent's element ids so closure intersections stay
meaningful.  The file format and canonical forms use contiguous universes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from functools import lru_cache
from operator import add

from .errors import ArityError, CapacityError, DomainError, PinError, SignatureError
from .records import record
from .vocab import Vocabulary

# Canonical labelling is an exact search over labellings, still exponential in
# the worst case; the cap bounds it, and tests pin the error past it.
CANONICAL_SIZE_CAP = 8


class FiniteStructure:
    __slots__ = ("vocab", "universe", "_relations", "_functions", "_key", "_hash")

    def __init__(
        self,
        vocab: Vocabulary,
        universe: Iterable[int],
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        functions: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
    ):
        universe = frozenset(universe)
        for e in universe:
            if not isinstance(e, int) or e < 0:
                raise DomainError(f"universe elements must be nonnegative ints, got {e!r}")
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
        self.vocab = vocab
        self.universe = universe
        self._relations = rels
        self._functions = funs
        self._key = (
            vocab.key,
            tuple(sorted(universe)),
            tuple((n, tuple(sorted(rels[n]))) for n in sorted(rels)),
            tuple((n, tuple(sorted(funs[n].items()))) for n in sorted(funs)),
        )
        self._hash = hash(self._key)

    @property
    def size(self) -> int:
        return len(self.universe)

    @property
    def key(self):
        return self._key

    @property
    def elements(self) -> tuple[int, ...]:
        """The universe in increasing order."""
        return self._key[1]

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        try:
            return self._relations[name]
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
        for name in self.vocab.function_names():
            arity = self.vocab.fun_arity(name)
            if arity == 0:
                if self.constant(name) not in subset:
                    return False
                continue
            for args in itertools.product(sorted(subset), repeat=arity):
                if self._functions[name][args] not in subset:
                    return False
        return True

    def induced(self, subset: Iterable[int]) -> "FiniteStructure":
        """Substructure on subset; requires closure under functions and constants."""
        subset = frozenset(subset)
        if not subset <= self.universe:
            raise DomainError("subset leaves the universe")
        if not self.is_closed_subset(subset):
            raise DomainError("subset is not closed under the structure's functions")
        rels = {
            n: {t for t in ts if all(c in subset for c in t)}
            for n, ts in self._relations.items()
        }
        funs = {
            n: {args: v for args, v in table.items() if all(c in subset for c in args)}
            for n, table in self._functions.items()
        }
        return FiniteStructure(self.vocab, subset, rels, funs)

    def is_substructure_of(self, other: "FiniteStructure") -> bool:
        if self.vocab != other.vocab or not self.universe <= other.universe:
            return False
        for name, ts in self._relations.items():
            induced = {t for t in other._relations[name] if all(c in self.universe for c in t)}
            if ts != induced:
                return False
        for name, table in self._functions.items():
            for args, val in table.items():
                if other._functions[name][args] != val:
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, FiniteStructure) and self._key == other._key

    def __hash__(self):
        return self._hash

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


def decorated(base: FiniteStructure, subsets: Iterable[Iterable[int]] = ()) -> DecoratedStructure:
    return DecoratedStructure(base, tuple(frozenset(s) for s in subsets))


def reduct(s: FiniteStructure, tau0: Vocabulary) -> FiniteStructure:
    """Forget the symbols outside tau0; tau0 must be a sub-vocabulary."""
    if not tau0.is_subvocabulary_of(s.vocab):
        raise SignatureError("reduct target is not a sub-vocabulary")
    rels = {n: s.rel(n) for n in tau0.relation_names()}
    funs = {n: s.fun(n) for n in tau0.function_names()}
    return FiniteStructure(tau0, s.universe, rels, funs)


def relabel(s: FiniteStructure, mapping: dict[int, int]) -> FiniteStructure:
    """Copy of s with elements renamed by the given bijection."""
    if sorted(mapping) != sorted(s.universe) or len(set(mapping.values())) != s.size:
        raise DomainError("relabeling must be a bijection on the universe")
    rels = {
        name: {tuple(mapping[e] for e in row) for row in s.rel(name)}
        for name in s.vocab.relation_names()
    }
    funs = {
        name: {
            tuple(mapping[e] for e in args): mapping[val]
            for args, val in s.fun(name).items()
        }
        for name in s.vocab.function_names()
    }
    return FiniteStructure(s.vocab, mapping.values(), rels, funs)


def generated_substructure(s: FiniteStructure, seed: Iterable[int]) -> FiniteStructure:
    """Smallest substructure whose universe contains seed."""
    seed = frozenset(seed)
    if not seed <= s.universe:
        raise DomainError("seed leaves the universe")
    closed = set(seed)
    for name in s.vocab.function_names():
        if s.vocab.fun_arity(name) == 0:
            closed.add(s.constant(name))
    changed = True
    while changed:
        changed = False
        for name in s.vocab.function_names():
            arity = s.vocab.fun_arity(name)
            if arity == 0:
                continue
            for args in itertools.product(sorted(closed), repeat=arity):
                val = s._functions[name][args]
                if val not in closed:
                    closed.add(val)
                    changed = True
    return s.induced(closed)


# ---------------------------------------------------------------------------
# canonical forms


def _as_decorated(x) -> DecoratedStructure:
    return x if isinstance(x, DecoratedStructure) else DecoratedStructure(x, ())


def _labelling_rows(d: DecoratedStructure, rel_names, fun_names) -> list[list[tuple[int, ...]]]:
    """d's relations, function graphs (args then value) and subsets as rows of element indices.

    One group per symbol or subset, in encoding order.  Each group has a
    fixed row count and arity, so comparing two labellings' sorted groups in
    turn is comparing their (relations, functions, subsets) encodings.
    """
    index = {e: i for i, e in enumerate(d.base.elements)}.__getitem__
    groups = [[tuple(map(index, t)) for t in d.base.rel(n)] for n in rel_names]
    groups += [
        [(*map(index, args), index(v)) for args, v in d.base.fun(n).items()] for n in fun_names
    ]
    groups += [[(index(e),) for e in s] for s in d.subsets]
    return groups


def _orbits_of(points, generators) -> set[int]:
    seen = set(points)
    stack = list(points)
    while stack:
        p = stack.pop()
        for g in generators:
            if g[p] not in seen:
                seen.add(g[p])
                stack.append(g[p])
    return seen


def _least_labelling(groups, m: int) -> list[int]:
    """A labelling of 0..m-1 (m >= 2) with the least encoding: the least leaf the search reaches.

    Branch and bound: labels 0, 1, 2, ... go to elements depth first, and a
    node's children are tried in the order of their bounds.  Each row is
    read as a base-m number, which orders rows of one arity as tuples.  A
    child's bound reads every unassigned coordinate as the next label, so
    each row, and with it each sorted group, is no larger than in any
    completion.  Distinct rows keep distinct images, so each row of a
    sorted group is then raised to at least one above the row before it.

    A child whose bound exceeds the best leaf so far is cut.  A leaf that
    ties the best yields an automorphism, and a child in the orbit of an
    explored sibling, under the automorphisms that fix the labelled
    elements, is skipped.
    """
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
    return best_lab


@lru_cache(maxsize=200_000)
def _canonical_labelling(d: DecoratedStructure) -> tuple[DecoratedStructure, tuple[int, ...]]:
    """The canonical copy of d and a labelling onto it.

    The copy has the least (relations, functions, subsets) encoding over all
    labellings of d by 0..m-1.  The labelling is a tuple: the i-th smallest
    element of d goes to label labelling[i].  It is one of the labellings
    whose encoding is that minimum, the one _least_labelling reaches; when d
    has automorphisms, others reach the same copy.
    """
    base = d.base
    m = base.size
    if m > CANONICAL_SIZE_CAP:
        raise CapacityError(
            f"canonical labeling caps at size {CANONICAL_SIZE_CAP}, got {m}",
            count=m,
            limit=CANONICAL_SIZE_CAP,
        )
    rel_names = base.vocab.relation_names()
    fun_names = base.vocab.function_names()
    groups = _labelling_rows(d, rel_names, fun_names)
    perm = _least_labelling(groups, m) if m > 1 else list(range(m))
    label = perm.__getitem__
    r = len(rel_names)
    relations = {n: {tuple(map(label, row)) for row in groups[j]} for j, n in enumerate(rel_names)}
    functions = {
        n: {tuple(map(label, row[:-1])): label(row[-1]) for row in groups[r + j]}
        for j, n in enumerate(fun_names)
    }
    subsets = tuple(frozenset(label(c) for (c,) in rows) for rows in groups[r + len(fun_names):])
    canon_base = FiniteStructure(base.vocab, range(m), relations, functions)
    return DecoratedStructure(canon_base, subsets), tuple(perm)


def normalize(x):
    """Canonical isomorphic copy on {0..m-1}; equal outputs iff isomorphic inputs.

    Works for FiniteStructure and DecoratedStructure (subsets relabeled along).
    Sizes beyond CANONICAL_SIZE_CAP raise CapacityError.
    """
    if isinstance(x, DecoratedStructure):
        return _canonical_labelling(x)[0]
    return _canonical_labelling(DecoratedStructure(x, ()))[0].base


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
        DecoratedStructure(src.base, src.subsets + tuple(frozenset((a,)) for a in pins))
    )
    canon_dst, from_label = _canonical_labelling(
        DecoratedStructure(dst.base, dst.subsets + tuple(frozenset((b,)) for b in pins.values()))
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


def _raw_structures(vocab: Vocabulary, k: int, budget: list[int], limit: int):
    if k == 0:
        if not vocab.has_constants():
            budget[0] += 1
            yield FiniteStructure(vocab, ())
        return
    elems = list(range(k))
    rel_spaces = [
        _relation_interps(n, vocab.rel_arity(n), elems) for n in vocab.relation_names()
    ]
    fun_spaces = [
        _function_interps(n, vocab.fun_arity(n), elems) for n in vocab.function_names()
    ]
    for combo in itertools.product(*rel_spaces, *fun_spaces):
        budget[0] += 1
        if budget[0] > limit:
            raise CapacityError(
                f"structure enumeration exceeded the raw cap of {limit}",
                count=budget[0],
                limit=limit,
            )
        rels = {n: ts for n, ts in combo[: len(rel_spaces)]}
        funs = {n: table for n, table in combo[len(rel_spaces):]}
        yield FiniteStructure(vocab, elems, rels, funs)


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
    max_raw counts every extension, labelled or not.
    """
    if vocab.functions:
        raise SignatureError("hereditary enumeration requires a function-free vocabulary")
    if max_size < 0:
        return
    names = vocab.relation_names()
    budget = 0
    level = [s for s in (FiniteStructure(vocab, ()),) if keep(s)]
    yield from level
    for k in range(1, max_size + 1):
        elems = list(range(k))
        fields = _invariant_fields(vocab, k)
        spaces = []
        for n in names:
            cells = sorted(
                t for t in itertools.product(elems, repeat=vocab.rel_arity(n)) if k - 1 in t
            )
            space = []
            for mask in range(1 << len(cells)):
                rows = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
                space.append((rows, _point_invariants({n: rows}, fields, k)))
            spaces.append(space)
        seen = {}
        for rep in level:
            base = _point_invariants({n: rep.rel(n) for n in names}, fields, k)
            for combo in itertools.product(*spaces):
                budget += 1
                if budget > max_raw:
                    raise CapacityError(
                        f"structure enumeration exceeded the raw cap of {max_raw}",
                        count=budget,
                        limit=max_raw,
                    )
                inv = base
                for _, counts in combo:
                    inv = list(map(add, inv, counts))
                if inv[-1] < max(inv):
                    continue
                rels = {n: rep.rel(n) | combo[j][0] for j, n in enumerate(names)}
                canon = normalize(FiniteStructure(vocab, elems, rels))
                seen.setdefault(canon.key, canon)
        level = [seen[key] for key in sorted(seen) if keep(seen[key])]
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
    deletions); vocabularies with functions fall back to filtering the raw
    stream, where one-point deletions need not be substructures.
    """
    budget = [0]
    if not up_to_iso:
        for k in range(max_size + 1):
            yield from _raw_structures(vocab, k, budget, max_raw)
        return
    if not vocab.functions:
        yield from enumerate_hereditary(vocab, max_size, lambda s: True, max_raw)
        return
    for k in range(max_size + 1):
        seen = {}
        for s in _raw_structures(vocab, k, budget, max_raw):
            canon = normalize(s)
            seen.setdefault(canon.key, canon)
        for key in sorted(seen):
            yield seen[key]


def enumerate_expansions(m: FiniteStructure, tau: Vocabulary, max_raw: int = 5_000_000):
    """All tau-structures whose reduct to m's vocabulary is m, one per tau-isomorphism type.

    Representatives keep m's universe and come in a deterministic order.
    """
    if not m.vocab.is_subvocabulary_of(tau):
        raise SignatureError("expansion vocabulary must extend the structure's vocabulary")
    new_rels = [n for n in tau.relation_names() if n not in m.vocab.relations]
    new_funs = [n for n in tau.function_names() if n not in m.vocab.functions]
    if not m.universe and any(tau.fun_arity(n) == 0 for n in new_funs):
        raise DomainError("cannot expand an empty structure with constants")
    elems = sorted(m.universe)
    spaces = [list(_relation_interps(n, tau.rel_arity(n), elems)) for n in new_rels]
    spaces += [list(_function_interps(n, tau.fun_arity(n), elems)) for n in new_funs]
    total = 1
    for sp in spaces:
        total *= len(sp)
    if total > max_raw:
        raise CapacityError(
            f"expansion enumeration exceeded the raw cap of {max_raw}",
            count=total,
            limit=max_raw,
        )
    out = []
    seen = set()
    for combo in itertools.product(*spaces):
        rels = {n: m.rel(n) for n in m.vocab.relation_names()}
        funs = {n: m.fun(n) for n in m.vocab.function_names()}
        for n, interp in combo:
            if n in new_rels:
                rels[n] = interp
            else:
                funs[n] = interp
        cand = FiniteStructure(tau, m.universe, rels, funs)
        key = normalize(cand).key
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out
