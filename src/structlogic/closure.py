"""Strong submodels, the closure operator, and Galois types of finite tuples.

The closure of a subset is computed exactly as defined: intersect the
universes of every strong submodel containing the subset.  A class "has
intersections" at an instance when that intersection is itself a strong
submodel; verification sweeps report every instance where it is not.  All
of this is kept per (class, caps) in one ClassSlice, which the closure,
class-axiom, presentation and anchored-type sweeps query.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .classspec import Caps, ModelClassSpec
from .errors import ArityError, CapacityError, DomainError
from .records import record
from .reports import VerificationReport, structure_witness, subset_witness
from .structures import DecoratedStructure, FiniteStructure, decorated, normalize


@record(frozen=True)
class PointedModel:
    """A structure with a distinguished tuple of its elements."""

    model: FiniteStructure
    anchor: tuple[int, ...] = ()

    def __post_init__(self):
        if not set(self.anchor) <= self.model.universe:
            raise DomainError("anchor tuple leaves the universe")


@record(frozen=True)
class ClosureResult:
    structure: FiniteStructure
    is_strong: bool


def _seeds(n: FiniteStructure):
    """Every subset of the universe as a sorted tuple, smallest first."""
    elems = sorted(n.universe)
    for k in range(len(elems) + 1):
        yield from itertools.combinations(elems, k)


# Every subset of the universe is tried, so the sweep stops at 16 elements.
SUBSET_LIMIT = 1 << 16


def _closed_subsets(n: FiniteStructure):
    """Function-closed subsets of the universe, smallest first, deterministic."""
    if 2 ** n.size > SUBSET_LIMIT:
        raise CapacityError(
            f"2^{n.size} subsets exceed the cap", count=2 ** n.size, limit=SUBSET_LIMIT
        )
    for combo in _seeds(n):
        subset = frozenset(combo)
        if n.is_closed_subset(subset):
            yield subset


class ClassSlice:
    """The strong-submodel lattice of one class at one set of caps.

    Everything is computed on first use and then kept: the spec's contains
    and le verdicts, one spec call per literal argument and never inferred
    from other verdicts; per structure, its closed induced parts (smallest
    first), those of them in the class, those strong in it, the closure of
    each seed, its expansions by closure data and their induced parts; and
    the class members up to the size cap.  A single closure query never
    enumerates the members.  Equal expanded structures, and equal closures,
    are one object, so they share one memo.
    """

    def __init__(self, spec: ModelClassSpec, caps: Caps):
        self.spec = spec
        self.caps = caps
        self._kept: dict = {}

    def _keep(self, key, compute):
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    @cached_property
    def members(self) -> tuple[FiniteStructure, ...]:
        return self.spec.members(self.caps.size)

    def contains(self, m: FiniteStructure) -> bool:
        return self._keep(("contains", m), lambda: bool(self.spec.contains(m)))

    def le(self, m: FiniteStructure, n: FiniteStructure) -> bool:
        return self._keep(("le", m, n), lambda: bool(self.spec.le(m, n)))

    def parts(self, n: FiniteStructure) -> tuple[FiniteStructure, ...]:
        """Induced substructures of n on its closed subsets, smallest first."""
        return self._keep(
            ("parts", n), lambda: tuple(n.induced(s) for s in _closed_subsets(n))
        )

    def member_parts(self, n: FiniteStructure) -> tuple[FiniteStructure, ...]:
        """The parts of n that are in the class."""
        return self._keep(
            ("member-parts", n), lambda: tuple(m for m in self.parts(n) if self.contains(m))
        )

    def strong(self, n: FiniteStructure) -> tuple[FiniteStructure, ...]:
        """The member parts of n that sit below n in the class order."""
        return self._keep(
            ("strong", n), lambda: tuple(m for m in self.member_parts(n) if self.le(m, n))
        )

    def cl(self, n: FiniteStructure, a: frozenset[int]) -> ClosureResult:
        """Intersection of the strong parts of n that contain a."""

        def closure():
            universes = [m.universe for m in self.strong(n)]
            inter = n.universe.intersection(*(u for u in universes if a <= u))
            return ClosureResult(self._one(n.induced(inter)), inter in universes)

        return self._keep(("cl", n, a), closure)

    def anchored_type(self, n: FiniteStructure, anchor: tuple[int, ...]) -> DecoratedStructure:
        """The canonical copy of cl(anchor) in n, decorated by the anchor's singletons.

        Two anchored tuples have the same Galois type exactly when these are equal.
        """
        closed = self.cl(n, frozenset(anchor)).structure
        return normalize(decorated(closed, [frozenset((e,)) for e in anchor]))

    def expanded(self, expansion, n: FiniteStructure) -> FiniteStructure:
        """expansion.build(self, n), built once per (expansion, n).

        The evaluator keeps its entries in each structure's own memo, so only
        one object per expanded structure lets every sweep share them.
        """
        return self._keep(("expanded", expansion, n), lambda: self._one(expansion.build(self, n)))

    def expanded_part(
        self, expansion, n: FiniteStructure, part: FiniteStructure
    ) -> FiniteStructure:
        """expanded(expansion, n) induced on part's universe, once per (expansion, n, part).

        A part equal to a structure expanded before is that same object, so
        it shares that structure's memo too.
        """
        return self._keep(
            ("expanded-part", expansion, n, part),
            lambda: self._one(self.expanded(expansion, n).induced(part.universe)),
        )

    def _one(self, s: FiniteStructure) -> FiniteStructure:
        """The first structure kept here that equals s, else s itself: the one
        object, and so the one memo, of its value in this slice."""
        return self._keep(("structure", s), lambda: s)


@lru_cache(maxsize=16)
def class_slice(spec: ModelClassSpec, caps: Caps = Caps()) -> ClassSlice:
    """The one lattice kept for (spec, caps); the least recently used go first."""
    return ClassSlice(spec, caps)


def cl(
    n: FiniteStructure,
    a,
    spec: ModelClassSpec,
    caps: Caps = Caps(),
) -> ClosureResult:
    """Intersection of all strong submodels of n containing the subset a."""
    a = frozenset(a)
    if not a <= n.universe:
        raise DomainError("closure seed leaves the universe")
    return class_slice(spec, caps).cl(n, a)


def verify_intersections(spec: ModelClassSpec, caps: Caps = Caps()) -> VerificationReport:
    """Check that every closure instance is itself a strong submodel."""
    report = VerificationReport(
        command=f"verify_intersections {spec.name}", caps={"size": caps.size}
    )
    sl = class_slice(spec, caps)
    instances = [(n, seed) for n in sl.members for seed in _seeds(n)]
    bad = []
    for n, seed in instances:
        result = sl.cl(n, frozenset(seed))
        if not result.is_strong:
            bad.append((n, seed, result.structure))
    report.check(
        "intersections",
        {"instances": len(instances), "members": len(sl.members)},
        bad[:3],
        lambda n, combo, closed: (
            structure_witness("member", n),
            subset_witness("seed", combo),
            structure_witness("closure", closed),
        ),
    )
    return report


def check_cl_coherence(spec: ModelClassSpec, caps: Caps = Caps()) -> VerificationReport:
    """Closures agree whether computed in a strong submodel or its parent."""
    report = VerificationReport(
        command=f"check_cl_coherence {spec.name}", caps={"size": caps.size}
    )
    sl = class_slice(spec, caps)
    pairs = [(m, n) for n in sl.members for m in sl.strong(n)]
    instances = 0
    bad = []
    for m, n in pairs:
        for combo in _seeds(m):
            instances += 1
            in_m = sl.cl(m, frozenset(combo)).structure
            in_n = sl.cl(n, frozenset(combo)).structure
            if in_m != in_n:
                bad.append((m, n, combo, in_m, in_n))
    report.check(
        "cl-coherence",
        {"pairs": len(pairs), "instances": instances},
        bad[:2],
        lambda m, n, combo, in_m, in_n: (
            structure_witness("inner", m),
            structure_witness("outer", n),
            subset_witness("seed", combo),
            structure_witness("closure-in-inner", in_m),
            structure_witness("closure-in-outer", in_n),
        ),
    )
    return report


def galois_equiv(
    p: PointedModel, q: PointedModel, spec: ModelClassSpec, caps: Caps = Caps()
) -> bool:
    """Anchored isomorphism of the two closures, anchor onto anchor."""
    if len(p.anchor) != len(q.anchor):
        raise ArityError("anchors of unequal length are never equivalent")
    sl = class_slice(spec, caps)
    return sl.anchored_type(p.model, p.anchor) == sl.anchored_type(q.model, q.anchor)


# Each anchored tuple costs about 0.1 ms; the largest emission sweep of the
# shipped classes up to size cap 5 (triangle-free, 65,464 tuples) fits.
ANCHOR_LIMIT = 1 << 17


def enumerate_DK(
    spec: ModelClassSpec, max_tuple_len: int = 2, caps: Caps = Caps()
) -> list[PointedModel]:
    """One representative per anchored-isomorphism type of closures of tuples.

    Each representative is shrunk to its own closure and renamed canonically;
    output is sorted by anchor length, then by canonical key.  More than
    ANCHOR_LIMIT anchored tuples raise CapacityError before the sweep.
    """
    sl = class_slice(spec, caps)
    count = sum(n.size**length for n in sl.members for length in range(max_tuple_len + 1))
    if count > ANCHOR_LIMIT:
        raise CapacityError(
            f"{count} anchored tuples exceed the cap", count=count, limit=ANCHOR_LIMIT
        )
    seen: dict = {}
    for n in sl.members:
        elems = sorted(n.universe)
        for length in range(max_tuple_len + 1):
            for anchor in itertools.product(elems, repeat=length):
                canon = sl.anchored_type(n, anchor)
                seen.setdefault((length, canon.key), canon)
    out = []
    for (_length, _key), canon in sorted(seen.items(), key=lambda kv: kv[0]):
        anchor = tuple(next(iter(sub)) for sub in canon.subsets)
        out.append(PointedModel(canon.base, anchor))
    return out

