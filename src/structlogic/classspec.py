"""Class presentations: theory-defined classes and explicit finite catalogs.

A defined class is the models of a theory up to a size cap, ordered by the
starred fragment-elementarity relation.  An explicit class is a finite list
of representatives with an order table between them, closed under renaming
by convention: membership and order transport along isomorphisms.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property

from . import sexpr
from .errors import CapacityError, ParseError, ShapeError
from .records import field, record
from .reports import (
    FAIL,
    NOT_FINITELY_TESTABLE,
    PASS,
    VerificationReport,
    structure_witness,
)
from .semantics import ElemReport, elem_F_star, enumerate_models, models
from .structures import (
    CANONICAL_SIZE_CAP,
    FiniteStructure,
    canonical_key,
    decorated,
    enumerate_hereditary,
    relabel,
)
from .syntax import Fragment, KappaThreshold, Theory, UNBOUNDED, subformula_closure
from .formats import structure_from_node, structure_to_node, theory_from_node, theory_to_node
from .vocab import EMPTY_VOCABULARY


@record(frozen=True)
class Caps:
    """Resolution bounds for verification sweeps."""

    size: int = 4


@record(frozen=True)
class DefinedClass:
    """Models of a theory up to a size cap, ordered by starred elementarity."""

    name: str
    theory: Theory
    kappa: KappaThreshold = UNBOUNDED
    size_cap: int = 4
    hereditary: bool = False

    @property
    def vocabulary(self):
        return self.theory.vocabulary

    @cached_property
    def fragment(self) -> Fragment:
        return subformula_closure(self.theory)

    def members(self, max_size: int | None = None) -> tuple[FiniteStructure, ...]:
        cap = self.size_cap if max_size is None else min(max_size, self.size_cap)
        if not self.hereditary:
            return tuple(enumerate_models(self.theory, max_size=cap, kappa=self.kappa))
        return tuple(
            enumerate_hereditary(self.vocabulary, cap, lambda s: models(s, self.theory, self.kappa))
        )

    def contains(self, n: FiniteStructure) -> bool:
        if n.vocab != self.vocabulary or n.size > self.size_cap:
            return False
        return models(n, self.theory, self.kappa)

    def le(self, m: FiniteStructure, n: FiniteStructure) -> ElemReport:
        return elem_F_star(m, n, self.fragment, self.kappa)


@record(frozen=True)
class ExplicitClass:
    """A finite list of representatives with an order table over their indices.

    The table pairs (i, j) assert that representative i sits strongly inside
    representative j; representative i must literally be an induced
    substructure of representative j.  Reflexive pairs are implied.
    """

    name: str
    reps: tuple[FiniteStructure, ...]
    order: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        n = len(self.reps)
        table = set(self.order)
        for i, j in table:
            if not (0 <= i < n and 0 <= j < n):
                raise ShapeError(f"order index pair ({i}, {j}) out of range")
            if not self.reps[i].is_substructure_of(self.reps[j]):
                raise ShapeError(
                    f"order pair ({i}, {j}) does not hold between literal substructures"
                )
        if self.size_cap > CANONICAL_SIZE_CAP:
            raise CapacityError(
                f"explicit representatives cap at size {CANONICAL_SIZE_CAP}, got {self.size_cap}",
                count=self.size_cap,
                limit=CANONICAL_SIZE_CAP,
            )
        table.update((i, i) for i in range(n))
        object.__setattr__(self, "order", frozenset(table))
        if n:
            vocabs = {r.vocab for r in self.reps}
            if len(vocabs) != 1:
                raise ShapeError("explicit representatives must share one vocabulary")

    @property
    def vocabulary(self):
        if not self.reps:
            return EMPTY_VOCABULARY
        return self.reps[0].vocab

    @property
    def size_cap(self) -> int:
        return max((r.size for r in self.reps), default=0)

    def members(self, max_size: int | None = None) -> tuple[FiniteStructure, ...]:
        cap = self.size_cap if max_size is None else max_size
        return tuple(r for r in self.reps if r.size <= cap)

    @cached_property
    def _rep_keys(self) -> frozenset:
        return frozenset(canonical_key(r) for r in self.reps)

    @cached_property
    def _order_keys(self) -> frozenset:
        """Keys of rep j decorated by rep i's universe, one per table entry (i, j)."""
        return frozenset(
            canonical_key(decorated(self.reps[j], (self.reps[i].universe,)))
            for i, j in self.order
        )

    def contains(self, n: FiniteStructure) -> bool:
        if n.vocab != self.vocabulary or n.size > self.size_cap:
            return False
        return canonical_key(n) in self._rep_keys

    def le(self, m: FiniteStructure, n: FiniteStructure) -> bool:
        """Order transported along isomorphism from the table entries."""
        if not m.is_substructure_of(n) or n.size > self.size_cap:
            return False
        return canonical_key(decorated(n, (m.universe,))) in self._order_keys


ModelClassSpec = DefinedClass | ExplicitClass


def check_class_properties(spec: ModelClassSpec, caps: Caps = Caps()) -> VerificationReport:
    """Finite slice of the class axioms: order laws, coherence, renaming closure.

    Chain and size-bound axioms quantify over infinite objects and are
    reported as not finitely testable.
    """
    from .closure import class_slice

    report = VerificationReport(
        command=f"check_class_properties {spec.name}", caps={"size": caps.size}
    )
    sl = class_slice(spec, caps)
    members = sl.members

    refl_bad = [n for n in members if not spec.le(n, n)]
    report.add(
        "order-reflexive",
        FAIL if refl_bad else PASS,
        {"members": len(members)},
        [structure_witness("member", n) for n in refl_bad[:3]],
    )

    sub_pairs = [(m, n) for n in members for m in sl.member_parts(n)]
    anti_bad = [
        (m, n)
        for m, n in sub_pairs
        if m != n and sl.le(m, n) and sl.le(n, m)
    ]
    report.add(
        "order-antisymmetric",
        FAIL if anti_bad else PASS,
        {"pairs": len(sub_pairs)},
        [structure_witness("pair-member", m) for m, _ in anti_bad[:3]],
    )

    triples = _triples(sl)
    trans_bad = [
        (m0, m1, n2)
        for m0, m1, n2 in triples
        if sl.le(m1, n2) and sl.le(m0, m1) and not sl.le(m0, n2)
    ]
    _add_triple_check(report, "order-transitive", len(triples), trans_bad)
    report.checks += check_coherence(spec, caps).checks

    not_sub = [
        (m, n)
        for m in members
        for n in members
        if not m.is_substructure_of(n) and spec.le(m, n)
    ]
    report.add(
        "order-implies-substructure",
        FAIL if not_sub else PASS,
        {"pairs": len(members) ** 2},
        [structure_witness("smaller", m) for m, _ in not_sub[:3]],
    )

    iso_bad = []
    relabelings = 0
    for n in members:
        elems = sorted(n.universe)
        perms = itertools.permutations(elems)
        for perm in itertools.islice(perms, 24):
            mapping = dict(zip(elems, perm))
            copy = relabel(n, mapping)
            relabelings += 1
            if not spec.contains(copy):
                iso_bad.append(copy)
    report.add(
        "isomorphism-closure",
        FAIL if iso_bad else PASS,
        {"relabelings": relabelings},
        [structure_witness("relabeled-copy", c) for c in iso_bad[:3]],
    )

    report.add(
        "chain-axioms",
        NOT_FINITELY_TESTABLE,
        note="union-of-chain axioms quantify over infinite chains",
    )
    report.add(
        "size-bound-axiom",
        NOT_FINITELY_TESTABLE,
        note="the size-bound axiom concerns infinite cardinals; caps stand in",
    )
    return report


def check_coherence(spec: ModelClassSpec, caps: Caps = Caps()) -> VerificationReport:
    """The coherence axiom on its own: m0 <= n2 and m1 <= n2 give m0 <= m1."""
    from .closure import class_slice

    report = VerificationReport(
        command=f"check_coherence {spec.name}", caps={"size": caps.size}
    )
    sl = class_slice(spec, caps)
    triples = _triples(sl)
    bad = [
        (m0, m1, n2)
        for m0, m1, n2 in triples
        if sl.le(m1, n2) and sl.le(m0, n2) and not sl.le(m0, m1)
    ]
    _add_triple_check(report, "coherence", len(triples), bad)
    return report


def _triples(sl) -> list[tuple[FiniteStructure, FiniteStructure, FiniteStructure]]:
    """(m0, m1, n2): a member part m0 of a member part m1 of a member n2."""
    return [
        (m0, m1, n2)
        for n2 in sl.members
        for m1 in sl.member_parts(n2)
        for m0 in sl.member_parts(m1)
    ]


def _add_triple_check(report: VerificationReport, name: str, triples: int, bad) -> None:
    report.add(
        name,
        FAIL if bad else PASS,
        {"triples": triples},
        [
            w
            for m0, m1, n2 in bad[:2]
            for w in (
                structure_witness("inner", m0),
                structure_witness("middle", m1),
                structure_witness("outer", n2),
            )
        ],
    )


# ---------------------------------------------------------------------------
# class spec files


def class_spec_from_node(node, base_dir: str = ".", name_hint: str = "class"):
    items = node
    if not isinstance(items, list) or not items or items[0] != "class":
        raise ParseError(f"expected (class ...), found {sexpr.write(node)[:80]}")
    name = name_hint
    theory: Theory | None = None
    kappa = UNBOUNDED
    max_size: int | None = None
    hereditary = False
    reps: list[FiniteStructure] | None = None
    order: set[tuple[int, int]] = set()
    for entry in items[1:]:
        if not isinstance(entry, list) or not entry or not isinstance(entry[0], str):
            raise ParseError(f"bad class entry: {sexpr.write(entry)}")
        kind = entry[0]
        if kind == "name":
            name = str(entry[1])
        elif kind == "theory":
            if len(entry) == 2 and isinstance(entry[1], str):
                theory = _load_theory(os.path.join(base_dir, entry[1]))
            else:
                theory = theory_from_node(entry)
        elif kind == "kappa":
            if len(entry) != 2:
                raise ParseError("expected (kappa unbounded|k)")
            kappa = (
                UNBOUNDED
                if entry[1] == "unbounded"
                else KappaThreshold.finite(int(entry[1]))
            )
        elif kind == "max-size":
            max_size = int(entry[1])
        elif kind == "hereditary":
            hereditary = True
        elif kind == "members":
            reps = []
            for ref in entry[1:]:
                if isinstance(ref, str):
                    reps.append(_load_structure(os.path.join(base_dir, ref)))
                else:
                    reps.append(structure_from_node(ref))
        elif kind == "order":
            for pair in entry[1:]:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ParseError(f"expected (i j) in order table: {sexpr.write(pair)}")
                order.add((int(pair[0]), int(pair[1])))
        else:
            raise ParseError(f"unknown class entry {kind!r}")
    if theory is not None and reps is not None:
        raise ParseError("a class is either theory-defined or explicit, not both")
    if theory is not None:
        return DefinedClass(
            name if name != "class" else theory.name,
            theory,
            kappa,
            max_size if max_size is not None else 4,
            hereditary,
        )
    if reps is not None:
        return ExplicitClass(name, tuple(reps), frozenset(order))
    raise ParseError("class has neither a (theory ...) nor a (members ...) entry")


def parse_class_spec(text: str, base_dir: str = ".", name_hint: str = "class"):
    return class_spec_from_node(sexpr.parse_one(text), base_dir, name_hint)


def load_class_spec(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_class_spec(text, os.path.dirname(path) or ".", stem)


def _load_theory(path: str) -> Theory:
    with open(path, encoding="utf-8") as fh:
        return theory_from_node(sexpr.parse_one(fh.read()))


def _load_structure(path: str) -> FiniteStructure:
    with open(path, encoding="utf-8") as fh:
        return structure_from_node(sexpr.parse_one(fh.read()))


def class_spec_to_node(spec: ModelClassSpec) -> list:
    if isinstance(spec, DefinedClass):
        out: list = ["class", ["name", spec.name], theory_to_node(spec.theory)]
        out.append(
            ["kappa", "unbounded" if spec.kappa.is_unbounded else spec.kappa.bound]
        )
        out.append(["max-size", spec.size_cap])
        if spec.hereditary:
            out.append(["hereditary"])
        return out
    out = ["class", ["name", spec.name]]
    out.append(["members", *[structure_to_node(r) for r in spec.reps]])
    pairs = sorted((i, j) for i, j in spec.order if i != j)
    out.append(["order", *[[i, j] for i, j in pairs]])
    return out


def print_class_spec(spec: ModelClassSpec) -> str:
    return sexpr.write_pretty(class_spec_to_node(spec))
