"""The one-pass round trip against the three member loops it replaced.

`verify_presentation` decides checks 1, 2 and 4 in one pass per member,
with one `elem_F_star` call per (expanded part, expanded member) pair.
`reference_report` keeps the earlier route: one loop per check, with check 2
and check 4 each calling `elem_F_star` on their own.  Check 3 (membership)
did not change and is taken from the engine's report.  The rendered
reports must be byte-identical, on the corpus at caps 2-3 and on presentations
with a dropped disjunct, where check 1 fails and some strong pairs' verdicts
are needed by check 2 alone.
"""

from __future__ import annotations

import gc

import pytest

from structlogic import axiomatizer, semantics
from structlogic.axiomatizer import emit_aq_theory, functorial_expansion, verify_presentation
from structlogic.classspec import Caps
from structlogic.closure import class_slice
from structlogic.corpus import load_corpus_class
from structlogic.reports import FAIL, PASS, VerificationReport, formula_witness, structure_witness
from structlogic.semantics import elem_F_star, models
from structlogic.semantics import eval as eval_formula
from structlogic.structures import FiniteStructure
from structlogic.syntax import UNBOUNDED, Forall, Or, Theory, or_, subformula_closure

GOOD = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")
# every corpus class at caps 2-3 whose presentation is emitted for a non-empty
# class: broken-coherence fails emission at caps 3, and broken-intersections
# has no members at caps 2
CASES = [(name, caps) for name in GOOD for caps in (2, 3)] + [
    ("broken-coherence", 2),
    ("broken-intersections", 3),
]


def reference_report(spec, emitted, caps, catalog, engine) -> tuple[VerificationReport, set]:
    """Checks 1, 2 and 4 by one member loop each, check 3 from engine's report;
    also the (expanded part, expanded member) pairs elem_F_star was asked about."""
    sl = class_slice(spec, caps)
    members = sl.members
    emap = functorial_expansion(spec, caps)
    report = VerificationReport(command=engine.command, caps=dict(engine.caps))
    asked = set()

    def star(a, n_plus, fragment):
        asked.add((id(a), id(n_plus)))
        return elem_F_star(a, n_plus, fragment, UNBOUNDED)

    bad1 = []
    for n in members:
        n_plus = emap.expand(n)
        for s in emitted.sentences:
            if not eval_formula(n_plus, s, {}, UNBOUNDED):
                bad1.append((n, s))
                break
    report.add(
        "models-satisfy-theory",
        FAIL if bad1 else PASS,
        {"members": len(members), "sentences": len(emitted.sentences)},
        [
            w
            for n, s in bad1[:2]
            for w in (structure_witness("member", n), formula_witness("sentence", s))
        ],
    )

    fragment = subformula_closure(emitted)
    bad2 = []
    pairs2 = 0
    for n in members:
        n_plus = emap.expand(n)
        for m in sl.strong(n):
            pairs2 += 1
            if not star(emap.expand(m), n_plus, fragment):
                bad2.append((m, n))
    report.add(
        "order-preserved",
        FAIL if bad2 else PASS,
        {"pairs": pairs2},
        [
            w
            for m, n in bad2[:2]
            for w in (structure_witness("inner", m), structure_witness("outer", n))
        ],
    )

    report.checks.append(engine.checks[2])

    bad4 = []
    pairs4 = 0
    for n in members:
        n_plus = emap.expand(n)
        strong = set(sl.strong(n))
        for part in sl.parts(n):
            a = sl.expanded_part(emap, n, part)
            if not models(a, emitted, UNBOUNDED):
                continue
            pairs4 += 1
            lhs = bool(star(a, n_plus, fragment))
            rhs = part in strong
            if lhs != rhs:
                bad4.append((a, n, lhs, rhs))
    report.add(
        "order-reflected",
        FAIL if bad4 else PASS,
        {"model-substructure-pairs": pairs4},
        [
            w
            for a, n, lhs, rhs in bad4[:2]
            for w in (
                structure_witness("substructure", a),
                structure_witness("outer-member", n),
                {
                    "kind": "verdict",
                    "label": "elementarity-vs-class-order",
                    "value": f"elementarity {lhs}, class order {rhs}",
                },
            )
        ],
    )
    return report, asked


def drop_first_disjunct(theory: Theory) -> Theory:
    """The first universally quantified disjunction loses its first disjunct."""
    sentences = list(theory.sentences)
    for i, s in enumerate(sentences):
        prefix, body = [], s
        while isinstance(body, Forall):
            prefix.append(body.var)
            body = body.body
        if isinstance(body, Or) and len(body.items) > 1:
            mutated = or_(*body.items[1:])
            for var in reversed(prefix):
                mutated = Forall(var, mutated)
            sentences[i] = mutated
            return Theory(f"{theory.name}-mutated", theory.vocabulary, tuple(sentences))
    raise AssertionError("no multi-disjunct sentence to mutate")


def counted_verify(monkeypatch, spec, theory, caps, catalog):
    """verify_presentation's report and its number of elem_F_star calls."""
    calls = []
    monkeypatch.setattr(
        axiomatizer, "elem_F_star", lambda *args: calls.append(args) or elem_F_star(*args)
    )
    report = verify_presentation(spec, theory, caps=caps, catalog=catalog)
    monkeypatch.undo()
    return report, len(calls)


def pair_count(report, check: str) -> int:
    (result,) = [c for c in report.checks if c.name == check]
    return next(iter(result.counts.values()))


@pytest.mark.parametrize(("name", "size"), CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_one_pass_report_equals_the_three_loop_report(name, size, monkeypatch):
    spec, caps = load_corpus_class(name), Caps(size=size)
    theory, catalog = emit_aq_theory(spec, caps=caps)
    report, calls = counted_verify(monkeypatch, spec, theory, caps, catalog)
    reference, asked = reference_report(spec, theory, caps, catalog, report)
    assert report.render() == reference.render()
    # every check-2 pair is a check-4 pair here, and each is decided once
    assert calls == len(asked) == pair_count(report, "order-reflected")


@pytest.mark.parametrize("name", GOOD)
def test_dropped_disjunct_reports_equal_and_check_2_decides_its_own_pairs(name, monkeypatch):
    spec, caps = load_corpus_class(name), Caps(size=3)
    theory, catalog = emit_aq_theory(spec, caps=caps)
    mutated = drop_first_disjunct(theory)
    report, calls = counted_verify(monkeypatch, spec, mutated, caps, catalog)
    reference, asked = reference_report(spec, mutated, caps, catalog, report)
    assert report.render() == reference.render()
    assert not report.checks[0].ok
    assert calls == len(asked) > pair_count(report, "order-reflected")


def test_elem_F_star_runs_once_per_order_reflected_pair(monkeypatch):
    runs = [
        ("frozen-predicate", 4, 129),
        ("linear-orders", 4, 31),
        ("bounded-blocks", 3, 27),
        ("triangle-free", 3, 35),
        ("linear-orders", 3, 15),
    ]
    for name, size, pairs in runs:
        spec, caps = load_corpus_class(name), Caps(size=size)
        theory, catalog = emit_aq_theory(spec, caps=caps)
        report, calls = counted_verify(monkeypatch, spec, theory, caps, catalog)
        assert [report.ok, calls, pair_count(report, "order-reflected")] == [True, pairs, pairs]


def test_memos_die_with_their_owners(monkeypatch):
    """A round trip after its slice is dropped redoes the matches on its new
    structures, where entries keyed by equal values would answer every one.
    Dropping the slice frees every structure it built at once: no global memo
    keeps one alive, and no memo entry makes a cycle for the collector."""
    calls = []
    match = semantics.induces_copy
    monkeypatch.setattr(semantics, "induces_copy", lambda *args: calls.append(None) or match(*args))
    spec, caps = load_corpus_class("linear-orders"), Caps(size=4)
    counts, alive = [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            class_slice.cache_clear()
            alive.append(sum(isinstance(o, FiniteStructure) for o in gc.get_objects()))
            calls.clear()
            theory, catalog = emit_aq_theory(spec, caps=caps)
            assert verify_presentation(spec, theory, caps=caps, catalog=catalog).ok
            counts.append(len(calls))
            del theory, catalog
        class_slice.cache_clear()
        alive.append(sum(isinstance(o, FiniteStructure) for o in gc.get_objects()))
    finally:
        gc.enable()
    assert counts[0] > 0 and counts[1] == counts[0]
    assert alive[1] == alive[2] == alive[0]
