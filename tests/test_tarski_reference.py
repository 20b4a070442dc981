"""Tarski's forbidden types read off one-point growth, against the all-types search.

`tarski_universal_theory` finds the minimal excluded types by growing the
types whose one-point deletions are all members: those are the members and
the minimal excluded types.  The code it replaced labelled every type up to
the cap, then every proper induced substructure of every excluded type; it
is kept below as the reference.  Both must print the same theory, or raise
the same error, for the corpus's triangle-free class, for explicit classes
that are refused, and for seeded classes given by forbidden small types.
"""

from __future__ import annotations

import itertools
import random

import pytest

from structlogic import structures
from structlogic.axiomatizer import _forbidden_diagram, tarski_universal_theory
from structlogic.classspec import Caps, ExplicitClass
from structlogic.closure import class_slice
from structlogic.corpus import BUILDERS, bare_set
from structlogic.errors import EmissionError, StructLogicError, UniversalityError
from structlogic.formats import print_theory
from structlogic.semantics import enumerate_models
from structlogic.structures import canonical_key, enumerate_structures, normalize, relabel
from structlogic.syntax import Theory
from structlogic.vocab import Vocabulary

# ---------------------------------------------------------------------------
# the all-types search the growth replaced


def reference_universal_theory(spec, caps: Caps) -> Theory:
    vocab = spec.vocabulary
    sl = class_slice(spec, caps)
    for n in sl.members:
        for m in sl.parts(n):
            if not sl.contains(m):
                raise UniversalityError(
                    "class is not closed under induced substructures",
                    witness=(n, sorted(m.universe)),
                )
    every = enumerate_structures(vocab, caps.size, up_to_iso=True)
    excluded = [s for s in every if not spec.contains(s)]
    keys_below = {
        size: {x.key for x in excluded if x.size < size} for size in {s.size for s in excluded}
    }
    minimal = []
    for s in excluded:
        keys = keys_below[s.size]
        if not any(
            normalize(s.induced(combo)).key in keys
            for k in range(s.size)
            for combo in itertools.combinations(sorted(s.universe), k)
        ):
            minimal.append(s)
    theory = Theory(f"{spec.name}-universal", vocab, tuple(_forbidden_diagram(s) for s in minimal))
    produced = {normalize(m).key for m in enumerate_models(theory, max_size=caps.size)}
    if produced != {normalize(m).key for m in sl.members}:
        raise EmissionError("universal theory does not reproduce the class at the working cap")
    return theory


def printed(build, spec, caps: Caps) -> str:
    try:
        return print_theory(build(spec, caps))
    except StructLogicError as err:
        return f"{type(err).__name__}: {err}"


def assert_same_theory(spec, caps: Caps) -> str:
    got = printed(tarski_universal_theory, spec, caps)
    assert got == printed(reference_universal_theory, spec, caps)
    return got


# ---------------------------------------------------------------------------
# cases


@pytest.mark.parametrize("size", [2, 3, 4])
def test_triangle_free_matches_reference(size):
    got = assert_same_theory(BUILDERS["triangle-free"](), Caps(size=size))
    assert "forall" in got


@pytest.mark.parametrize(
    "spec, error",
    [
        (ExplicitClass("holed", (bare_set(2),)), "UniversalityError"),
        (ExplicitClass("void", ()), "EmissionError"),
    ],
    ids=["holed", "void"],
)
def test_refused_classes_match_reference(spec, error):
    assert assert_same_theory(spec, Caps(size=3)).startswith(f"{error}: ")


def test_class_of_the_empty_structure_matches_reference():
    assert_same_theory(ExplicitClass("only-empty", (bare_set(0),)), Caps(size=3))


def _forbidding(seed: int) -> ExplicitClass:
    """The {R:2} types up to size 3 with no induced copy of some random two- and three-point types.

    Members are listed as random relabellings, not canonical copies.
    """
    rng = random.Random(f"tarski-{seed}")
    types = list(enumerate_structures(Vocabulary({"R": 2}), 3, up_to_iso=True))
    two = [s for s in types if s.size == 2]
    three = [s for s in types if s.size == 3]
    picked = rng.sample(two, rng.randint(0, 2)) + rng.sample(three, rng.randint(1, 6))
    forbidden = {canonical_key(s) for s in picked}

    def allowed(s) -> bool:
        return all(
            canonical_key(s.induced(points)) not in forbidden
            for k in (2, 3)
            for points in itertools.combinations(sorted(s.universe), k)
        )

    reps = []
    for s in types:
        if allowed(s):
            image = rng.sample(range(s.size), s.size)
            reps.append(relabel(s, dict(zip(sorted(s.universe), image))))
    return ExplicitClass(f"forbidding-{seed}", tuple(reps))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_forbidden_types_match_reference(seed):
    got = assert_same_theory(_forbidding(seed), Caps(size=3))
    assert "forall" in got


def test_deletions_are_labelled_as_rows(monkeypatch):
    # a structure built for each deletion gave its labelling an owner no later call
    # shares, which took 1172 searches here
    spec, caps = BUILDERS["triangle-free"](), Caps(size=4)
    assert_same_theory(spec, caps)  # which also leaves the members' labellings in their memo
    calls, least = [], structures._least_labelling
    monkeypatch.setattr(structures, "_least_labelling", lambda g, m: calls.append(m) or least(g, m))
    tarski_universal_theory(spec, caps)
    assert len(calls) == 820
