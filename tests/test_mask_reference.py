"""Solution sets as masks, against the oracle and frozenset references.

A slot sweep gives a structure quantifier's main and side solution sets as
ints, bit i standing for the structure's i-th element in increasing order.
`solution_set` turns a main mask back into elements, and `elem_F_star`
compares a part's masks with its host's by moving them onto the host's
elements, through a dict filled as masks are read.  The sets
must be the oracle's (`oracles.oracle_eval`), and the starred reports,
witness and detail included, those of a frozenset reference written here:
on structures relabelled onto scattered ids in 10-99, so that no bit index
is the element it stands for, at Unbounded, Finite(2) and Finite(3), for
parts of every size from 0 to 10.
"""

from __future__ import annotations

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_eval
from structlogic.errors import CapacityError, KappaError
from structlogic.formats import print_formula
from structlogic.semantics import (
    ElemReport,
    _MovedMasks,
    _sweep,
    _swept,
    elem_F_star,
    solution_set,
)
from structlogic.structures import FiniteStructure, decorated, generated_substructure, relabel
from structlogic.syntax import (
    UNBOUNDED,
    Atomic,
    Equal,
    KappaThreshold,
    Var,
    check_kappa,
    free_vars,
    qstruct,
    scopes,
    subformula_closure,
)
from structlogic.vocab import Vocabulary
from test_elem_reference import fragments, quantifiers
from test_eval_reference import structures

KAPPAS = (UNBOUNDED, KappaThreshold.finite(2), KappaThreshold.finite(3))
R = Vocabulary({"R": 2})


def scattered(n: FiniteStructure, rng: random.Random) -> FiniteStructure:
    """n on distinct ids drawn from 10-99, in no particular order."""
    elems = sorted(n.universe)
    return relabel(n, dict(zip(elems, rng.sample(range(10, 100), len(elems)))))


def elements(n: FiniteStructure, mask: int) -> frozenset:
    """The elements a mask over n holds, read bit by bit."""
    assert 0 <= mask < 1 << n.size
    return frozenset(e for i, e in enumerate(sorted(n.universe)) if mask >> i & 1)


def oracle_sets(n: FiniteStructure, chi, env: dict) -> list[frozenset]:
    """The main and side solution sets of a structure quantifier, by the oracle."""
    return [
        frozenset(e for e in n.universe if oracle_eval(n, body, {**env, x: e}))
        for x, body in scopes(chi)
    ]


def frozen_elem_F_star(n1, n2, f, kappa) -> ElemReport:
    """elem_F_star on frozensets: truth and solution sets by the oracle, each
    member checked in the fragment's order over sorted assignments."""
    if not n1.is_substructure_of(n2):
        return ElemReport(False, "not-substructure")
    elems = sorted(n1.universe)
    members = list(f)
    for phi in members:
        variables = sorted(free_vars(phi))
        if elems or not variables:
            check_kappa(phi, kappa)
        for values in product(elems, repeat=len(variables)):
            env = dict(zip(variables, values))
            if oracle_eval(n1, phi, env) != oracle_eval(n2, phi, env):
                return ElemReport(False, "truth-disagreement", phi, tuple(env.items()))
    for chi in f.qstruct_members():
        variables = sorted(free_vars(chi))
        for values in product(elems, repeat=len(variables)):
            env = dict(zip(variables, values))
            main1, *sides1 = oracle_sets(n1, chi, env)
            if not kappa.counts_as_small(len(main1)):
                continue
            main2, *sides2 = oracle_sets(n2, chi, env)
            changed = [y for y, s1, s2 in zip((None, *chi.yvars), (main1, *sides1), (main2, *sides2))
                       if s1 != s2]
            if changed:
                y = changed[0]
                detail = "main solution set" if y is None else f"side solution set for {y!r}"
                return ElemReport(False, "solution-set-change", chi, tuple(env.items()), detail=detail)
    return ElemReport(True, "ok")


def outcome(check, *args):
    try:
        r = check(*args)
    except (CapacityError, KappaError) as exc:
        return type(exc).__name__, str(exc)
    printed = None if r.formula is None else print_formula(r.formula)
    return r.ok, r.kind, printed, r.assignment, r.detail


@settings(max_examples=100, deadline=None)
@given(structures(sizes=(0, 5)), quantifiers(), st.randoms(use_true_random=False))
def test_sweep_masks_are_the_oracles_solution_sets(n, chi, rng):
    n = scattered(n, rng)
    sweep = _sweep(chi)
    for values in product(sorted(n.universe), repeat=len(sweep.variables)):
        env = dict(zip(sweep.variables, values))
        main, sides = _swept(n, sweep, values)
        assert type(main) is int and all(type(side) is int for side in sides)
        want = oracle_sets(n, chi, env)
        assert [elements(n, main), *map(elements, [n] * len(sides), sides)] == want
        assert solution_set(n, chi.phi, chi.var, env) == want[0]


def test_solution_set_on_the_empty_structure_is_empty():
    empty = FiniteStructure(R, ())
    x = Var("x")
    for phi in (Equal(x, x), Atomic("R", (x, x)), qstruct(FiniteStructure(R, ()), "y", (), Equal(x, x), ())):
        got = solution_set(empty, phi, "x")
        assert got == frozenset() and type(got) is frozenset


@settings(max_examples=150, deadline=None)
@given(structures(sizes=(0, 6)), st.data(), fragments(), st.sampled_from(KAPPAS), st.randoms(use_true_random=False))
def test_elem_F_star_agrees_with_the_frozenset_reference(n, data, frag, kappa, rng):
    n = scattered(n, rng)
    elems = sorted(n.universe)
    seed = data.draw(st.sets(st.sampled_from(elems), max_size=2) if elems else st.just(set()))
    m = generated_substructure(n, seed)
    assert outcome(elem_F_star, m, n, frag, kappa) == outcome(frozen_elem_F_star, m, n, frag, kappa)


def _digraph(rng: random.Random, size: int) -> FiniteStructure:
    rows = {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.3}
    return scattered(FiniteStructure(R, range(size), {"R": rows}), rng)


def _members():
    """Two quantifiers over one-point targets.  The first's main set is z's
    out-neighbours; the second's is {z}, and its side set for y is z's
    out-neighbours, which a part can change while its main set stays."""
    x, y, z = Var("x"), Var("y"), Var("z")
    loop = FiniteStructure(R, range(1), {"R": {(0, 0)}})
    return (
        qstruct(decorated(loop), "x", (), Atomic("R", (z, x)), ()),
        qstruct(decorated(loop, [()]), "x", ("y",), Equal(x, z), (Atomic("R", (z, y)),)),
    )


def _verdict(got) -> str:
    """A report's kind, or its detail when it has one, or the error's name."""
    return got[-1] or got[1] if len(got) > 2 else got[0]


def test_parts_of_every_size_agree_with_the_reference():
    rng = random.Random(27)
    frag = subformula_closure(list(_members()))
    seen = set()
    for _ in range(3):
        host = _digraph(rng, 10)
        for size in range(11):
            part = host.induced(rng.sample(sorted(host.universe), size))
            moved = _MovedMasks(part, host)
            for mask in rng.sample(range(1 << size), min(1 << size, 40)):
                assert elements(host, moved[mask]) == elements(part, mask)
            for kappa in KAPPAS:
                got = outcome(elem_F_star, part, host, frag, kappa)
                assert got == outcome(frozen_elem_F_star, part, host, frag, kappa)
                seen.add(_verdict(got))
    assert seen == {"ok", "truth-disagreement", "main solution set", "side solution set for 'y'"}


def test_masks_are_moved_only_when_read():
    rng = random.Random(5)
    host = _digraph(rng, 20)
    part = host.induced(sorted(host.universe)[3:15])
    moved = _MovedMasks(part, host)
    assert len(moved) == 0
    masks = rng.sample(range(1 << part.size), 50)
    for mask in masks + masks:
        assert elements(host, moved[mask]) == elements(part, mask)
    assert len(moved) == 50


def test_a_side_set_change_is_reported_on_scattered_ids():
    # 90 < 15 < 42 in the chain's order, which is not the ids' order; the main
    # set {z} is the same in the part and the host, the side set (the points
    # above z) is not
    lt = Vocabulary({"lt": 2})
    order = (90, 15, 42)
    c = FiniteStructure(lt, order, {"lt": {(a, b) for i, a in enumerate(order) for b in order[i + 1:]}})
    x, y, z = Var("x"), Var("y"), Var("z")
    blind = decorated(FiniteStructure(lt, range(5)), [()])
    chi = qstruct(blind, "x", ("y",), Equal(x, z), (Atomic("lt", (z, y)),))
    frag = subformula_closure(chi)
    for kappa in KAPPAS:
        part = c.induced({90, 42})
        got = outcome(elem_F_star, part, c, frag, kappa)
        assert got == outcome(frozen_elem_F_star, part, c, frag, kappa)
    part = c.induced({90, 42})
    assert outcome(elem_F_star, part, c, frag) == (
        False, "solution-set-change", print_formula(chi), (("z", 90),), "side solution set for 'y'"
    )
    assert elem_F_star(part, c, frag) == frozen_elem_F_star(part, c, frag, UNBOUNDED)
    assert elem_F_star(c.induced({15, 42}), c, frag).ok
