"""elem_F / elem_F_star against the per-assignment loop they replaced.

The reference checks every assignment through the public eval and
solution_set, so it re-runs the free-variable, domain and kappa checks each
time; the engine checks each fragment member once.  Reports, or the error
raised, must be the same.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from structlogic.classspec import Caps
from structlogic.closure import class_slice
from structlogic.corpus import BUILDERS, chain
from structlogic.errors import CapacityError, KappaError
from structlogic.formats import print_formula
from structlogic.semantics import (
    MAX_ELEM_FREE_VARS,
    ElemReport,
    elem_F,
    elem_F_star,
    solution_set,
)
from structlogic.semantics import eval as ev
from structlogic.structures import FiniteStructure, decorated
from structlogic.syntax import (
    UNBOUNDED,
    Atomic,
    KappaThreshold,
    QStruct,
    Var,
    free_vars,
    qstruct,
    rebuild,
    scopes,
    subformula_closure,
)

GOOD_CLASSES = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")
THRESHOLDS = (UNBOUNDED, KappaThreshold.finite(2), KappaThreshold.finite(3), KappaThreshold.finite(7))


def _assignments(elems, variables, phi):
    if len(variables) > MAX_ELEM_FREE_VARS:
        raise CapacityError(
            f"{len(variables)} free variables exceed the exhaustive-sweep cap "
            f"of {MAX_ELEM_FREE_VARS} in {print_formula(phi)}",
            count=len(variables),
            limit=MAX_ELEM_FREE_VARS,
        )
    for values in product(elems, repeat=len(variables)):
        yield dict(zip(variables, values))


def reference_elem_F(n1, n2, f, kappa=UNBOUNDED):
    if not n1.is_substructure_of(n2):
        return ElemReport(False, "not-substructure")
    elems = sorted(n1.universe)
    for phi in f:
        for env in _assignments(elems, sorted(free_vars(phi)), phi):
            if ev(n1, phi, env, kappa) != ev(n2, phi, env, kappa):
                return ElemReport(False, "truth-disagreement", phi, tuple(sorted(env.items())))
    return ElemReport(True, "ok")


def reference_elem_F_star(n1, n2, f, kappa=UNBOUNDED):
    base = reference_elem_F(n1, n2, f, kappa)
    if not base:
        return base
    elems = sorted(n1.universe)
    for chi in f.qstruct_members():
        for env in _assignments(elems, sorted(free_vars(chi)), chi):
            where = tuple(sorted(env.items()))
            inner1 = solution_set(n1, chi.phi, chi.var, env, kappa)
            if not kappa.counts_as_small(len(inner1)):
                continue
            if inner1 != solution_set(n2, chi.phi, chi.var, env, kappa):
                return ElemReport(
                    False, "solution-set-change", chi, where, detail="main solution set"
                )
            for y, psi in zip(chi.yvars, chi.psis):
                if solution_set(n1, psi, y, env, kappa) != solution_set(n2, psi, y, env, kappa):
                    return ElemReport(
                        False,
                        "solution-set-change",
                        chi,
                        where,
                        detail=f"side solution set for {y!r}",
                    )
    return ElemReport(True, "ok")


def _blind(phi):
    """phi with each target swapped for a 5-element one with no relations.

    No solution set in a member of size 4 can match it, so truth agrees
    between a part and its host, and only the frozen solution sets can tell
    them apart.
    """
    phi = rebuild(phi, [(v, _blind(c)) for v, c in scopes(phi)])
    if not isinstance(phi, QStruct):
        return phi
    empty = FiniteStructure(phi.target.base.vocab, range(5))
    target = decorated(empty, [()] * len(phi.psis))
    return qstruct(target, phi.var, phi.yvars, phi.phi, phi.psis)


def _outcome(check, *args):
    try:
        r = check(*args)
    except (CapacityError, KappaError) as exc:
        return type(exc).__name__, str(exc)
    printed = None if r.formula is None else print_formula(r.formula)
    return r.ok, r.kind, printed, r.assignment, r.detail


def test_elem_checks_match_the_per_assignment_reference():
    # elem_F_star returns elem_F's report whenever that one fails, so comparing
    # the starred reports compares both checks
    seen = Counter()
    for name in GOOD_CLASSES:
        spec = BUILDERS[name]()
        sl = class_slice(spec, Caps(size=4))
        parts = sorted({m for n in sl.members for m in sl.parts(n)}, key=lambda m: m.key)
        blind = subformula_closure([_blind(s) for s in spec.theory.sentences])
        for m, n, kappa, frag in product(parts, sl.members, THRESHOLDS, (spec.fragment, blind)):
            got = _outcome(elem_F_star, m, n, frag, kappa)
            assert got == _outcome(reference_elem_F_star, m, n, frag, kappa), (name, m, n, kappa)
            seen[got[:2] if got[0] is not False else got[1]] += 1
    assert sum(seen.values()) == 12496
    assert set(seen) == {
        (True, "ok"),
        "not-substructure",
        "truth-disagreement",
        "solution-set-change",
        ("KappaError", "quantifier target of size 2 violates threshold Finite(2)"),
        ("KappaError", "quantifier target of size 3 violates threshold Finite(3)"),
        ("KappaError", "quantifier target of size 5 violates threshold Finite(2)"),
        ("KappaError", "quantifier target of size 5 violates threshold Finite(3)"),
    }


def test_kappa_is_checked_only_where_a_member_has_an_assignment():
    # every fragment member has the free variable x, so the empty part
    # assigns nothing and never meets the oversized target
    frag = subformula_closure(qstruct(chain(3), "y", (), Atomic("lt", (Var("y"), Var("x"))), ()))
    small = KappaThreshold.finite(2)
    c2 = chain(2)
    for check in (elem_F, elem_F_star, reference_elem_F, reference_elem_F_star):
        assert check(c2.induced(()), c2, frag, small).ok
        with pytest.raises(KappaError):
            check(c2.induced({0}), c2, frag, small)


def test_side_set_change_matches_the_reference():
    # the main set (elements below z) is the same in a part and its host,
    # the side set (elements above z) is not; the target matches neither
    lt = lambda a, b: Atomic("lt", (Var(a), Var(b)))  # noqa: E731
    target = decorated(FiniteStructure(chain(0).vocab, range(5)), [()])
    chi = qstruct(target, "x", ("y",), lt("x", "z"), (lt("z", "y"),))
    frag = subformula_closure(chi)
    c3 = chain(3)
    for part in ({0, 1}, {0, 2}, {1, 2}):
        for kappa in (UNBOUNDED, KappaThreshold.finite(7)):
            got = _outcome(elem_F_star, c3.induced(part), c3, frag, kappa)
            assert got == _outcome(reference_elem_F_star, c3.induced(part), c3, frag, kappa)
    assert _outcome(elem_F_star, c3.induced({0, 2}), c3, frag)[2:] == (
        print_formula(chi),
        (("z", 0),),
        "side solution set for 'y'",
    )
