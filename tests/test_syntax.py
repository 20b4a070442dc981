from __future__ import annotations

import itertools
import random

import pytest

from oracles import oracle_eval
from structlogic.errors import ArityError, KappaError, ShapeError
from structlogic.structures import FiniteStructure, decorated, enumerate_structures, normalize
from structlogic.syntax import (
    UNBOUNDED,
    And,
    Atomic,
    Equal,
    Exists,
    Forall,
    KappaThreshold,
    Not,
    Or,
    QStruct,
    Theory,
    Var,
    and_,
    audit_formula,
    check_kappa,
    children,
    free_vars,
    is_forall_qstruct,
    is_quantifier_free,
    or_,
    qstruct,
    rebuild,
    scopes,
    subformula_closure,
    substitute,
)
from structlogic.vocab import Vocabulary

LT = Vocabulary({"lt": 2})


def chain(n):
    return FiniteStructure(
        LT, range(n), {"lt": {(i, j) for i in range(n) for j in range(n) if i < j}}
    )


def lt(a, b):
    return Atomic("lt", (Var(a), Var(b)))


def test_free_vars_basic():
    assert free_vars(lt("x", "z")) == {"x", "z"}
    assert free_vars(Exists("x", lt("x", "z"))) == {"z"}
    assert free_vars(Forall("z", Exists("x", lt("x", "z")))) == set()


def test_free_vars_qstruct_binds_x_and_ys():
    target = decorated(chain(1), (frozenset({0}),))
    q = qstruct(target, "x", ("y",), lt("x", "z"), (lt("y", "z"),))
    assert free_vars(q) == {"z"}
    # shared parameters stay free even when they appear in several slots
    q2 = qstruct(chain(1), "x", (), And((lt("x", "z"), lt("x", "w"))), ())
    assert free_vars(q2) == {"z", "w"}


def test_qstruct_constructor_normalizes_target():
    raw = FiniteStructure(LT, [3, 8], {"lt": {(3, 8)}})
    q = qstruct(raw, "x", (), lt("x", "z"), ())
    assert sorted(q.target.base.universe) == [0, 1]
    assert q.target == normalize(q.target)


def test_qstruct_slot_counts_must_agree():
    with pytest.raises(ArityError):
        qstruct(decorated(chain(2), (frozenset({0}),)), "x", (), lt("x", "z"), ())
    with pytest.raises(ArityError):
        qstruct(chain(2), "x", ("y",), lt("x", "z"), ())


def test_and_or_reject_empty():
    with pytest.raises(ShapeError):
        and_()
    with pytest.raises(ShapeError):
        or_()
    assert and_(lt("x", "z")) == lt("x", "z")
    assert isinstance(and_(lt("x", "z"), lt("z", "x")), And)


def test_substitute_capture_avoidance():
    phi = Exists("x", lt("x", "z"))
    out = substitute(phi, "z", Var("x"))
    assert isinstance(out, Exists)
    assert out.var != "x"
    assert free_vars(out) == {"x"}


def test_substitute_into_qstruct_leaves_target_alone():
    q = qstruct(chain(2), "x", (), lt("x", "z"), ())
    out = substitute(q, "z", Var("w"))
    assert out.target == q.target
    assert free_vars(out) == {"w"}


def test_subformula_closure_contents():
    s = Forall("z", Exists("x", lt("x", "z")))
    t = Theory("t", LT, (s,))
    f = subformula_closure(t)
    members = set(f)
    assert s in members
    assert Exists("x", lt("x", "z")) in members
    assert lt("x", "z") in members
    assert len(members) == 3


def test_subformula_closure_enters_qstruct_slots():
    q = qstruct(decorated(chain(1), (frozenset({0}),)), "x", ("y",), lt("x", "z"), (lt("y", "z"),))
    t = Theory("t", LT, (Forall("z", q),))
    members = set(subformula_closure(t))
    assert q in members
    assert lt("x", "z") in members and lt("y", "z") in members


def test_subformula_closure_closed_under_children():
    t = Theory("t", LT, (Forall("z", Exists("x", lt("x", "z"))),))
    members = set(subformula_closure(t))
    for phi in members:
        for child in children(phi):
            assert child in members


def test_fragment_qstruct_members():
    q = qstruct(chain(1), "x", (), lt("x", "z"), ())
    t = Theory("t", LT, (Forall("z", q),))
    f = subformula_closure(t)
    assert list(f.qstruct_members()) == [q]


def test_is_forall_qstruct_accepts_guarded_disjunction():
    q0 = qstruct(chain(0), "x", (), lt("x", "z"), ())
    q1 = qstruct(chain(1), "x", (), lt("x", "z"), ())
    s = Forall("z", Or((q0, q1)))
    report = is_forall_qstruct(s)
    assert report.ok
    # a bare quantifier with no forall prefix still counts
    assert is_forall_qstruct(qstruct(chain(0), "x", (), Equal(Var("x"), Var("x")), ())).ok


def test_is_forall_qstruct_rejects_shapes():
    assert not is_forall_qstruct(Forall("z", lt("z", "z"))).ok
    # quantified matrix inside the quantifier's main slot
    bad = qstruct(chain(1), "x", (), Exists("w", lt("w", "x")), ())
    report = is_forall_qstruct(Forall("z", Or((bad,))))
    assert not report.ok and report.offender is not None
    # free variable under the prefix is fine, extra non-qstruct disjunct is not
    mixed = Forall("z", Or((qstruct(chain(1), "x", (), lt("x", "z"), ()), lt("z", "z"))))
    assert not is_forall_qstruct(mixed).ok


def test_is_quantifier_free():
    assert is_quantifier_free(And((lt("x", "z"), Not(lt("z", "x")))))
    assert not is_quantifier_free(Exists("x", lt("x", "z")))
    assert not is_quantifier_free(qstruct(chain(1), "x", (), lt("x", "z"), ()))


def test_kappa_threshold_gates_target_size():
    q = qstruct(chain(2), "x", (), lt("x", "z"), ())
    check_kappa(q, UNBOUNDED)
    check_kappa(q, KappaThreshold.finite(3))
    with pytest.raises(KappaError):
        check_kappa(q, KappaThreshold.finite(2))
    with pytest.raises(KappaError):
        KappaThreshold.finite(0)


def test_kappa_counts_as_small():
    k = KappaThreshold.finite(3)
    assert k.counts_as_small(2)
    assert not k.counts_as_small(3)
    assert UNBOUNDED.counts_as_small(10**6)


def test_audit_formula_checks_nested_targets():
    q = qstruct(chain(2), "x", (), lt("x", "z"), ())
    audit_formula(q)
    denormal = QStruct(
        decorated(FiniteStructure(LT, [4, 7], {"lt": {(4, 7)}}), ()),
        "x",
        (),
        lt("x", "z"),
        (),
    )
    with pytest.raises(ShapeError):
        audit_formula(denormal)


def test_substitute_free_vars_property():
    # closed form: fv(phi[v := t]) = (fv(phi) - {v}) | (vars(t) when v was free)
    import random

    from structlogic.syntax import term_vars

    rng = random.Random(7)
    pool = []
    for _ in range(100):
        a = lt(rng.choice("xyz"), rng.choice("xyzw"))
        b = lt(rng.choice("xyz"), rng.choice("xyzw"))
        phi = rng.choice(
            [a, Not(a), And((a, b)), Or((a, b)), Exists(rng.choice("xz"), a), Forall("z", And((a, b)))]
        )
        pool.append(phi)
    for phi in pool:
        v = rng.choice("xyzw")
        t = Var(rng.choice("xyzw"))
        out = substitute(phi, v, t)
        expected = set(free_vars(phi)) - {v}
        if v in free_vars(phi):
            expected |= term_vars(t)
        assert set(free_vars(out)) == expected, (phi, v, t, out)


# ---------------------------------------------------------------------------
# one walk: scopes / rebuild on random formulas with nested quantifier nodes

R = Vocabulary({"R": 2})
WALK_NAMES = ("x", "w", "v0")
WALK_TARGETS = list(enumerate_structures(R, 2, up_to_iso=True))


def _walk_formula(rng, depth):
    kind = rng.randrange(8 if depth else 2)
    a, b = rng.choice(WALK_NAMES), rng.choice(WALK_NAMES)
    if kind == 0:
        return Atomic("R", (Var(a), Var(b)))
    if kind == 1:
        return Equal(Var(a), Var(b))
    if kind == 2:
        return Not(_walk_formula(rng, depth - 1))
    if kind in (3, 4):
        items = (_walk_formula(rng, depth - 1), _walk_formula(rng, depth - 1))
        return And(items) if kind == 3 else Or(items)
    if kind == 5:
        return Exists(a, _walk_formula(rng, depth - 1))
    if kind == 6:
        return Forall(a, _walk_formula(rng, depth - 1))
    return _walk_qstruct(rng, depth)


def _walk_qstruct(rng, depth):
    base = rng.choice(WALK_TARGETS)
    n_sides = rng.randrange(3)
    subsets = tuple(
        frozenset(e for e in base.universe if rng.randrange(2)) for _ in range(n_sides)
    )
    return qstruct(
        decorated(base, subsets),
        rng.choice(WALK_NAMES),
        tuple(rng.choice(WALK_NAMES) for _ in range(n_sides)),
        _walk_formula(rng, depth - 1),
        tuple(_walk_formula(rng, depth - 1) for _ in range(n_sides)),
    )


def _walk_pool(count, seed, depth=3):
    rng = random.Random(seed)
    return [_walk_qstruct(rng, depth) for _ in range(count)]


def test_scopes_and_rebuild_round_trip_at_every_subformula():
    pool = _walk_pool(200, 11)
    members = subformula_closure(pool).formulas
    assert any(isinstance(q, QStruct) and q.psis for q in members)
    for phi in members:
        slots = scopes(phi)
        assert rebuild(phi, slots) == phi
        assert children(phi) == tuple(c for _, c in slots)


def test_substitution_is_sound_through_every_binder():
    # phi[v := w] under env agrees with phi under env with v sent to env[w],
    # on every structure up to size 3: a captured w would break this
    rng = random.Random(5)
    structures = list(enumerate_structures(R, 3, up_to_iso=True))
    renamed_at = set()
    for phi in _walk_pool(60, 31, depth=2):
        v, w = rng.sample(WALK_NAMES, 2)
        out = substitute(phi, v, Var(w))
        renamed_at |= {
            type(node)
            for node in subformula_closure(out).formulas
            for var, _ in scopes(node)
            if var is not None and var not in WALK_NAMES
        }
        variables = sorted(free_vars(phi) | {w})
        for n in structures:
            for values in itertools.product(sorted(n.universe), repeat=len(variables)):
                env = dict(zip(variables, values))
                assert oracle_eval(n, out, env) == oracle_eval(
                    n, phi, {**env, v: env[w]}
                ), (phi, v, w, env)
    # capture was avoided by renaming at every binder kind
    assert renamed_at == {Exists, Forall, QStruct}
