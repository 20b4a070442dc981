"""Independent reference implementations the suite checks the library against.

Everything here recomputes truth from first principles: candidate universes
are enumerated as raw subsets, isomorphisms are sought by trying every
bijection, and nothing is shared with the evaluator or the canonical-labeling
machinery under test.  Only the frozen data model (AST nodes, relation and
function tables) is reused.
"""

from __future__ import annotations

import itertools

from structlogic.syntax import (
    And,
    App,
    Atomic,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    QStruct,
    Var,
)


def term_value(n, t, env):
    if isinstance(t, Var):
        return env[t.name]
    return n.fun(t.fun)[tuple(term_value(n, s, env) for s in t.args)]


def oracle_eval(n, phi, env):
    """Recursive truth; the structure quantifier is brute-forced."""
    if isinstance(phi, Atomic):
        return tuple(term_value(n, t, env) for t in phi.terms) in n.rel(phi.rel)
    if isinstance(phi, Equal):
        return term_value(n, phi.left, env) == term_value(n, phi.right, env)
    if isinstance(phi, Not):
        return not oracle_eval(n, phi.body, env)
    if isinstance(phi, And):
        return all(oracle_eval(n, p, env) for p in phi.items)
    if isinstance(phi, Or):
        return any(oracle_eval(n, p, env) for p in phi.items)
    if isinstance(phi, Exists):
        return any(oracle_eval(n, phi.body, {**env, phi.var: e}) for e in n.universe)
    if isinstance(phi, Forall):
        return all(oracle_eval(n, phi.body, {**env, phi.var: e}) for e in n.universe)
    if isinstance(phi, QStruct):
        return _oracle_qstruct(n, phi, env)
    raise TypeError(f"unknown formula node {type(phi).__name__}")


def _solutions(n, phi, var, env):
    return frozenset(e for e in n.universe if oracle_eval(n, phi, {**env, var: e}))


def _oracle_qstruct(n, q, env):
    main = _solutions(n, q.phi, q.var, env)
    sides = [_solutions(n, psi, y, env) for y, psi in zip(q.yvars, q.psis)]
    if any(not s <= main for s in sides):
        return False
    target = q.target.base
    tau0 = target.vocab
    elems = sorted(n.universe)
    for size in range(len(elems) + 1):
        for subset in itertools.combinations(elems, size):
            if frozenset(subset) != main:
                continue
            if _matches(n, tau0, list(subset), sides, target, q.target.subsets):
                return True
    return False


def _matches(n, tau0, subset, sides, target, target_subsets):
    """Some bijection of subset onto the target is a full isomorphism."""
    if len(subset) != target.size:
        return False
    # the subset must support a tau0-substructure at all
    for fname in tau0.function_names():
        arity = tau0.fun_arity(fname)
        table = n.fun(fname)
        for args in itertools.product(subset, repeat=arity):
            if table[args] not in subset:
                return False
    codomain = sorted(target.universe)
    for image in itertools.permutations(codomain):
        f = dict(zip(subset, image))
        if _is_iso(n, tau0, subset, f, target) and all(
            frozenset(f[e] for e in side) == frozenset(sub)
            for side, sub in zip(sides, target_subsets)
        ):
            return True
    return False


def _is_iso(n, tau0, subset, f, target):
    for rname in tau0.relation_names():
        arity = tau0.rel_arity(rname)
        rows_n = n.rel(rname)
        rows_t = target.rel(rname)
        for args in itertools.product(subset, repeat=arity):
            if (args in rows_n) != (tuple(f[a] for a in args) in rows_t):
                return False
    for fname in tau0.function_names():
        arity = tau0.fun_arity(fname)
        table_n = n.fun(fname)
        table_t = target.fun(fname)
        for args in itertools.product(subset, repeat=arity):
            if f[table_n[args]] != table_t[tuple(f[a] for a in args)]:
                return False
    return True


def brute_isomorphic(a, b):
    """Bijection search, no canonical labeling involved."""
    if a.vocab != b.vocab or a.size != b.size:
        return False
    src = sorted(a.universe)
    for image in itertools.permutations(sorted(b.universe)):
        f = dict(zip(src, image))
        if _is_iso_full(a, b, f):
            return True
    return False


def _is_iso_full(a, b, f):
    for rname in a.vocab.relation_names():
        arity = a.vocab.rel_arity(rname)
        rows_b = b.rel(rname)
        for args in itertools.product(sorted(a.universe), repeat=arity):
            if (args in a.rel(rname)) != (tuple(f[x] for x in args) in rows_b):
                return False
    for fname in a.vocab.function_names():
        arity = a.vocab.fun_arity(fname)
        for args in itertools.product(sorted(a.universe), repeat=arity):
            if f[a.fun(fname)[args]] != b.fun(fname)[tuple(f[x] for x in args)]:
                return False
    return True


def is_decorated_isomorphism(a, b, f):
    """f is a bijection of a's universe onto b's that carries every relation,
    function and distinguished subset of the decorated structure a exactly
    onto b's."""
    if a.base.vocab != b.base.vocab or len(a.subsets) != len(b.subsets):
        return False
    if set(f) != a.base.universe or sorted(f.values()) != sorted(b.base.universe):
        return False
    return _is_iso_full(a.base, b.base, f) and all(
        frozenset(f[e] for e in sa) == sb for sa, sb in zip(a.subsets, b.subsets)
    )


def brute_decorated_isomorphic(a, b):
    if a.base.size != b.base.size:
        return False
    src = sorted(a.base.universe)
    return any(
        is_decorated_isomorphism(a, b, dict(zip(src, image)))
        for image in itertools.permutations(sorted(b.base.universe))
    )
