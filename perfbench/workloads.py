"""Seeded inputs, jobs and verdict checks for the three workloads.

A workload's inputs depend only on the seed.  Building them is set-up; each
job is one call into the library whose result (its verdict) is checked after
the timed pass against known.py or against an independent route.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import os
import random
import sys
from dataclasses import dataclass

import known

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOOD_CLASSES = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")


@dataclass
class Job:
    name: str
    run: object  # zero-argument callable returning the verdict
    deadline_s: float


@dataclass
class Inputs:
    jobs: list[Job]
    digest: str  # sha256 over a printed form of every input
    check: object  # callable(verdicts: dict) -> dict[job name, reason]
    true_share: object = None  # callable(verdicts) -> (true verdicts, verdicts)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def load_oracles():
    """tests/oracles.py, imported read-only (no bytecode written under tests/)."""
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def spread_out(major: list, minor: list) -> list:
    """major in order, with minor's items dealt evenly into the gaps after each.

    The short jobs that decide the median job time then run throughout the
    pass instead of in one block, so one burst of load on the machine cannot
    slow all of them at once.  Every job is independent of the others' order.
    """
    out = []
    for i, item in enumerate(major):
        out.append(item)
        out.extend(minor[i * len(minor) // len(major) : (i + 1) * len(minor) // len(major)])
    return out


def relabeled(rng: random.Random, s, low: int = 10):
    """Copy of s on fresh, shuffled element ids from low..low+89, so caches
    keyed on the structure cannot match it."""
    from structlogic.structures import relabel

    ids = rng.sample(range(low, low + 90), s.size)
    return relabel(s, dict(zip(sorted(s.universe), ids)))


# ---------------------------------------------------------------------------
# iso-enum: canonical labelling and isomorph-free generation


def iso_enum(seed: int) -> Inputs:
    from structlogic.corpus import BUILDERS, bare_set, chain, clique_with_loops
    from structlogic.formats import print_structure
    from structlogic.structures import FiniteStructure, enumerate_structures, normalize
    from structlogic.vocab import Vocabulary

    rng = random.Random(seed)
    binary = Vocabulary({"R": 2})
    classes = {name: BUILDERS[name]() for name in GOOD_CLASSES}
    jobs = [
        Job(
            "enumerate-binary-4",
            lambda: sum(1 for _ in enumerate_structures(binary, 4, up_to_iso=True)),
            60.0,
        )
    ]
    expected = {"enumerate-binary-4": known.BINARY_TYPES_UP_TO_4}
    for name, spec in classes.items():
        cap, count = known.MEMBERS[name]
        jobs.append(Job(f"members{cap}-{name}", lambda s=spec, c=cap: len(s.members(c)), 60.0))
        expected[f"members{cap}-{name}"] = count

    pairs = []
    # random digraphs separate refinement from pruning: few automorphisms.
    # The size-7 pairs, bare set 8 and chain 7 form the middle group of job
    # times, and the median job falls inside it rather than at a gap.  Each
    # digraph has exactly half of all possible edges, because labelling cost
    # grows with the edge count and should not change from seed to seed.
    for size, count in ((6, 2), (7, 10)):
        cells = list(itertools.product(range(size), repeat=2))
        for i in range(count):
            rows = set(rng.sample(cells, len(cells) // 2))
            pairs.append((f"canon-random-{size}-{i}", FiniteStructure(binary, range(size), {"R": rows})))
    # symmetric inputs have large automorphism groups (cost is seed-free)
    for builder, sizes in ((bare_set, (6, 7, 8)), (clique_with_loops, (6, 7)), (chain, (6, 7))):
        for size in sizes:
            pairs.append((f"canon-{builder.__name__}-{size}", builder(size)))
    printed = [print_structure(s) for _, s in pairs]
    canon = []
    for name, s in pairs:
        copy = relabeled(rng, s)
        printed.append(print_structure(copy))
        canon.append(
            Job(name, lambda s=s, copy=copy: normalize(s).key == normalize(copy).key, 30.0)
        )
        expected[name] = True
    rng.shuffle(canon)
    jobs = spread_out(jobs, canon)

    def check(verdicts):
        return {
            name: f"got {verdicts.get(name)!r}, expected {want!r}"
            for name, want in expected.items()
            if verdicts.get(name) != want
        }

    return Inputs(jobs, digest(printed), check)


# ---------------------------------------------------------------------------
# eval-sweep: the evaluator over seeded formulas, each on structures no other job sees


def _binary_atoms(a, b):
    from structlogic.syntax import Atomic, Equal, Exists, Var, and_

    r = lambda p, q: Atomic("R", (Var(p), Var(q)))  # noqa: E731
    return [
        r(a, a),
        r(a, b),
        r(b, a),
        Equal(Var(a), Var(b)),
        Exists("w", r("w", a)),
        Exists("w", r(a, "w")),
        Exists("w", and_(r(a, "w"), r("w", b))),
    ]


def _function_atoms(a, b):
    from structlogic.syntax import App, Equal, Exists, Var

    f = lambda t: App("f", (t,))  # noqa: E731
    return [
        Equal(f(Var(a)), Var(a)),
        Equal(f(Var(a)), Var(b)),
        Equal(f(Var(b)), Var(a)),
        Equal(f(f(Var(a))), Var(a)),
        Equal(Var(a), Var(b)),
        Exists("w", Equal(f(Var("w")), Var(a))),
        Equal(f(Var(a)), f(Var(b))),
    ]


def _combine(rng, atoms):
    """A recipe: shape and atom indices, instantiated later for any variable."""
    return rng.randrange(5), rng.randrange(len(atoms)), rng.randrange(len(atoms))


def _build(recipe, atoms):
    from structlogic.syntax import And, Not, Or

    shape, i, j = recipe
    a, b = atoms[i], atoms[j]
    return (a, Not(a), And((a, b)), Or((a, b)), Or((Not(a), b)))[shape]


def _random_structure(rng, vocab, size):
    from structlogic.structures import FiniteStructure

    if vocab.relations:
        rows = {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.35}
        return FiniteStructure(vocab, range(size), {"R": rows})
    table = {(a,): rng.randrange(size) for a in range(size)}
    return FiniteStructure(vocab, range(size), functions={"f": table})


def _sentence(rng, atoms_of, depth):
    """Plain first-order sentence with `depth` nested quantifiers."""
    from structlogic.syntax import And, Exists, Forall, Or

    def rec(level, bound):
        if level == depth:
            a, b = rng.choice(bound), rng.choice(bound)
            return _build(_combine(rng, atoms_of(a, b)), atoms_of(a, b))
        v = f"x{level}"
        inner = rec(level + 1, [*bound, v])
        if bound and rng.random() < 0.5:
            a = rng.choice(bound)
            guard = rng.choice(atoms_of(a, v))
            inner = (And if rng.random() < 0.5 else Or)((guard, inner))
        return (Exists if rng.random() < 0.5 else Forall)(v, inner)

    return rec(0, [])


STRUCTURES_PER_SIZE = 3
QSTRUCT_PER_VOCAB = 90
SENTENCES_PER_VOCAB = 60
SENTENCE_DEPTH = 4
TARGET_MAX = 3


def eval_sweep(seed: int) -> Inputs:
    from structlogic.formats import print_formula, print_structure
    from structlogic.semantics import eval as eval_formula
    from structlogic.semantics import models, solution_set
    from structlogic.structures import decorated
    from structlogic.syntax import And, Theory, UNBOUNDED, qstruct
    from structlogic.translate import qstruct_to_counting
    from structlogic.vocab import Vocabulary

    oracles = load_oracles()
    rng = random.Random(seed)
    id_rng = random.Random(f"{seed}-ids")
    blocks = itertools.count(1)

    def fresh(structures):
        """The structures on element ids no other job uses.  Every lru cache
        of the evaluator is keyed on the structure, so no job can hit an entry
        that an earlier job left; each job pays its whole evaluation."""
        low = 100 * next(blocks)
        return [relabeled(id_rng, s, low) for s in structures]

    jobs: list[Job] = []
    printed: list[str] = []
    formulas = {}  # job name -> (kind, formula, structures)
    for vocab, atoms_of in (
        (Vocabulary({"R": 2}), _binary_atoms),
        (Vocabulary(functions={"f": 1}), _function_atoms),
    ):
        tag = "R" if vocab.relations else "f"
        structures = [
            _random_structure(rng, vocab, size)
            for size in range(1, 7)
            for _ in range(STRUCTURES_PER_SIZE)
        ]
        printed += [print_structure(s) for s in structures]
        made = 0
        while made < QSTRUCT_PER_VOCAB:
            # draw the target from a solution set inside one evaluated
            # structure, so the quantifier holds there and the share of true
            # verdicts stays far from zero
            host = rng.choice(structures)
            e = rng.choice(sorted(host.universe))
            main = _combine(rng, atoms_of("x", "z"))
            body = _build(main, atoms_of("x", "z"))
            sol = frozenset(
                a for a in host.universe if oracles.oracle_eval(host, body, {"x": a, "z": e})
            )
            # equal quotas of target sizes 1..TARGET_MAX keep the cost of a
            # pass nearly the same from seed to seed
            if len(sol) != made % TARGET_MAX + 1 or not host.is_closed_subset(sol):
                continue
            if rng.random() < 0.5:
                extra = rng.choice(atoms_of("y", "z"))
                psi = And((_build(main, atoms_of("y", "z")), extra))
                side = frozenset(
                    a for a in sol if oracles.oracle_eval(host, psi, {"y": a, "z": e})
                )
                q = qstruct(decorated(host.induced(sol), (side,)), "x", ("y",), body, (psi,))
            else:
                q = qstruct(host.induced(sol), "x", (), body, ())
            # the counting twin is checked against the quantifier's verdicts,
            # so both see the same copies
            own = fresh(structures)
            formulas[f"qstruct-{tag}-{made}"] = ("qstruct", q, own)
            formulas[f"counting-{tag}-{made}"] = (
                "counting",
                qstruct_to_counting(q, UNBOUNDED),
                own,
            )
            made += 1
        for i in range(SENTENCES_PER_VOCAB):
            sentence = _sentence(rng, atoms_of, SENTENCE_DEPTH)
            formulas[f"sentence-{tag}-{i}"] = (
                "sentence",
                Theory(f"sentence-{tag}-{i}", vocab, (sentence,)),
                fresh(structures),
            )

    def run_qstruct(q, structures):
        # solution set over the free parameter z, one per structure
        return tuple(tuple(sorted(solution_set(s, q, "z"))) for s in structures)

    def run_counting(phi, structures):
        return tuple(
            tuple(e for e in sorted(s.universe) if eval_formula(s, phi, {"z": e}))
            for s in structures
        )

    def run_sentence(theory, structures):
        return tuple(models(s, theory) for s in structures)

    runners = {"qstruct": run_qstruct, "counting": run_counting, "sentence": run_sentence}
    for name, (kind, phi, structures) in formulas.items():
        text = print_formula(phi.sentences[0] if kind == "sentence" else phi)
        printed.append(text)
        jobs.append(Job(name, lambda r=runners[kind], p=phi, ss=structures: r(p, ss), 10.0))

    def check(verdicts):
        """Counting translations agree with their quantifier; an oracle
        re-checks every sentence and a seeded sample of quantifier verdicts."""
        bad = {}
        sample = random.Random(seed + 1)
        for name, (kind, phi, structures) in formulas.items():
            got = verdicts.get(name)
            if not isinstance(got, tuple):
                continue  # raised; already failed
            if kind == "counting":
                twin = verdicts.get(name.replace("counting", "qstruct", 1))
                if got != twin:
                    bad[name] = "counting translation disagrees with its quantifier"
            elif kind == "sentence":
                want = tuple(oracles.oracle_eval(s, phi.sentences[0], {}) for s in structures)
                if got != want:
                    bad[name] = f"oracle says {want}, got {got}"
            else:
                for s, sol in zip(structures, got):
                    e = sample.choice(sorted(s.universe))
                    if oracles.oracle_eval(s, phi, {"z": e}) != (e in sol):
                        bad[name] = f"oracle disagrees at size {s.size}, z={e}"
                        break
        return bad

    def true_share(verdicts):
        trues = total = 0
        for name, (kind, _phi, structures) in formulas.items():
            got = verdicts.get(name)
            if not isinstance(got, tuple):
                continue
            if kind == "sentence":
                trues += sum(got)
                total += len(got)
            else:
                trues += sum(len(sol) for sol in got)
                total += sum(s.size for s in structures)
        return trues, total

    return Inputs(jobs, digest(printed), check, true_share)


# ---------------------------------------------------------------------------
# class-pipeline: one fresh interpreter per CLI command or library call


@dataclass
class ProcJob:
    name: str
    argv: list[str]  # after `python -m structlogic.cli`, or a launch.py library job
    library: bool = False
    expect_exit: int = 0
    check: object = None  # callable(stdout text) -> reason or None
    deadline_s: float = 30.0


def _random_member(rng, cls):
    """A member of the named class on shuffled ids, built without the engine."""
    from structlogic.corpus import GRAPH_VOCAB, ORDER_VOCAB, PRED_VOCAB
    from structlogic.structures import FiniteStructure

    size = 4
    ids = rng.sample(range(10, 100), size)
    if cls == "linear-orders":
        rows = {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]}
        return FiniteStructure(ORDER_VOCAB, ids, {"lt": rows})
    if cls == "triangle-free":
        edges: set = set()
        for a, b in itertools.combinations(ids, 2):
            if rng.random() < 0.5 and not any(
                (a, c) in edges and (b, c) in edges for c in ids
            ):
                edges |= {(a, b), (b, a)}
        return FiniteStructure(GRAPH_VOCAB, ids, {"E": edges})
    if cls == "frozen-predicate":
        return FiniteStructure(PRED_VOCAB, ids, {"P": {(a,) for a in ids if rng.random() < 0.5}})
    rest = list(ids)
    rng.shuffle(rest)
    rows = set()
    while rest:
        block = [rest.pop()] + ([rest.pop()] if rest and rng.random() < 0.5 else [])
        rows |= {(a, b) for a in block for b in block}
    return FiniteStructure(GRAPH_VOCAB, ids, {"E": rows})


def _line_check(want: str):
    def check(out: str):
        return None if want in out.splitlines() else f"missing line {want!r}"

    return check


# Seeded one-shot closure and elem queries per class: interpreter start-up
# dominates them, and they are the most numerous jobs, so the median job time
# measures what a user pays for one short command.
QUERIES_PER_CLASS = 2


def class_pipeline(seed: int, workdir: str) -> tuple[list[ProcJob], str]:
    """The job list, writing seeded input files under workdir."""
    from structlogic.corpus import BUILDERS, corpus_path
    from structlogic.formats import print_structure, print_theory

    rng = random.Random(seed)
    jobs: list[ProcJob] = []
    for name, caps in (
        ("linear-orders", "4"),
        ("bounded-blocks", "3"),
        ("frozen-predicate", "4"),
        ("triangle-free", "3"),
    ):
        jobs.append(
            ProcJob(f"verify-axioms-{name}", ["verify", corpus_path(name), "--check", "axioms", "--caps", caps])
        )
    for check in ("intersections", "cl-coherence"):
        jobs.append(
            ProcJob(
                f"verify-{check}-linear-orders",
                ["verify", corpus_path("linear-orders"), "--check", check, "--caps", "4"],
            )
        )
    jobs.append(
        ProcJob(
            "verify-broken-intersections",
            ["verify", corpus_path("broken-intersections"), "--check", "intersections"],
            expect_exit=known.EXIT_CODES["verify-broken-intersections"],
        )
    )
    jobs.append(
        ProcJob(
            "verify-broken-coherence",
            ["verify", corpus_path("broken-coherence"), "--check", "cl-coherence"],
            expect_exit=known.EXIT_CODES["verify-broken-coherence"],
        )
    )
    for name in ("linear-orders", "bounded-blocks"):
        jobs.append(
            ProcJob(
                f"roundtrip-{name}",
                ["roundtrip", corpus_path(name), "--caps", "3"],
                check=_line_check('{"result": "pass"}'),
            )
        )
    jobs.append(
        ProcJob(
            "dk-linear-orders",
            ["dk", corpus_path("linear-orders"), "--caps", "3", "--tuple-len", "1"],
            check=_line_check(f"counts {known.DK_LINEAR_ORDERS_CAPS3_LEN1}"),
        )
    )
    jobs.append(ProcJob("dk-triangle-free", ["dk", corpus_path("triangle-free"), "--caps", "3"]))
    jobs.append(ProcJob("lib-galois-morleyization", ["galois", "linear-orders", "3"], library=True))
    jobs.append(ProcJob("lib-dual-route", ["dual-route", "triangle-free", "3"], library=True))
    jobs.append(
        ProcJob(
            "lib-mutation",
            ["mutation", "linear-orders", "3"],
            library=True,
            check=_line_check(f"first-failing {known.MUTATION_CAUGHT_BY}"),
        )
    )

    printed = []
    queries: list[ProcJob] = []
    for cls in GOOD_CLASSES:
        theory_path = os.path.join(workdir, f"{cls}.theory.sexp")
        with open(theory_path, "w", encoding="utf-8") as fh:
            fh.write(print_theory(BUILDERS[cls]().theory) + "\n")
        for k in range(QUERIES_PER_CLASS):
            member = _random_member(rng, cls)
            elems = sorted(member.universe)
            seed_set = frozenset(rng.sample(elems, rng.randrange(1, 3)))
            part = frozenset(e for e in elems if rng.random() < 0.6) or frozenset(elems[:1])
            paths = {}
            for label, s in (("member", member), ("part", member.induced(part))):
                paths[label] = os.path.join(workdir, f"{cls}-{k}.{label}.sexp")
                with open(paths[label], "w", encoding="utf-8") as fh:
                    fh.write(print_structure(s) + "\n")
                printed.append(print_structure(s))
            printed.append(f"{cls} seed {sorted(seed_set)}")
            closed = member.induced(known.closure_rule(cls, member, seed_set))
            want_closure = [print_structure(closed), "strong-submodel true"]
            queries.append(
                ProcJob(
                    f"closure-{cls}-{k}",
                    ["closure", paths["member"], ",".join(map(str, sorted(seed_set))), corpus_path(cls)],
                    check=lambda out, want=want_closure: None
                    if out.splitlines() == want
                    else f"expected {want}",
                )
            )
            strong = known.order_rule(cls, member, part)
            queries.append(
                ProcJob(
                    f"elem-{cls}-{k}",
                    ["elem", paths["part"], paths["member"], theory_path, "--star"],
                    expect_exit=0 if strong else 1,
                    check=_line_check(f"verdict {'true' if strong else 'false'}"),
                )
            )
    return spread_out(jobs, queries), digest(printed)
