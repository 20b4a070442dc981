"""Command-line shell over the library.

Exit codes: 0 for success (and a true verdict), 1 for a failed verification
or a false verdict, 2 for usage and parse errors.  Everything written to
stdout is byte-identical across runs for fixed inputs and flags; wall-clock
timing is opt-in and goes to stderr only.

Each command imports the layers it runs when it runs, so a short command
does not load the class, closure and emission code it never calls.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import formats
from .errors import (
    EmissionError,
    IntersectionFailure,
    ShapeError,
    StructLogicError,
    UniversalityError,
)
from .syntax import (
    UNBOUNDED,
    KappaThreshold,
    QStruct,
    children,
    free_vars,
    subformula_closure,
)

# ---------------------------------------------------------------------------
# argument conversion


def _parse_kappa(text: str) -> KappaThreshold:
    if text == "unbounded":
        return UNBOUNDED
    try:
        return KappaThreshold.finite(int(text))
    except ValueError:
        raise ShapeError(f"--kappa takes a positive integer or 'unbounded', not {text!r}")


def _at_least_zero(text: str, noun: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"takes one {noun} of at least 0, not {text!r}")
    return int(text)


def _parse_caps(text: str):
    from .classspec import Caps

    return Caps(size=_at_least_zero(text, "size"))


def _parse_tuple_len(text: str) -> int:
    return _at_least_zero(text, "length")


def _parse_assignment(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    env: dict[str, int] = {}
    for piece in text.split(","):
        var, eq, value = piece.partition("=")
        if not eq or not var:
            raise ShapeError(f"--assign entries look like x=0, not {piece!r}")
        if var in env:
            raise ShapeError(f"--assign gives {var!r} more than one value")
        try:
            env[var] = int(value)
        except ValueError:
            raise ShapeError(f"assignment value {value!r} is not an integer")
    return env


def _parse_subset(text: str) -> frozenset[int]:
    if text in ("", "-"):
        return frozenset()
    try:
        return frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise ShapeError(f"subset is a comma-separated element list, not {text!r}")


def _require_qstruct(phi) -> QStruct:
    if not isinstance(phi, QStruct):
        raise ShapeError("this mode needs a structure-quantifier formula at top level")
    return phi


def _emit_report(report) -> int:
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# commands


def _subformula_walk(phi):
    """Pre-order walk, children left to right; a subformula that occurs more
    than once is visited at each occurrence."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def cli_eval(args) -> int:
    from .semantics import eval as eval_formula

    structure = formats.parse_structure(formats.read_text(args.structure))
    phi = formats.parse_formula(formats.read_text(args.formula))
    env = _parse_assignment(args.assign)
    kappa = _parse_kappa(args.kappa)
    if args.trace:
        for sub in _subformula_walk(phi):
            fv = free_vars(sub)
            if fv <= env.keys():
                sub_env = {v: env[v] for v in fv}
                value = eval_formula(structure, sub, sub_env, kappa)
                print(f"trace {'true' if value else 'false'} {formats.print_formula(sub)}")
    value = eval_formula(structure, phi, env, kappa)
    print("true" if value else "false")
    return 0 if value else 1


def cli_models(args) -> int:
    from .semantics import enumerate_models

    theory = formats.parse_theory(formats.read_text(args.theory))
    vocab = formats.parse_vocab(formats.read_text(args.vocab)) if args.vocab else theory.vocabulary
    kappa = _parse_kappa(args.kappa)
    count = 0
    for m in enumerate_models(theory, vocab, args.max_size, kappa, args.up_to_iso):
        print(formats.print_structure(m))
        count += 1
    print(f"count {count}")
    return 0


def cli_elem(args) -> int:
    from .semantics import elem_F, elem_F_star

    n1 = formats.parse_structure(formats.read_text(args.struct1))
    n2 = formats.parse_structure(formats.read_text(args.struct2))
    theory = formats.parse_theory(formats.read_text(args.theory))
    fragment = subformula_closure(theory)
    kappa = _parse_kappa(args.kappa)
    check = elem_F_star if args.star else elem_F
    report = check(n1, n2, fragment, kappa)
    print(f"verdict {'true' if report.ok else 'false'}")
    if not report.ok:
        print(f"reason {report.kind}")
        if report.formula is not None:
            print(f"witness-formula {formats.print_formula(report.formula)}")
        if report.assignment is not None:
            pairs = " ".join(f"{var}={value}" for var, value in report.assignment)
            print(f"witness-assignment {pairs or '-'}")
        if report.detail:
            print(f"detail {report.detail}")
    return 0 if report.ok else 1


def cli_closure(args) -> int:
    from .classspec import load_class_spec
    from .closure import cl

    structure = formats.parse_structure(formats.read_text(args.structure))
    subset = _parse_subset(args.subset)
    spec = load_class_spec(args.spec)
    caps = args.caps
    result = cl(structure, subset, spec, caps)
    print(formats.print_structure(result.structure))
    print(f"strong-submodel {'true' if result.is_strong else 'false'}")
    return 0


def cli_verify(args) -> int:
    from .classspec import check_class_properties, check_coherence, load_class_spec
    from .closure import check_cl_coherence, verify_intersections

    spec = load_class_spec(args.spec)
    caps = args.caps
    if args.check == "intersections":
        report = verify_intersections(spec, caps)
    elif args.check == "cl-coherence":
        report = check_cl_coherence(spec, caps)
    elif args.check == "coherence":
        report = check_coherence(spec, caps)
    else:
        report = check_class_properties(spec, caps)
    report.command = f"verify --check {args.check} {os.path.basename(args.spec)}"
    return _emit_report(report)


def cli_emit(args) -> int:
    import hashlib
    import json

    from .axiomatizer import emit_aq_theory
    from .classspec import load_class_spec

    spec = load_class_spec(args.spec)
    caps = args.caps
    try:
        theory, catalog = emit_aq_theory(spec, caps=caps)
    except (IntersectionFailure, EmissionError) as err:
        print(f"emission failed: {err}", file=sys.stderr)
        return 1
    with open(args.spec, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    counts = json.dumps(catalog.counts(), sort_keys=True)
    header = (
        f"; source {os.path.basename(args.spec)} sha256 {digest}\n"
        f"; caps size {caps.size} arity {caps.size} pair {caps.size}\n"
        f"; catalog {counts}\n"
    )
    text = header + formats.print_theory(theory)
    summary = f"sentences {len(theory.sentences)} catalog {counts}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def cli_roundtrip(args) -> int:
    from .axiomatizer import emit_aq_theory, verify_presentation
    from .classspec import load_class_spec
    from .reports import FAIL, VerificationReport

    spec = load_class_spec(args.spec)
    caps = args.caps
    command = f"roundtrip {os.path.basename(args.spec)}"
    try:
        theory, catalog = emit_aq_theory(spec, caps=caps)
        report = verify_presentation(spec, theory, caps=caps, catalog=catalog)
    except (IntersectionFailure, EmissionError, UniversalityError) as err:
        report = VerificationReport(command=command, caps={"size": caps.size})
        report.add(
            "emission",
            FAIL,
            witnesses=[{"kind": "error", "label": "message", "value": str(err)}],
        )
    report.command = command
    return _emit_report(report)


def cli_translate(args) -> int:
    from .translate import (
        eliminate_subvocab,
        qstruct_to_counting,
        scott_sentence,
        univ_gen_rewrite,
    )

    phi = formats.parse_formula(formats.read_text(args.formula))
    kappa = _parse_kappa(args.kappa)
    if args.mode == "univ-gen":
        out = univ_gen_rewrite(phi)
    elif args.mode == "no-subvocab":
        if not args.vocab:
            raise ShapeError("--vocab names the wider vocabulary for this mode")
        out = eliminate_subvocab(
            _require_qstruct(phi), formats.parse_vocab(formats.read_text(args.vocab))
        )
    elif args.mode == "counting":
        out = qstruct_to_counting(_require_qstruct(phi), kappa)
    else:  # scott: exact-diagram sentence of the quantifier's target
        out = scott_sentence(_require_qstruct(phi).target).formula
    text = formats.print_formula(out) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cli_dk(args) -> int:
    import json

    from .classspec import load_class_spec
    from .closure import enumerate_DK

    spec = load_class_spec(args.spec)
    caps = args.caps
    reps = enumerate_DK(spec, max_tuple_len=args.tuple_len, caps=caps)
    counts: dict[str, int] = {}
    for rep in reps:
        anchor = ",".join(str(e) for e in rep.anchor) or "-"
        print(f"dk len {len(rep.anchor)} anchor {anchor} {formats.print_structure(rep.model)}")
        counts[str(len(rep.anchor))] = counts.get(str(len(rep.anchor)), 0) + 1
    print(f"counts {json.dumps(counts, sort_keys=True)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structlogic",
        description="Finite-structure logic tools: evaluate, sweep, verify, emit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, caps=False, kappa=False):
        p.add_argument("--timing", action="store_true", help="wall time to stderr")
        if caps:
            # argparse runs a string default through its type, so no Caps is
            # built, and classspec not imported, until a command needs one
            p.add_argument(
                "--caps", type=_parse_caps, default="4", metavar="SIZE", help="size cap"
            )
        if kappa:
            p.add_argument("--kappa", default="unbounded", help="positive int or 'unbounded'")

    p = sub.add_parser("eval", help="truth of a formula in a structure")
    p.add_argument("structure")
    p.add_argument("formula")
    p.add_argument("--assign", default="", help="comma-separated var=element pairs")
    p.add_argument("--trace", action="store_true", help="per-subformula truth lines")
    common(p, kappa=True)
    p.set_defaults(fn=cli_eval)

    p = sub.add_parser("models", help="models of a theory up to a size bound")
    p.add_argument("theory")
    p.add_argument("--vocab", help="vocabulary file; default: the theory's")
    p.add_argument("--max-size", type=lambda text: _at_least_zero(text, "size"), default=4)
    p.add_argument("--up-to-iso", action="store_true")
    common(p, kappa=True)
    p.set_defaults(fn=cli_models)

    p = sub.add_parser("elem", help="fragment elementarity of a substructure pair")
    p.add_argument("struct1")
    p.add_argument("struct2")
    p.add_argument("theory", help="theory whose subformula closure is the fragment")
    p.add_argument("--star", action="store_true", help="also freeze small solution sets")
    common(p, kappa=True)
    p.set_defaults(fn=cli_elem)

    p = sub.add_parser("closure", help="closure of a subset inside a class member")
    p.add_argument("structure")
    p.add_argument("subset", help="comma-separated elements; '-' for the empty set")
    p.add_argument("spec", help="class spec file")
    common(p, caps=True)
    p.set_defaults(fn=cli_closure)

    p = sub.add_parser("verify", help="run one verification sweep over a class spec")
    p.add_argument("spec")
    p.add_argument(
        "--check",
        required=True,
        choices=["intersections", "coherence", "axioms", "cl-coherence"],
    )
    common(p, caps=True)
    p.set_defaults(fn=cli_verify)

    p = sub.add_parser("emit", help="emit the guarded-quantifier presentation")
    p.add_argument("spec")
    p.add_argument("--out", help="write the theory file here instead of stdout")
    common(p, caps=True)
    p.set_defaults(fn=cli_emit)

    p = sub.add_parser("roundtrip", help="emit then verify the presentation")
    p.add_argument("spec")
    common(p, caps=True)
    p.set_defaults(fn=cli_roundtrip)

    p = sub.add_parser("translate", help="rewrite a formula in one of four modes")
    p.add_argument("formula")
    p.add_argument(
        "--mode",
        required=True,
        choices=["univ-gen", "no-subvocab", "counting", "scott"],
    )
    p.add_argument("--vocab", help="wider vocabulary file (no-subvocab mode)")
    p.add_argument("--out", help="write the result here instead of stdout")
    common(p, kappa=True)
    p.set_defaults(fn=cli_translate)

    p = sub.add_parser("dk", help="anchored-type representatives with counts")
    p.add_argument("spec")
    p.add_argument("--tuple-len", type=_parse_tuple_len, default=2)
    common(p, caps=True)
    p.set_defaults(fn=cli_dk)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except StructLogicError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    if args.timing:
        print(f"wall_ms {int((time.monotonic() - start) * 1000)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
