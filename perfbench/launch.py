"""Run one class-pipeline job in this fresh interpreter, optionally traced.

    python3 perfbench/launch.py [--trace PREFIX --launched T] cli ARGS...
    python3 perfbench/launch.py [--trace PREFIX --launched T] galois|dual-route|mutation CLASS CAPS

`cli` hands ARGS to structlogic's command-line entry point.  The library jobs
call the API directly: the anchored-type expansion, the universal-class dual
route (forbidden diagrams and the specialised presentation must both rebuild
the member set), and a one-disjunct mutation of an emitted presentation,
which the round trip must catch.  With --trace, spans are written to
PREFIX.spans and their summary to PREFIX.json; T is the parent's
time.monotonic() just before it started this process.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _drop_one_disjunct(theory):
    """The first universally quantified disjunction loses its first disjunct."""
    from structlogic.syntax import Forall, Or, Theory, or_

    for i, s in enumerate(theory.sentences):
        prefix = []
        body = s
        while isinstance(body, Forall):
            prefix.append(body.var)
            body = body.body
        if isinstance(body, Or) and len(body.items) > 1:
            mutated = or_(*body.items[1:])
            for v in reversed(prefix):
                mutated = Forall(v, mutated)
            sentences = list(theory.sentences)
            sentences[i] = mutated
            return Theory(f"{theory.name}-mutated", theory.vocabulary, tuple(sentences))
    raise ValueError("no multi-disjunct sentence to mutate")


def library_job(kind: str, cls: str, caps_text: str) -> int:
    from structlogic.axiomatizer import (
        emit_aq_theory,
        galois_morleyization,
        tarski_specialize,
        tarski_universal_theory,
        verify_presentation,
    )
    from structlogic.classspec import Caps
    from structlogic.corpus import load_corpus_class
    from structlogic.semantics import enumerate_models
    from structlogic.structures import normalize

    spec = load_corpus_class(cls)
    caps = Caps(size=int(caps_text))
    if kind == "galois":
        mmap, report = galois_morleyization(spec, caps=caps)
        print(f"type-relations {len(mmap.reps)}")
        sys.stdout.write(report.render())
        return 0
    if kind == "dual-route":
        wanted = {normalize(m).key for m in spec.members(caps.size)}
        univ = tarski_universal_theory(spec, caps)
        emitted, catalog = emit_aq_theory(spec, caps=caps)
        special = tarski_specialize(emitted, catalog, spec.vocabulary)
        routes = {}
        for label, theory in (("universal", univ), ("specialized", special)):
            found = enumerate_models(theory, max_size=caps.size, up_to_iso=True)
            routes[label] = {normalize(m).key for m in found}
            print(f"{label} sentences {len(theory.sentences)} models {len(routes[label])}")
        agree = all(produced == wanted for produced in routes.values())
        print(f"members {len(wanted)} routes-agree {'true' if agree else 'false'}")
        return 0 if agree else 1
    if kind == "mutation":
        theory, catalog = emit_aq_theory(spec, caps=caps)
        report = verify_presentation(spec, _drop_one_disjunct(theory), caps=caps, catalog=catalog)
        failing = [c.name for c in report.checks if not c.ok]
        print(f"first-failing {failing[0] if failing else '-'}")
        return 0
    raise SystemExit(f"unknown library job {kind!r}")


def main(argv: list[str]) -> int:
    tracer = prefix = None
    launched = None
    if argv[:1] == ["--trace"]:
        prefix, launched, argv = argv[1], float(argv[3]), argv[4:]
        from tracer import Tracer, cache_counts

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "cli":
            from structlogic.cli import main as cli_main

            return cli_main(argv[1:])
        return library_job(*argv)
    finally:
        if tracer is not None:
            summary = tracer.summary()
            first = tracer.first_call
            summary["startup_s"] = None if first is None else first - launched
            summary["cache"] = cache_counts()
            with open(prefix + ".json", "w", encoding="utf-8") as fh:
                json.dump(summary, fh)
            tracer.write(prefix + ".spans")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
