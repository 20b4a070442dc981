"""Known answers the benchmark checks every verdict against, with provenance.

Counts come from the OEIS or from closed forms; the closure and order rules
for the four shipped classes come from the class definitions in
src/structlogic/corpus.py (each builder's docstring states the rule).  The
stdout digests pin the byte-identical CLI output that the project's roadmap
requires: they were recorded from the commit named in perfbench/baseline.json,
and a job whose stdout no longer matches counts as failed.  A change that
alters CLI output on purpose updates the digest here and says so.
"""

from __future__ import annotations

# Isomorphism types of one binary relation (digraphs with loops allowed) on
# n = 0..4 points: OEIS A000595 gives 1, 2, 10, 104, 3044 (a single point
# carries a loop or not); cumulative 3161.
BINARY_TYPES_UP_TO_4 = 3161

# Hereditary members(cap) of the shipped good classes, sizes 0..cap summed,
# as {class: (cap, count)}.  Triangle-free stops at 4: its size-5 level alone
# costs more than the rest of the iso-enum pass.
MEMBERS = {
    # one strict linear order per size
    "linear-orders": (5, 6),
    # OEIS A006785 (triangle-free graphs): 1, 1, 2, 3, 7
    "triangle-free": (4, 14),
    # a unary predicate on n points has n + 1 types
    "frozen-predicate": (5, 21),
    # equivalence relations with blocks of size <= 2: floor(n/2) + 1 per size
    "bounded-blocks": (5, 12),
}

# Exit codes of the CLI contract (0 pass, 1 failed verification).  The broken
# fixtures fail exactly the property their corpus docstring says they break.
EXIT_CODES = {
    "verify-broken-intersections": 1,
    "verify-broken-coherence": 1,
}

# `dk linear-orders --caps 3 --tuple-len 1`: one closure type of the empty
# tuple and three of single points (bottom, middle, top of a 3-chain); the
# project's acceptance check 6 derives the same counts by a brute quotient.
DK_LINEAR_ORDERS_CAPS3_LEN1 = '{"0": 1, "1": 3}'

# Dropping one disjunct of the emitted linear-orders presentation must be
# caught by the first round-trip check.
MUTATION_CAUGHT_BY = "models-satisfy-theory"

# sha256 of the stdout of every class-pipeline job whose input does not
# depend on the seed.
STDOUT_SHA256 = {
    "verify-axioms-linear-orders": "b13610c83ab14eb8a741680c101918cd704601ae56e8e6c485b8b635c6e04cf0",
    "verify-axioms-bounded-blocks": "d06ce6146ade9bfb87a95291e8af216ea077c2a119577e6419a96fbf74881c0a",
    "verify-axioms-frozen-predicate": "25707009be923af51e469c7af3c5751284138f7a6b02cf111a9bab2bbdd528b4",
    "verify-axioms-triangle-free": "2b20554266ca344ab628c62a370931a6b2ceb1d7b080eac08c6ac2eaceb35076",
    "verify-intersections-linear-orders": "134ddd46aa81aa5fb84756ca77f46db752746255cdce7af00ed3435d6bc6a823",
    "verify-cl-coherence-linear-orders": "47e2f16b74d7096ae55d9d4070e5351364343a300e18d03915e62b39dce91575",
    "verify-broken-intersections": "173226e20a13861197687a50ef6b881c35f2a578a39b42351b56e15c96c84134",
    "verify-broken-coherence": "b87f699ff5da65be25459d84af23ee1bd009946c3f360450e98e8388647ef637",
    "roundtrip-linear-orders": "9d913f01c7f176739afc4d90662db1eee8ced6f33eb0b2afd2273451ae312d14",
    "roundtrip-bounded-blocks": "4dd976a4c7ddcde39258d75f08cecaae648ef2e44bfda1ad6aeee10849c6e4cd",
    "dk-linear-orders": "fb28aea660661f9055f645e2d38afcdb723a71c25625826d6aa951efb9b41ac9",
    "dk-triangle-free": "5407e63171d6953be35965b45255c4d344edc4bfcddefac8b13f63ced903e31d",
    "lib-galois-morleyization": "ed751502e5845611dadc6f71d8a413fdd94dd8bfa1a6d13a951f8fbbbb6822db",
    "lib-dual-route": "4250246f1a2d69f4ebf10ded6f6771ccce2e2fc8d5f6c0ba58e7528162422e1c",
    "lib-mutation": "d9d3eaf3b14f5e14226201fd491025b1db784bb505aa131385e146859b9b66c3",
}


def closure_rule(cls: str, member, seed: frozenset) -> frozenset:
    """The closure of `seed` inside `member`, by each class's definition.

    linear-orders: initial segments are the strong parts, so the closure is
    everything at or below the seed's top.  triangle-free: every induced
    subgraph is strong, so the seed is closed.  frozen-predicate: P is frozen,
    so the closure adds every P-point.  bounded-blocks: blocks are frozen, so
    the closure is the union of the seed's blocks.
    """
    if cls == "linear-orders":
        lt = member.rel("lt")
        return frozenset(seed) | {a for a, b in lt for c in seed if b == c}
    if cls == "triangle-free":
        return frozenset(seed)
    if cls == "frozen-predicate":
        return frozenset(seed) | {a for (a,) in member.rel("P")}
    if cls == "bounded-blocks":
        return frozenset(b for a, b in member.rel("E") if a in seed)
    raise KeyError(cls)


def order_rule(cls: str, member, part: frozenset) -> bool:
    """Whether the induced part sits strongly inside member: it is closed."""
    return closure_rule(cls, member, part) == part
