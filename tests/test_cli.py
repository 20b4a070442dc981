"""Exit codes, output determinism, and file round-trips for the CLI."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import structlogic
from structlogic import formats
from structlogic.cli import main
from structlogic.corpus import chain, corpus_path, linear_orders
from structlogic.syntax import Atomic, Var, is_forall_qstruct, qstruct

LIN = corpus_path("linear-orders")
BROKEN = corpus_path("broken-intersections")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def chain3(tmp_path):
    return _write(tmp_path, "chain3.sexp", formats.print_structure(chain(3)))


@pytest.fixture
def chain2(tmp_path):
    return _write(tmp_path, "chain2.sexp", formats.print_structure(chain(2)))


@pytest.fixture
def lin_theory(tmp_path):
    return _write(tmp_path, "lin.sexp", formats.print_theory(linear_orders().theory))


@pytest.fixture
def lt_formula(tmp_path):
    return _write(tmp_path, "lt.sexp", "(rel lt x y)")


def test_eval_true_false_exit_codes(chain3, lt_formula, capsys):
    assert main(["eval", chain3, lt_formula, "--assign", "x=0,y=1"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["eval", chain3, lt_formula, "--assign", "x=1,y=0"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_eval_trace_lines_precede_verdict(chain3, tmp_path, capsys):
    # pre-order, children left to right, a structure quantifier's main
    # matrix before its side formulas; only subformulas whose free
    # variables the assignment covers get a line
    target = "(structure (vocab (rel lt 2)) (universe 2) (rel lt (0 1))) (subsets (0))"
    exists = "(exists z (and (rel lt z y) (rel lt y x)))"
    q = f"(qstruct {target} v (u) (and (rel lt v y) (rel lt x x)) ((and (rel lt u x) (rel lt y y))))"
    text = f"(and (rel lt x y) {exists} {q})"
    phi = _write(tmp_path, "phi.sexp", text)
    assert main(["eval", chain3, phi, "--assign", "x=0,y=2", "--trace"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"trace false {text}",
        "trace true (rel lt x y)",
        f"trace false {exists}",
        "trace false (rel lt y x)",
        f"trace false {q}",
        "trace false (rel lt x x)",
        "trace false (rel lt y y)",
        "false",
    ]


def test_deeply_nested_formula_is_an_input_error(chain3, tmp_path, capsys):
    depth = 2000
    phi = _write(tmp_path, "deep.sexp", "(not " * depth + "(rel lt x y)" + ")" * depth)
    for argv in (["eval", chain3, phi], ["translate", phi, "--mode", "univ-gen"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1


def test_explicit_class_past_the_labelling_cap_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "big.sexp", "(class (members (structure (vocab) (universe 9))))")
    assert main(["verify", spec, "--check", "axioms"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_parse_error_exits_2(chain3, tmp_path, capsys):
    bad = _write(tmp_path, "bad.sexp", "(lt x")
    assert main(["eval", chain3, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_missing_file_exits_2(chain3, capsys):
    assert main(["eval", chain3, "/nonexistent/phi.sexp"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_bad_kappa_exits_2(chain3, lt_formula, capsys):
    assert main(["eval", chain3, lt_formula, "--kappa", "lots"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_models_sweep_and_determinism(lin_theory, capsys):
    argv = ["models", lin_theory, "--max-size", "3", "--up-to-iso"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[-1] == "count 4"
    assert len(lines) == 5


def test_models_jobs_is_a_usage_error(lin_theory, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["models", lin_theory, "--max-size", "3", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("iso", [[], ["--up-to-iso"]], ids=["raw", "up-to-iso"])
def test_models_below_size_zero_is_a_usage_error(lin_theory, iso, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["models", lin_theory, "--max-size", "-1", *iso])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--max-size" in err


def test_elem_star_accepts_initial_segment(chain2, chain3, lin_theory, capsys):
    assert main(["elem", chain2, chain3, lin_theory, "--star"]) == 0
    assert capsys.readouterr().out == "verdict true\n"


def test_elem_star_rejects_skip_suborder(tmp_path, chain3, lin_theory, capsys):
    skip = _write(
        tmp_path,
        "skip.sexp",
        "(structure (vocab (rel lt 2)) (universe (0 2)) (rel lt (0 2)))",
    )
    assert main(["elem", skip, chain3, lin_theory, "--star"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("verdict false\n")
    assert "reason truth-disagreement" in out
    assert "witness-assignment x=2" in out


def test_elem_reports_non_substructure(tmp_path, chain3, lin_theory, capsys):
    rev = _write(
        tmp_path,
        "rev.sexp",
        "(structure (vocab (rel lt 2)) (universe 2) (rel lt (1 0)))",
    )
    assert main(["elem", rev, chain3, lin_theory]) == 1
    assert "reason not-substructure" in capsys.readouterr().out


def test_closure_prints_structure_and_strength(chain3, capsys):
    assert main(["closure", chain3, "2", LIN, "--caps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("strong-submodel true\n")
    assert formats.parse_structure(out.rsplit("\n", 2)[0]).size == 3


def test_closure_of_empty_seed(chain3, capsys):
    assert main(["closure", chain3, "-", LIN, "--caps", "3"]) == 0
    out = capsys.readouterr().out
    assert formats.parse_structure(out.rsplit("\n", 2)[0]).size == 0


def test_verify_axioms_passes_on_corpus_class(capsys):
    assert main(["verify", LIN, "--check", "axioms", "--caps", "3"]) == 0
    out = capsys.readouterr().out
    assert "verify --check axioms linear-orders.sexp" in out
    assert "fail" not in out


def test_verify_intersections_failure_exits_1(capsys):
    assert main(["verify", BROKEN, "--check", "intersections", "--caps", "4"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    assert "(universe (" in out  # witness keeps its original labels


@pytest.mark.filterwarnings("error")
def test_emit_writes_reparseable_theory(tmp_path, capsys):
    out_path = tmp_path / "emitted.sexp"
    assert main(["emit", LIN, "--caps", "3", "--out", str(out_path)]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("sentences 16 catalog ")
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("; source linear-orders.sexp sha256 ")
    theory = formats.parse_theory(text)
    assert len(theory.sentences) == 16
    assert all(is_forall_qstruct(s) for s in theory.sentences)


def test_emit_stdout_mode_keeps_summary_on_stderr(capsys):
    assert main(["emit", LIN, "--caps", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("; source ")
    assert captured.err.startswith("sentences 16 ")


def test_roundtrip_passes_at_small_caps(capsys):
    assert main(["roundtrip", LIN, "--caps", "2"]) == 0
    out = capsys.readouterr().out
    for name in (
        "models-satisfy-theory",
        "order-preserved",
        "membership",
        "order-reflected",
    ):
        assert name in out


def test_roundtrip_reports_emission_failure(capsys):
    assert main(["roundtrip", BROKEN, "--caps", "4"]) == 1
    out = capsys.readouterr().out
    assert "emission" in out and "fail" in out


@pytest.mark.parametrize("caps", ["4,2", "-1"])
def test_caps_takes_one_size_of_at_least_zero(caps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roundtrip", LIN, "--caps", caps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--caps" in err


THEORY = "(theory (name t) (vocab (rel lt 2)))"
MALFORMED = {
    "structure-rel": ("eval", "(structure (vocab (rel lt 2)) (universe 2) (rel))"),
    "structure-fun": ("eval", "(structure (vocab (fun f 1)) (universe 1) (fun))"),
    "theory-name": ("models", "(theory (name) (vocab (rel lt 2)))"),
    "class-name": ("dk", f"(class (name) {THEORY})"),
    "class-max-size": ("dk", f"(class {THEORY} (max-size))"),
    "class-max-size-word": ("dk", f"(class {THEORY} (max-size six))"),
    "class-max-size-negative": ("dk", f"(class {THEORY} (max-size -1))"),
    "structure-universe-negative": ("elem", "(structure (vocab (rel lt 2)) (universe -2))"),
    "class-kappa-word": ("dk", f"(class {THEORY} (kappa big))"),
    "class-order-word": ("dk", "(class (members (structure (vocab) (universe 1))) (order (a 0)))"),
}


@pytest.mark.parametrize("form", sorted(MALFORMED))
def test_malformed_input_file_is_an_input_error(form, tmp_path, lt_formula, lin_theory, capsys):
    command, text = MALFORMED[form]
    path = _write(tmp_path, "bad.sexp", text)
    args = {
        "eval": [path, lt_formula],
        "elem": [path, path, lin_theory],
        "models": [path],
        "dk": [path, "--caps", "1"],
    }[command]
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "structure",
    [
        "(structure (vocab (rel R 2) (rel R 1)) (universe 1))",
        "(structure (vocab (fun f 1) (const f)) (universe 1) (const f 0))",
    ],
)
def test_a_symbol_declared_twice_exits_2(structure, tmp_path, capsys):
    path = _write(tmp_path, "twice.sexp", structure)
    sentence = _write(tmp_path, "true.sexp", "(forall x (= x x))")
    assert main(["eval", path, sentence]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "declared twice" in captured.err


def test_a_variable_assigned_twice_exits_2(chain3, lt_formula, capsys):
    assert main(["eval", chain3, lt_formula, "--assign", "x=0,y=1,y=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "'y' more than one value" in captured.err


def test_translate_univ_gen(tmp_path, capsys):
    phi = _write(tmp_path, "irr.sexp", "(forall x (not (rel lt x x)))")
    assert main(["translate", phi, "--mode", "univ-gen"]) == 0
    out = capsys.readouterr().out
    assert is_forall_qstruct(formats.parse_formula(out))


def test_translate_counting_and_scott(tmp_path, capsys):
    q = qstruct(chain(2), "v", (), Atomic("lt", (Var("v"), Var("x"))), ())
    path = _write(tmp_path, "q.sexp", formats.print_formula(q))
    assert main(["translate", path, "--mode", "counting"]) == 0
    counted = formats.parse_formula(capsys.readouterr().out)
    assert not is_forall_qstruct(counted)
    assert main(["translate", path, "--mode", "scott"]) == 0
    formats.parse_formula(capsys.readouterr().out)


def test_translate_no_subvocab_needs_vocab(tmp_path, capsys):
    q = qstruct(chain(1), "v", (), Atomic("lt", (Var("v"), Var("x"))), ())
    path = _write(tmp_path, "q1.sexp", formats.print_formula(q))
    assert main(["translate", path, "--mode", "no-subvocab"]) == 2
    wide = _write(tmp_path, "wide.sexp", "(vocab (rel lt 2) (rel P 1))")
    assert main(["translate", path, "--mode", "no-subvocab", "--vocab", wide]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("length", ["-1", "1,2"])
def test_tuple_len_takes_one_length_of_at_least_zero(length, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dk", LIN, "--tuple-len", length])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--tuple-len" in err


def test_dk_counts_line(capsys):
    assert main(["dk", LIN, "--tuple-len", "1", "--caps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == 'counts {"0": 1, "1": 3}'
    assert sum(1 for l in lines if l.startswith("dk len ")) == 4


def test_dk_past_the_anchored_tuple_cap_exits_2_before_the_sweep(capsys):
    # about 3.7e8 anchored tuples: the sweep would run for hours
    assert main(["dk", LIN, "--caps", "4", "--tuple-len", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 365121177 anchored tuples exceed the cap\n"


def test_timing_flag_leaves_stdout_alone(chain3, lt_formula, capsys):
    assert main(["eval", chain3, lt_formula, "--assign", "x=0,y=1"]) == 0
    plain = capsys.readouterr()
    assert main(["eval", chain3, lt_formula, "--assign", "x=0,y=1", "--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert timed.err.startswith("wall_ms ")


def _assert_shell_verdicts(command, structure, formula, env=None):
    for assign, code, out in (("x=0,y=1", 0, "true\n"), ("x=1,y=0", 1, "false\n")):
        done = subprocess.run(
            [*command, "eval", structure, formula, "--assign", assign],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, out), done.stderr


def test_console_script_is_installed(chain3, lt_formula):
    """The `structlogic` command hands `main`'s verdict and exit code to the shell.

    A script found on PATH is run as installed. The entry point that
    pyproject.toml declares is always run as a console-script wrapper runs
    it, in a child interpreter, so the check holds where nothing is installed.
    """
    exe = shutil.which("structlogic")
    if exe:
        _assert_shell_verdicts([exe], chain3, lt_formula)
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["structlogic"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint(name='structlogic', value={target!r},"
        " group='console_scripts').load()())"
    )
    package_root = Path(structlogic.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    _assert_shell_verdicts([sys.executable, "-c", wrapper], chain3, lt_formula, env)


_PROBE = """
import contextlib, io, sys
from structlogic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _modules_after(argv) -> set[str]:
    """The modules a fresh interpreter holds after running one command."""
    package_root = Path(structlogic.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        timeout=60,
    )
    code, *modules = done.stdout.split()
    assert code == "0", done.stderr
    return set(modules)


def test_short_commands_load_only_the_layers_they_run(chain2, chain3, lin_theory):
    elem = _modules_after(["elem", chain2, chain3, lin_theory, "--star"])
    assert "structlogic.semantics" in elem
    unused = {"axiomatizer", "translate", "closure", "classspec"}
    assert elem & ({f"structlogic.{m}" for m in unused} | {"dataclasses", "inspect"}) == set()
    closure = _modules_after(["closure", chain3, "1", LIN])
    assert "structlogic.closure" in closure
    assert closure & {"structlogic.axiomatizer", "structlogic.translate"} == set()
