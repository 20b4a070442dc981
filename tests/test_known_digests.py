"""The CLI stdout that `perfbench/known.py` pins, checked in-process.

Every class-pipeline job whose stdout `known.STDOUT_SHA256` pins runs here
with the argv list that `perfbench/workloads.class_pipeline` builds: a CLI
job through `structlogic.cli.main`, a library job through
`perfbench/launch.library_job`.  Its exit code and the sha256 of its stdout
must be the recorded ones, so output drift fails here and not only as a
failed benchmark job.  The perfbench modules are read, never written: they
are loaded with bytecode writing off, and `sys.path` is restored afterwards.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from structlogic.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench():
    saved = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        modules = []
        for name in ("workloads", "launch"):
            path = PERFBENCH / f"{name}.py"
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
            module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules.append(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return modules


WORKLOADS, LAUNCH = _load_perfbench()
PINNED = WORKLOADS.known.STDOUT_SHA256


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    # the pinned jobs' argv lists do not depend on the seed
    listed, _ = WORKLOADS.class_pipeline(0, str(tmp_path_factory.mktemp("pipeline")))
    return {job.name: job for job in listed}


def test_every_pinned_digest_names_a_class_pipeline_job(jobs):
    assert PINNED.keys() <= jobs.keys()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_stdout_digest(name, jobs, capsys):
    job = jobs[name]
    code = LAUNCH.library_job(*job.argv) if job.library else main(job.argv)
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == (job.expect_exit, PINNED[name])
