"""The benchmark's job lists against the benchmark's own oracle, once each, in process.

perfbench/jobs.py builds every workload's CLI jobs from a seed and checks
their payloads with dense tensors, independently of calibkit's kernels.
Running each list once here, at the development seed 0 and the held-out
seed 7, makes a change that breaks a catalog (a lost cluster, a wrong
codimension) fail the tests and not only the benchmark.  Nothing under
perfbench/ is edited or written to.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import calibkit
import calibkit.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
import jobs  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


# seed 0 keeps the bare workload as its id
SEEDS = [pytest.param(w, s, id=w if s == 0 else f"{w}-seed{s}") for s in (0, 7) for w in sorted(jobs.WORKLOADS)]


@pytest.mark.parametrize("workload,seed", SEEDS)
def test_benchmark_jobs_pass_the_oracle(tmp_path, workload, seed):
    problems = []
    for k, job in enumerate(jobs.build_jobs(calibkit, workload, seed, tmp_path)):
        out = tmp_path / f"job{k}.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = calibkit.cli.main(job.argv + ["--json", "--out", str(out)])
        payload = json.loads(out.read_text()) if out.exists() else {}
        problems += [f"{job.name}: {p}" for p in jobs.check(job, code, payload)]
    assert not problems, "\n".join(problems)
