"""The benchmark's CSV drift check, run in-process: `vpm all`, the
all-ceiling command (band limit K = 2048) and the kernel-quadrature commands,
at the CLI's default seed 42 and the benchmark's held-out seed 4062, must
reproduce the stored reference outputs of `perfbench/reference/` within its
1e-10 relative bound, with the same exit codes and verdicts.  The perfbench
files are read, never written."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from vpmeans.cli import main


def _load_workloads():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True   # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=workload if seed == 42 else f"{workload}-{seed}")
    for seed in (42, 4062) for workload in ("all-default", "all-ceiling", "kernel-quadrature")])
def test_outputs_match_benchmark_references(workload, seed, tmp_path):
    references = workloads.load_reference(workload, seed)
    commands = workloads.commands(workload, seed)
    assert [ref["argv"] for ref in references] == commands
    for index, (ref, argv) in enumerate(zip(references, commands)):
        out = tmp_path / str(index)
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = main(argv + ["--out", str(out)])
        verdicts, bodies = workloads.read_outputs(out)
        got = {"exit_code": exit_code, "error": None, "verdicts": verdicts, "bodies": bodies}
        attempted, failed, _, problems = workloads.check_invocation(ref, got)
        assert attempted == len(ref["verdicts"]) > 0
        assert (failed, problems) == (0, []), argv
