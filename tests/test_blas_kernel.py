"""The norm, modulus and reference-output tests on another BLAS kernel.

OpenBLAS picks a kernel per CPU, and kernels round a matrix product in
different orders.  The tests below hold to rounding, not to one kernel's bits,
so they must also pass when a child process runs them under the AVX2 kernel
(`OPENBLAS_CORETYPE=Haswell`) on a CPU that has the AVX2 instructions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = ("tests/test_function_space.py", "tests/test_smoothness.py",
         "tests/test_reference_outputs.py")
KERNEL = "Haswell"

# prints the kernel of the OpenBLAS that the numpy wheel ships, or nothing
# when numpy uses another BLAS
CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*.so*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if get is not None:
    get.restype = ctypes.c_char_p
    print(get().decode())
"""


def _has_avx2():
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def test_norm_and_reference_tests_pass_on_the_haswell_kernel():
    if not _has_avx2():
        pytest.skip("no avx2 in /proc/cpuinfo: OpenBLAS cannot run its Haswell kernel here")
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL)
    corename = subprocess.run([sys.executable, "-c", CORENAME], env=env, capture_output=True,
                              text=True, timeout=60).stdout.strip()
    if corename != KERNEL:
        pytest.skip(f"the child's BLAS reports kernel {corename or 'unknown'!r}, not {KERNEL!r}:"
                    " numpy does not use an OpenBLAS built for several kernels")
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *FILES],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
