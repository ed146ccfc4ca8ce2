"""Golden outputs: the sha256 of every README command's stdout, of the seed-1
commands of every benchmark workload, of scans and a point with guard-band
flags, of a chunked ``--dump`` and of a point of many chunks (also at 1, 2
and 3 workers), against the digests committed in ``golden_digests.json``.

A digest that moves is an output change; make it on purpose and rewrite the
file with

    PYTHONPATH=src python tests/test_golden.py

The finite-mu ``quad-entanglement`` digests and the README ``experiment``
sweep's also depend on the CPU kernel that numpy's bundled OpenBLAS picks at
run time (LAPACK eigenvalues and the key rate's conditioning), and two README
scans on numpy's SIMD dispatch (``log2`` and ``log1p`` differ without
AVX-512).  So the file records that kernel's name and numpy's enabled
dispatch targets, and a failure names both axes for both hosts.  The other
experiment outputs are checked to hold under two forced kernels and without
AVX-512.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from cvrelay import experiment as expmt
from cvrelay.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")

THERMAL = ["--tau", "0.9", "--omega", "19.38"]
# the README's commands; its experiment sweep at 1e4 shots instead of 1e6
README = [
    ["point", *THERMAL, "--g", "18", "--gp", "-18", "--mu", "6.5"],
    ["point", "--n", "3", "--c", "1", "--cp", "1", "--mu", "52", "--xi", "0.97"],
    ["scan", "--protocol", "qkd-asymptotic", *THERMAL, "--g", "-19.38:19.38:0.1",
     "--gp", "-19.38:19.38:0.1", "--threads", "4"],
    ["scan", "--protocol", "quad-entanglement", *THERMAL, "--g", "-19.38:19.38:0.2",
     "--gp", "-19.38:19.38:0.2"],
    ["scan", "--protocol", "qkd", "--n", "0:4:0.25", "--c", "1", "--cp", "1", "--mu", "52"],
    ["thresholds", "--metric", "qkd", *THERMAL, "--mu", "52", "--xi", "0.97",
     "--gp", "-19:19:0.25", "--g", "-19:19.3:0.1"],
    ["experiment", "--n", "0:4:0.25", "--mu", "52", "--c", "1", "--cp", "1", "--eta", "0.98",
     "--xi", "0.97", "--shots", "10000", "--seed", "42"],
]
# scans whose flags sit in the guard band ("marginal" at n = 1, c = c' = 0) and
# whose fidelity is pinned to 1/2 at mu = 1; a plane of more than MATRIX_BLOCK
# rows; a point whose swap_ok is "marginal"
C_PLANE = ["--n", "1", "--c", "-1.5:1.5:0.5", "--cp", "-1.5:1.5:0.5"]
FLAGS = [["scan", "--protocol", protocol, *C_PLANE, "--mu", mu]
         for protocol in ("swap", "teleport", "distill") for mu in ("1", "6.5")]
FLAGS += [["scan", "--protocol", "qkd", *THERMAL, "--g", "-17.25:17.25:0.5", "--gp", "-17.25:17.25:0.5",
           "--mu", "52"],
          ["point", "--n", "1", "--c", "0", "--cp", "0", "--mu", "6.5"]]
# a dumped point cut off the moment-block grid and on it; {dump} is the CSV path
DUMPS = [["experiment", "--n", "1", "--mu", "52", "--shots", "70000", "--seed", "5",
          "--chunk-shots", chunk, "--dump", "{dump}"] for chunk in ("777", "65536")]
# a point of ten chunks, simulated by as many workers as there are CPUs, and the same point in one chunk
CHUNKED = [["experiment", "--n", "3", "--shots", "40000", "--chunk-shots", chunk] for chunk in ("4096", "65536")]


def _workload_commands() -> list[list[str]]:
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    return [list(cmd.argv) for w in workloads.values() for cmd in w.commands(1)]


def _openblas_core() -> str:
    """Name of the CPU kernel numpy's bundled OpenBLAS runs, or "unknown"."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _numpy_dispatch() -> list[str]:
    """numpy's SIMD dispatch targets enabled on this CPU (after ``NPY_DISABLE_CPU_FEATURES``)."""
    return np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(tmp_dir: Path, commands=None) -> dict[str, str]:
    """Digest of each command's stdout, keyed by its argv, and of each dump
    CSV; ``commands`` defaults to every golden command."""
    digests = {}
    for argv in commands or README + _workload_commands() + FLAGS + DUMPS + CHUNKED:
        key = " ".join(argv)
        dump = tmp_dir / "shots.csv"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([a.format(dump=dump) for a in argv]) == 0, key
        digests[key] = _sha256(buf.getvalue().encode())
        if "{dump}" in argv:
            digests[key + " [csv]"] = _sha256(dump.read_bytes())
            dump.unlink()
    return digests


def test_every_golden_output_is_byte_identical(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = output_digests(tmp_path)
    moved = sorted(key for key in golden["digests"].keys() | digests.keys()
                   if golden["digests"].get(key) != digests.get(key))
    versions = f"digests from numpy {golden['numpy']}, scipy {golden['scipy']}, " \
               f"OpenBLAS core {golden['openblas_core']}, numpy dispatch {golden['numpy_dispatch']}; " \
               f"running numpy {np.__version__}, scipy {scipy.__version__}, " \
               f"OpenBLAS core {_openblas_core()}, numpy dispatch {_numpy_dispatch()}"
    assert moved == [], f"{len(moved)} outputs moved ({versions}):\n" + "\n".join(moved)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("argv", CHUNKED, ids=[argv[-1] for argv in CHUNKED])
def test_a_point_is_byte_identical_at_any_worker_count(monkeypatch, argv, workers):
    monkeypatch.setattr(expmt, "_available_cpus", lambda: workers)
    buf = io.StringIO()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as finely as they can
    try:
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
    finally:
        sys.setswitchinterval(interval)
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _sha256(buf.getvalue().encode()) == golden["digests"][" ".join(argv)]


def _kernel_free_commands() -> list[list[str]]:
    """The golden experiment commands whose output holds on every OpenBLAS
    kernel: their moments are BLAS-free, and their printed digits stop short
    of the LAPACK rounding in ``key_rate_from_cm`` that moves one digit of
    the README sweep."""
    return [argv for argv in _workload_commands() if argv[0] == "experiment"] + DUMPS + CHUNKED


# a child process: the golden digests of the commands in argv[2], from the test file argv[1]
_DIGEST_CHILD = """
import json, runpy, sys, tempfile
from pathlib import Path
golden = runpy.run_path(sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(golden["output_digests"](Path(tmp), json.loads(sys.argv[2]))))
"""


@pytest.fixture(scope="module")
def kernel_free_digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("default"), _kernel_free_commands())


def _moved_in_child(variable: str, value: str, digests: dict[str, str]) -> list[str]:
    """The kernel-free commands whose digest moves in a child process run with ``variable=value``."""
    env = {**os.environ, variable: value,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _DIGEST_CHILD, __file__, json.dumps(_kernel_free_commands())],
                           env=env, capture_output=True, text=True, check=True)
    forced = json.loads(child.stdout)
    assert forced.keys() == digests.keys()
    return sorted(key for key in forced if forced[key] != digests[key])


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_experiment_outputs_do_not_depend_on_the_openblas_kernel(kernel_free_digests, kernel):
    # the kernel is forced for the child process only, through OpenBLAS's own variable
    moved = _moved_in_child("OPENBLAS_CORETYPE", kernel, kernel_free_digests)
    assert moved == [], f"outputs that moved under OPENBLAS_CORETYPE={kernel}:\n" + "\n".join(moved)


def test_experiment_outputs_do_not_depend_on_avx512(kernel_free_digests):
    # numpy's AVX-512 dispatch is disabled for the child process only, through numpy's own variable
    avx512 = " ".join(f for f in _numpy_dispatch() if "AVX512" in f or f == "X86_V4")
    if not avx512:
        pytest.skip("this CPU has no AVX-512 dispatch target to disable")
    moved = _moved_in_child("NPY_DISABLE_CPU_FEATURES", avx512, kernel_free_digests)
    assert moved == [], f"outputs that moved under NPY_DISABLE_CPU_FEATURES={avx512}:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "scipy": scipy.__version__, "openblas_core": _openblas_core(),
                  "numpy_dispatch": _numpy_dispatch(), "digests": output_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}", file=sys.stderr)
