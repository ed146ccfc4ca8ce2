"""cvrelay benchmark: one seeded workload per fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run.  Metric names, units and
the workload list live in BENCHMARK.json.  Each run also writes a run record
(machine, versions, child environment, output digests, oracle failures) to
``perfbench/out/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TIME_LIMIT_S = 170.0
# Set for every child.  BLAS runs one thread.  A fixed glibc mmap threshold
# returns freed large arrays to the kernel at once; with the default sliding
# threshold the peak RSS of one and the same command varied between runs by
# up to 55 MB with the address-space layout.
CHILD_ENV = {
    **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
# summary name of items_per_s for each kind of item
ITEM_METRIC = {"cells": "cells_per_s", "columns": "contour_columns_per_s", "shots": "shots_per_s"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cached bytecode, as an installed package has
    return env


def run_python(args, timeout) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout:.0f} s: {args[0]}") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvrelay").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record() -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "child_env": CHILD_ENV,
    }


def run_workload(spec, name, seed, seconds, trace, deadline) -> dict:
    OUT.mkdir(exist_ok=True)
    args = [str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--trace-out", str(OUT / f"trace-{name}-seed{seed}.npz")]
    child = json.loads(run_python(args, deadline - time.monotonic()))
    failed = len(child["failures"])
    if trace:
        values = child["layers"]
        wanted = spec["per_layer"]
    else:
        values = dict(child["e2e"], setup_s=child["setup_s"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = dict(machine_record(), seconds=seconds, trace=trace, **child)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": child["attempted"], "failed": failed,
            "metrics": metrics, "record": record}


def summary_lines(name, result) -> list[str]:
    rec, m = result["record"], result["metrics"]
    lines = [f"== {name} (seed {rec['seed']}, {rec['commands_run']} commands)"]
    for key, metric in m.items():
        label = ITEM_METRIC[rec["item"]] if key == "items_per_s" else key
        unit = f"{rec['item']}/s" if key == "items_per_s" else metric["unit"]
        lines.append(f"  {label:34s} {metric['value']:.6g} {unit}")
    if "point_latency" in rec:
        lat = rec["point_latency"]
        for key in ("p50_ms", "p99_ms"):
            lines.append(f"  {'point_' + key:34s} {lat[key]:.6g} ms  ({lat['samples']} calls)")
    rate = result["failed"] / result["attempted"]
    lines.append(f"  {'error_rate':34s} {rate:.6g} fraction  ({result['failed']}/{result['attempted']})")
    for failure in rec["failures"][:10]:
        lines.append(f"  FAIL {failure}")
    for row in rec.get("criterion8", []):
        hat = "failed" if row["key_rate_hat"] is None else f"{row['key_rate_hat']:+.4f}"
        lines.append(
            f"  n={row['n']:<4} key_rate_hat={hat} "
            f"exact-moment rate={row['key_rate_exact_moments']:+.4f} "
            f"kappa shift (1-eta)/eta={row['kappa_shift_loss']:.4f}"
        )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0: it keys the experiment's Philox stream")
    if not (SRC / "cvrelay" / "__init__.py").is_file():
        print(f"cvrelay sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in todo:
            if args.workload == "all":
                deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(spec, name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(summary_lines(name, results[name])), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
