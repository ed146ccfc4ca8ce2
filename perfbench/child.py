"""Run one workload in a fresh interpreter and print its figures as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
the environment of ``run.CHILD_ENV``:

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --trace-out PATH

Commands run in-process through ``cvrelay.cli.main`` in a closed loop, one
after another, in whole passes over the workload's command list until
``--seconds`` have elapsed (at least one pass).  With ``--trace 1`` every
command runs untraced and then traced.  The oracle checks the first pass's
outputs afterwards, outside the timed and traced regions.  The last
stdout line is the JSON result.

Throughput and pass time are built from each command's shortest time over
the passes of a run, and set-up time is the shortest of a run's set-up
samples.  The host shares its cores and has slow spells, from under a
second to minutes long, in which the same command takes up to about twice
as long; in some runs most passes fall in them.  As with ``timeit``, the
shortest time reads the program at the host's own speed as long as one
sample falls outside such spells, and a slower program slows every sample,
the shortest one too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

import cvrelay
import cvrelay.cli

import oracle
from tracer import LAYERS, Tracer, TraceStats
from workloads import SHOT_SWEEP, WORKLOADS, Command

BISECTION_TOL = 1e-6  # the thresholds command's documented precision
CHUNK_CHECK_SHOTS = 100_000
CHUNK_CHECK_SIZES = (4096, 65536)
SETUP_RUNS = 12
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import cvrelay.cli; "
    "cvrelay.cli.build_parser(); print(time.perf_counter() - t)"
)


@dataclass
class Record:
    argv: tuple[str, ...]
    seconds: float
    items: int
    sha256: str
    error: str | None

    @property
    def kind(self) -> str:
        return self.argv[0]


def run_command(argv) -> tuple[float, str, str | None]:
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cvrelay.cli.main(list(argv))
        if code != 0:
            error = f"exit code {code}"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, buf.getvalue(), error


def run_pass(commands: list[Command], keep_texts: bool):
    records, texts = [], []
    for cmd in commands:
        seconds, text, error = run_command(cmd.argv)
        items = cmd.items if cmd.items is not None else max(text.count("\r\n") - 1, 0)
        digest = hashlib.sha256(text.encode()).hexdigest()
        records.append(Record(cmd.argv, seconds, items, digest, error))
        if keep_texts:
            texts.append(text)
    return records, texts


def max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux reports KiB


def pass_seconds(records) -> float:
    return sum(r.seconds for r in records)


# ---------------------------------------------------------------------------
# per-layer figures of one traced pass


def layer_metrics(tracer: Tracer, records, tri_classes: Counter, batches: list[int], rss_growth: int) -> dict:
    """Per-layer figures of one traced pass.  ``batches`` holds the shot count
    of every simulated batch; a batch is held in memory whole, so peak RSS
    growth is shared out over the largest one."""
    s = TraceStats(tracer.names, **tracer.spans())
    shots = sum(batches)
    env_ctors = ("environments.ThermalEnvironment", "environments.AdditiveEnvironment")
    constructions = s.calls(*env_ctors)
    rejected = sum(tracer.errors[n] for n in env_ctors)
    cells = sum(r.items for r in records if r.kind == "scan")
    reached = tri_classes[4] + tri_classes[5]
    simulate_s = s.incl_s("experiment.simulate_shot_batch", "experiment.simulate_shots")
    estimate_s = s.incl_s(*(n for n in s.names if n.startswith("experiment.estimate_")))
    out = {f"{layer}.self_s": s.layer_self_s(layer) for layer in LAYERS}
    out.update({
        "environments.construct_calls": constructions,
        "environments.construct_s": s.incl_s(*env_ctors),
        "environments.rejected_share": rejected / constructions if constructions else 0.0,
        "environments.kappa_calls_per_cell": s.calls("environments.kappa_params") / cells if cells else 0.0,
        "protocols.calls": s.calls(*s.layer_names("protocols")),
        "protocols.evolved_cm_s": s.incl_s("protocols.evolved_cm"),
        "gaussian.cm_constructions": s.calls("gaussian.CovarianceMatrix"),
        "gaussian.cm_construct_s": s.incl_s("gaussian.CovarianceMatrix"),
        "entanglement.ppt_tests": s.calls("entanglement.ppt_min_eigenvalue"),
        "entanglement.ppt_s": s.incl_s("entanglement.ppt_min_eigenvalue"),
        "entanglement.tripartite_s": s.incl_s("entanglement.tripartite_classify"),
        "entanglement.witness_reached": reached,
        "entanglement.certified_share": tri_classes[5] / reached if reached else 0.0,
        "experiment.shots": shots,
        "experiment.simulate_s": simulate_s,
        "experiment.estimate_s": estimate_s,
        "experiment.ns_per_shot": (simulate_s + estimate_s) / shots * 1e9 if shots else 0.0,
        "experiment.rss_bytes_per_shot": rss_growth / max(batches) if shots else 0.0,
    })
    return out


def paired_pass(commands, keep_texts: bool):
    """Run each command untraced and then traced, so that both timings of a
    command see the same state of the host.  Returns the untraced records,
    their outputs (if kept), and the tracer, traced records, tripartite
    class counts and simulated batch sizes of the traced runs."""
    tri_classes: Counter = Counter()
    batches: list[int] = []

    def count_class(args, kwargs, result):
        tri_classes[result.class_id] += 1

    def count_shots(args, kwargs, result):
        batches.append(len(result))

    tracer = Tracer(on_result={
        "entanglement.tripartite_classify": count_class,
        "experiment.simulate_shot_batch": count_shots,
    })
    untraced, texts, traced = [], [], []
    for cmd in commands:
        records, kept = run_pass([cmd], keep_texts)
        untraced += records
        texts += kept
        with tracer:
            records, _ = run_pass([cmd], keep_texts=False)
        traced += records
    return untraced, texts, tracer, traced, tri_classes, batches


# ---------------------------------------------------------------------------
# oracle


def run_oracle(workload, seed, commands, texts, checks) -> dict:
    rng = random.Random(f"oracle-{seed}")
    extra, contour_points = {}, 0
    for cmd, text in zip(commands, texts):
        if workload == "scan-closed-form":
            oracle.check_scan_closed_form(cvrelay, cmd.argv, text, rng, checks)
        elif workload == "scan-entanglement":
            oracle.check_scan_entanglement(cvrelay, cmd.argv, text, rng, checks)
        elif cmd.kind == "thresholds":
            contour_points += oracle.check_thresholds(cvrelay, cmd.argv, text, checks, BISECTION_TOL)
        elif cmd.kind == "point":
            oracle.check_point(cvrelay, cmd.argv, text, checks)
        elif cmd.kind == "experiment":
            extra.setdefault("criterion8", []).extend(oracle.check_experiment(cvrelay, text, checks))
    if workload == "contour-point":
        checks.check(contour_points > 0, "thresholds found no contour point")
    if workload == "shot-sweep":
        s = SHOT_SWEEP
        base = ["experiment", "--n", "3", "--mu", str(s["mu"]), "--c", str(s["c"]), "--cp", str(s["cp"]),
                "--eta", repr(s["eta"]), "--xi", repr(s["xi"]), "--shots", str(CHUNK_CHECK_SHOTS),
                "--seed", str(seed)]
        outs = []
        for chunk in CHUNK_CHECK_SIZES:
            _, text, error = run_command(base + ["--chunk-shots", str(chunk)])
            checks.check(error is None, f"chunk-shots {chunk} run failed: {error}")
            outs.append(text)
        same = all(outs) and oracle.same_report_except_chunking(*outs)
        checks.check(same, f"reports differ between --chunk-shots {CHUNK_CHECK_SIZES}")
    return extra


def measure_setup() -> float:
    """Import time of cvrelay.cli plus build_parser() in a fresh interpreter,
    with the bytecode caches this process's own import has written."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def closed_loop(commands, seconds):
    """Whole passes until ``seconds`` have elapsed (at least one).  Whole
    passes keep the mix of command kinds the same in every run.  Between
    passes, SETUP_RUNS set-up samples are taken at even steps of the run,
    so that the shortest of them, like each command's, rides out the
    host's slow spells.  Returns every record, the first
    pass's outputs, the peak RSS at the end of the first pass (which does
    not depend on how many passes fit) and the set-up samples."""
    records, texts, setup = [], None, []
    start = time.perf_counter()
    while texts is None or time.perf_counter() - start < seconds:
        recs, kept = run_pass(commands, keep_texts=texts is None)
        if texts is None:
            texts, peak_rss = kept, max_rss_bytes()
        records += recs
        if len(setup) < min(SETUP_RUNS, SETUP_RUNS * (time.perf_counter() - start) / seconds):
            setup.append(measure_setup())
    setup += [measure_setup() for _ in range(SETUP_RUNS - len(setup))]
    return records, texts, peak_rss, setup


def traced_loop(commands, seconds):
    """Paired passes until ``seconds`` have elapsed (at least one).  Returns
    the untraced and the traced records, the first pass's outputs, the
    per-layer medians over the traced passes and the last tracer."""
    untraced, traced, layers, overheads, texts = [], [], [], [], None
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        rss_before = max_rss_bytes()
        records, kept, tracer, trecords, tri_classes, batches = paired_pass(commands, texts is None)
        if texts is None:
            texts, rss_growth = kept, max_rss_bytes() - rss_before
        untraced += records
        traced += trecords
        overheads.append(pass_seconds(trecords) - pass_seconds(records))
        layers.append(layer_metrics(tracer, trecords, tri_classes, batches, rss_growth))
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_s"] = statistics.median(overheads)
    return untraced, traced, texts, out, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)

    if args.trace:
        records, traced, texts, layers, tracer = traced_loop(commands, args.seconds)
        peak_rss = max_rss_bytes()
    else:
        records, texts, peak_rss, setup = closed_loop(commands, args.seconds)
        traced = []

    checks = oracle.Checks()
    for k, r in enumerate(records + traced):
        checks.check(r.error is None, f"{' '.join(r.argv)}: {r.error}")
        if k >= len(commands):
            checks.check(r.sha256 == records[k % len(commands)].sha256,
                         f"repeat of {' '.join(r.argv)} gave different output")
    extra = run_oracle(args.workload, args.seed, commands, texts, checks)

    passes = [records[k : k + len(commands)] for k in range(0, len(records), len(commands))]
    fast_s = [min(p[i].seconds for p in passes) for i in range(len(commands))]
    bulk = [i for i, r in enumerate(records[: len(commands)]) if r.kind == workload.bulk_kind]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "commands_run": len(records),
        "commands_per_pass": len(commands),
        "pass_seconds": [pass_seconds(p) for p in passes],
        "item": workload.item,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cvrelay": cvrelay.__version__,
        },
        "outputs": [{"argv": " ".join(r.argv), "sha256": r.sha256, "seconds": r.seconds}
                    for r in records[: len(commands)]],
        "e2e": {
            "items_per_s": sum(records[i].items for i in bulk) / sum(fast_s[i] for i in bulk),
            "pass_s": sum(fast_s),
            "peak_rss_mb": peak_rss / 2**20,
        },
        "setup_samples_s": [] if args.trace else setup,
        "setup_s": None if args.trace else min(setup),
    }
    point_ms = [1e3 * r.seconds for r in records if r.kind == "point"]
    if point_ms:
        p50, p99 = np.percentile(point_ms, [50, 99])
        result["point_latency"] = {"p50_ms": float(p50), "p99_ms": float(p99), "samples": len(point_ms)}
    if args.trace:
        result["layers"] = layers
        checks.check(layers["experiment.shots"] == 0 or args.workload == "shot-sweep",
                     f"bypass: experiment.shots = {layers['experiment.shots']} outside shot-sweep")
        if args.workload in ("scan-closed-form", "contour-point"):
            checks.check(layers["gaussian.cm_constructions"] == 0,
                         f"bypass: gaussian.cm_constructions = {layers['gaussian.cm_constructions']}")
        if args.trace_out:
            tracer.save(args.trace_out)
    result.update(extra)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
