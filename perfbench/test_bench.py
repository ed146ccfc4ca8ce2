"""Self-tests of the benchmark: oracle sensitivity, span arithmetic and the
bypass counts of a traced run.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

import cvrelay
import child
import oracle
from tracer import TraceStats, self_times
from workloads import WORKLOADS

THERMAL = ("--tau", "0.9", "--omega", "19.38")
SCAN_QKD = ("scan", "--protocol", "qkd", *THERMAL, "--mu", "52", "--xi", "0.97",
            "--g", "-15:15:5", "--gp", "-15:15:5", "--threads", "1")
SCAN_QUAD = ("scan", "--protocol", "quad-entanglement", *THERMAL, "--mu", "52",
             "--g", "-15:15:5", "--gp", "-15:15:5", "--threads", "1")
POINT = ("point", *THERMAL, "--g", "5", "--gp", "-7", "--mu", "6.5", "--xi", "0.97")
THRESHOLDS = ("thresholds", "--metric", "qkd", *THERMAL, "--mu", "52", "--xi", "0.97",
              "--gp", "-19:-18:0.5", "--g", "-19:19.3:0.1")
EXPERIMENT = ("experiment", "--n", "3", "--mu", "52", "--c", "1", "--cp", "1", "--eta", "0.98",
              "--xi", "0.97", "--shots", "20000", "--seed", "5")


def output(argv) -> str:
    _, text, error = child.run_command(argv)
    assert error is None
    return text


@pytest.fixture
def sample_all(monkeypatch):
    monkeypatch.setattr(oracle, "SAMPLES", 10**6)


def test_oracle_flags_a_perturbed_scan_cell(sample_all):
    text = output(SCAN_QKD)
    clean = oracle.Checks()
    oracle.check_scan_closed_form(cvrelay, SCAN_QKD, text, random.Random(0), clean)
    assert clean.failures == [] and clean.passed > 20

    lines = text.split("\r\n")
    col = lines[0].split(",").index("key_rate")
    row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[col])
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + 1e-5)
    lines[row] = ",".join(fields)
    bad = oracle.Checks()
    oracle.check_scan_closed_form(cvrelay, SCAN_QKD, "\r\n".join(lines), random.Random(0), bad)
    assert len(bad.failures) == 1 and "key_rate" in bad.failures[0]


def test_oracle_flags_a_corrupted_shot_report():
    text = output(EXPERIMENT)
    clean = oracle.Checks()
    oracle.check_experiment(cvrelay, text, clean)
    assert clean.failures == [] and clean.passed == 1

    report = json.loads(text)
    point = report["points"][0]
    point["cm_hat"][5] += 10 * point["stderr_bands"][5]
    bad = oracle.Checks()
    oracle.check_experiment(cvrelay, json.dumps(report), bad)
    assert len(bad.failures) == 1 and "stderr" in bad.failures[0]
    assert not oracle.same_report_except_chunking(text, json.dumps(report))


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])
    stats = TraceStats(["m.f", "m.g"], np.array([0, 1, 0, 1]), parent, start, end)
    assert stats.incl_s("m.f") == 10.0  # the nested m.f lies inside the outer one
    assert stats.incl_s("m.g") == 7.0
    assert stats.layer_self_s("m") == 10.0


def test_traced_run_counts_and_bypass_predictions():
    env_init = cvrelay.ThermalEnvironment.__init__
    commands = [child.Command(argv) for argv in (SCAN_QKD, POINT, THRESHOLDS)]
    untraced, _, tracer, records, classes, batches = child.paired_pass(commands, False)
    assert all(r.error is None for r in untraced + records)
    assert [r.sha256 for r in records] == [r.sha256 for r in untraced]
    layers = child.layer_metrics(tracer, records, classes, batches, 0)
    assert layers["gaussian.cm_constructions"] == 0
    assert layers["experiment.shots"] == 0
    assert layers["environments.construct_calls"] > 0 and layers["protocols.calls"] > 0
    assert layers["cli.self_s"] > 0
    spans = tracer.spans()
    top = spans["parent"] < 0
    stats = TraceStats(tracer.names, **spans)
    assert stats.calls("cli.main") == 3 == int(top.sum())
    assert stats.self.sum() == pytest.approx((spans["end"] - spans["start"])[top].sum())

    _, _, tracer, records, classes, batches = child.paired_pass(
        [child.Command(EXPERIMENT), child.Command(SCAN_QUAD)], False
    )
    layers = child.layer_metrics(tracer, records, classes, batches, 4e6)
    assert layers["experiment.shots"] == 20000
    assert layers["experiment.rss_bytes_per_shot"] == 200.0
    assert layers["gaussian.cm_constructions"] > 0
    assert layers["entanglement.ppt_tests"] == 2 * layers["gaussian.cm_constructions"]

    # every patched binding is restored
    assert cvrelay.ThermalEnvironment.__init__ is env_init
    assert cvrelay.protocols.kappa_params is cvrelay.environments.kappa_params
    assert not hasattr(cvrelay.cli.main, "__wrapped__")


def test_workload_inputs_follow_the_seed():
    for workload in WORKLOADS.values():
        assert workload.commands(3) == workload.commands(3)
        assert workload.commands(3) != workload.commands(4)
    tiles = [c.argv for c in WORKLOADS["scan-closed-form"].commands(3) if c.argv[2] == "qkd"]
    g = np.concatenate([cvrelay.cli._parse_axis(t[t.index("--g") + 1], "--g") for t in tiles])
    gp = cvrelay.cli._parse_axis(tiles[0][tiles[0].index("--gp") + 1], "--gp")
    for values in (g, gp):
        assert len(values) == 78 and np.allclose(np.diff(values), 0.5)
