import argparse
import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvrelay import cli
from cvrelay import environments as envs
from cvrelay import experiment as expmt
from cvrelay.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_point_thermal_json(capsys):
    code, out = run_cli(
        ["point", "--tau", "0.9", "--omega", "19.38", "--g", "18", "--gp", "-18",
         "--mu", "6.5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["env"]["kind"] == "thermal"
    assert doc["env"]["separable"] is True
    rep = doc["report"]
    for key in ("epsilon", "log_neg", "fidelity", "coherent_info", "mutual_info_ab",
                "holevo_eve", "key_rate", "flags"):
        assert key in rep
    assert rep["epsilon"] < 1.0
    assert rep["flags"]["swap_ok"] is True
    assert rep["flags"]["tele_quantum"] is True


def test_point_additive_rate_positive(capsys):
    code, out = run_cli(
        ["point", "--n", "3", "--c", "1", "--cp", "1", "--mu", "52", "--xi", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["key_rate"] > 0.0
    assert doc["report"]["flags"]["qkd_ok"] is True


def test_point_invalid_env_exit_code(capsys):
    code, out = run_cli(
        ["point", "--tau", "0.9", "--omega", "19.38", "--g", "25", "--gp", "0",
         "--mu", "2"],
        capsys,
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["code"] == 2
    assert "bona-fide" in doc["error"]["message"]


def test_point_asymptotic_mu_inf(capsys):
    code, out = run_cli(
        ["point", "--tau", "0.9", "--omega", "19.38", "--g", "18", "--gp", "-18",
         "--mu", "inf"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["mu"] == "inf"
    assert "key_rate_lb" in doc["report"]


def test_scan_degenerate_grid_and_schema(capsys):
    code, out = run_cli(
        ["scan", "--protocol", "swap", "--tau", "0.9", "--omega", "19.38",
         "--mu", "6.5", "--g", "17:18:1", "--gp", "-18:-17:1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "g,gp,physical,separable,boundary,epsilon,log_neg,swap_ok"
    assert len(lines) == 5  # header + 2x2 grid in row-major order
    assert lines[1].startswith("17,-18,")
    assert lines[2].startswith("17,-17,")
    assert lines[3].startswith("18,-18,")


def test_scan_headers_golden():
    from cvrelay.cli import _METRIC_COLUMNS

    golden = {
        "swap": ["epsilon", "log_neg", "swap_ok"],
        "teleport": ["fidelity", "tele_quantum"],
        "distill": ["coherent_info", "distill_ok"],
        "qkd": ["key_rate", "qkd_ok"],
        "qkd-asymptotic": ["epsilon_opt", "rate_opt", "rate_lb", "qkd_ok"],
        "quad-entanglement": ["env_mutual_info", "sigma_prime", "sigma_double_prime", "region"],
        "bipartite": ["logneg_aAp", "logneg_aBp", "logneg_ab", "logneg_ApBp"],
        "tripartite": ["tri_class", "tri_certified"],
    }
    assert _METRIC_COLUMNS == golden


def test_scan_nonphysical_cells_flagged(capsys):
    code, out = run_cli(
        ["scan", "--protocol", "qkd-asymptotic", "--tau", "0.9", "--omega", "19.38",
         "--g", "-25:25:25", "--gp", "-25:25:25"],
        capsys,
    )
    assert code == 0
    rows = out.strip().split("\r\n")[1:]
    assert len(rows) == 9
    corner = rows[0].split(",")
    assert corner[2] == "0"  # nonphysical flag
    assert corner[5] == ""  # metrics left empty
    center = [r for r in rows if r.startswith("0,0,")][0].split(",")
    assert center[2] == "1"


def test_scan_threads_do_not_change_output(capsys):
    args = ["scan", "--protocol", "qkd", "--tau", "0.9", "--omega", "19.38",
            "--mu", "52", "--g", "10:19:1", "--gp", "-19:-10:1"]
    _, base = run_cli(args, capsys)
    for threads in ("2", "4"):
        _, out = run_cli(args + ["--threads", threads], capsys)
        assert out == base


def test_scan_additive_plane(capsys):
    code, out = run_cli(
        ["scan", "--protocol", "qkd", "--n", "2.5", "--mu", "52",
         "--c", "0:1:0.5", "--cp", "0:1:0.5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "c,cp,physical,separable,boundary,key_rate,qkd_ok"
    assert len(lines) == 10


def test_scan_noise_axis(capsys):
    code, out = run_cli(
        ["scan", "--protocol", "qkd", "--n", "0:4:1", "--c", "1", "--cp", "1",
         "--mu", "52"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "n,physical,separable,boundary,key_rate,qkd_ok"
    assert len(lines) == 6


def test_thresholds_swap_curve(capsys):
    code, out = run_cli(
        ["thresholds", "--metric", "swap", "--tau", "0.9", "--omega", "19.38",
         "--mu", "inf", "--gp", "-14:-8:2", "--g", "0:19.3:0.5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "gp,g,metric"
    assert len(lines) >= 4
    from cvrelay.environments import ThermalEnvironment, kappa_params

    for line in lines[1:]:
        gp, g, name = line.split(",")
        assert name == "swap"
        k, kp = kappa_params(ThermalEnvironment(0.9, 19.38, float(g), float(gp)))
        assert abs(k * kp - 1.0) < 1e-4  # the traced contour is kappa kappa' = 1


def test_experiment_runs_and_is_deterministic(capsys, tmp_path):
    args = ["experiment", "--n", "1:3:1", "--mu", "52", "--c", "1", "--cp", "1",
            "--eta", "0.98", "--xi", "0.97", "--shots", "2000", "--seed", "11"]
    code, out1 = run_cli(args, capsys)
    assert code == 0
    code, out2 = run_cli(args, capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["rng"]["algorithm"] == "philox4x64"
    assert len(doc["points"]) == 3
    for point in doc["points"]:
        assert "key_rate_hat" in point
        assert "key_rate_theory" in point
        assert "repeater_bound" in point
        assert len(point["cm_hat"]) == 16
        assert len(point["stderr_bands"]) == 16


def test_experiment_single_shot_no_crash(capsys):
    code, out = run_cli(
        ["experiment", "--n", "1", "--mu", "52", "--shots", "1", "--seed", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert "error" in doc["points"][0]  # estimation impossible, reported per point


def test_experiment_reports_overflowing_moments_per_point(capsys):
    code, out = run_cli(["experiment", "--n", "1", "--mu", "1e308", "--shots", "1000"], capsys)
    assert code == 0
    assert "not finite" in json.loads(out)["points"][0]["error"]


def test_experiment_shot_dump(capsys, tmp_path):
    dump = tmp_path / "shots.csv"
    code, _ = run_cli(
        ["experiment", "--n", "2", "--mu", "52", "--shots", "5", "--seed", "3",
         "--dump", str(dump)],
        capsys,
    )
    assert code == 0
    lines = dump.read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "qa,pa,qb,pb,qg,pg"
    assert len(lines) == 6
    # streamed chunk by chunk, the dump is the same file
    chunked = tmp_path / "chunked.csv"
    code, _ = run_cli(["experiment", "--n", "2", "--mu", "52", "--shots", "5", "--seed", "3",
                       "--chunk-shots", "2", "--dump", str(chunked)], capsys)
    assert code == 0 and chunked.read_bytes() == dump.read_bytes()


@pytest.mark.parametrize("chunk", [None, 13, 5000, 40_000])
def test_experiment_holds_one_chunk_of_shots_at_a_time(capsys, monkeypatch, chunk):
    starts, sizes = [], []
    simulate = expmt.simulate_shot_batch

    def spy(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        starts.append(kwargs["start"])
        sizes.append(len(batch))
        return batch

    monkeypatch.setattr(expmt, "simulate_shot_batch", spy)
    argv = ["experiment", "--n", "1", "--mu", "52", "--shots", "150000", "--seed", "2"]
    code, out = run_cli(argv + (["--chunk-shots", str(chunk)] if chunk else []), capsys)
    assert code == 0 and json.loads(out)["points"][0]["sample_count"] == 150_000
    limit = max(chunk or expmt.DEFAULT_CHUNK, expmt.MOMENT_BLOCK)
    assert len(sizes) > 1 and max(sizes) <= limit and sum(sizes) == 150_000
    # every chunk is cut on the moment-block grid
    assert all(start % expmt.MOMENT_BLOCK == 0 for start in starts)


def test_experiment_rejects_mu_1_before_drawing_a_shot(capsys, monkeypatch, tmp_path):
    calls = []
    simulate = expmt.simulate_shot_batch

    def spy(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(expmt, "simulate_shot_batch", spy)
    argv = ["experiment", "--n", "1", "--mu", "1", "--shots", "1000000"]
    code, out = run_cli(argv, capsys)
    (point,) = json.loads(out)["points"]
    assert code == 0 and calls == []
    assert point["error"] == "covariance reconstruction needs signal modulation (mu > 1)"
    # a point rejected before its shots are drawn leaves no dump
    dump = tmp_path / "shots.csv"
    assert run_cli(argv + ["--dump", str(dump)], capsys) == (0, out)
    assert calls == [] and not dump.exists()


def test_experiment_opens_its_dump_before_drawing_a_shot(capsys, monkeypatch, tmp_path):
    calls = []
    simulate = expmt.simulate_shot_batch

    def spy(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(expmt, "simulate_shot_batch", spy)
    argv = ["experiment", "--n", "1", "--shots", "100000", "--dump", str(tmp_path / "no-such-dir" / "shots.csv")]
    code, out = run_cli(argv, capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2
    assert calls == []


def test_experiment_rejects_a_zero_chunk_size(capsys):
    code, out = run_cli(["experiment", "--n", "1", "--shots", "10", "--chunk-shots", "0"], capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("dump", [False, True], ids=["no-dump", "dump"])
def test_experiment_keeps_at_most_one_chunk_in_flight_per_worker(capsys, monkeypatch, tmp_path, dump):
    # a call is alive while it runs; a batch until nothing holds it.  Only the
    # dump keeps a finished batch, the one the main thread writes.
    workers, lock = 3, threading.Lock()
    alive = {"calls": 0, "batches": 0}
    peak = dict(alive)
    simulate = expmt.simulate_shot_batch

    def step(key, by):
        with lock:
            alive[key] += by
            peak[key] = max(peak[key], alive[key])

    def spy(*args, **kwargs):
        step("calls", 1)
        step("batches", 1)
        batch = simulate(*args, **kwargs)
        weakref.finalize(batch, step, "batches", -1)
        step("calls", -1)
        return batch

    monkeypatch.setattr(expmt, "simulate_shot_batch", spy)
    monkeypatch.setattr(expmt, "_available_cpus", lambda: workers)
    argv = ["experiment", "--n", "1", "--shots", "100000", "--chunk-shots", "4096"]
    code, out = run_cli(argv + (["--dump", str(tmp_path / "shots.csv")] if dump else []), capsys)
    assert code == 0 and json.loads(out)["points"][0]["sample_count"] == 100_000
    assert alive == {"calls": 0, "batches": 0}
    assert peak["calls"] <= workers and peak["batches"] <= workers + dump


def _experiment_at(workers, monkeypatch, argv) -> str:
    monkeypatch.setattr(expmt, "_available_cpus", lambda: workers)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return buf.getvalue()


def test_an_error_raised_in_a_worker_is_the_point_error_of_one_worker(monkeypatch):
    # three chunks whose noise overflows float64, and a noise covariance that
    # is not PSD, which _noise_sqrt rejects in every worker
    argv = ["experiment", "--n", "1e308", "--c", "1", "--cp", "1", "--shots", "12288", "--chunk-shots", "4096"]
    outs = [_experiment_at(workers, monkeypatch, argv) for workers in (1, 3)]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["points"][0]["error"] == "joint second moments are not finite"
    monkeypatch.setattr(expmt, "additive_env_classical_cm", lambda env: -np.eye(4))
    argv = ["experiment", "--n", "1", "--shots", "12288", "--chunk-shots", "4096"]
    outs = [_experiment_at(workers, monkeypatch, argv) for workers in (1, 3)]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["points"][0]["error"] == "classical noise covariance is not positive semidefinite"


def _experiment_report(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    report = json.loads(buf.getvalue())
    report["rng"].pop("chunk_shots")
    return report


@settings(max_examples=25)
@given(shots=st.integers(2, 20_000), chunk=st.integers(7, 70_000), n=st.sampled_from([0.0, 1.5, 3.0]))
@example(shots=2 * expmt.MOMENT_BLOCK, chunk=expmt.MOMENT_BLOCK, n=1.5)
@example(shots=3 * expmt.MOMENT_BLOCK + 1, chunk=13, n=3.0)
def test_experiment_report_does_not_depend_on_the_chunk_size(shots, chunk, n):
    argv = ["experiment", "--n", repr(n), "--mu", "52", "--c", "0.6", "--cp", "0.4", "--eta", "0.98",
            "--shots", str(shots), "--seed", "3"]
    assert _experiment_report(argv + ["--chunk-shots", str(chunk)]) == _experiment_report(argv)


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("tau 0.9\nomega = 19.38\ng 18\ngp -18\nmu 6.5\n# comment\n")
    code, out1 = run_cli(["point", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out1)
    assert doc["env"]["g"] == 18.0
    code, out2 = run_cli(["point", "--config", str(cfg), "--g", "10"], capsys)
    doc = json.loads(out2)
    assert doc["env"]["g"] == 10.0  # explicit flag wins


@pytest.mark.parametrize("command, key", [("point", "xii"), ("experiment", "chunk_shot"), ("point", "out"),
                                          ("experiment", "dump"), ("point", "config")])
def test_a_config_key_that_no_subcommand_reads_exits_2_naming_it(capsys, tmp_path, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n 1\nshots 100\n{key} 4096\nmu 52\n")
    code, out = run_cli([command, "--config", str(cfg)], capsys)
    message = json.loads(out)["error"]["message"]
    assert code == 2 and message.startswith(f"{cfg}:3: ") and repr(key) in message


def test_a_config_key_of_another_subcommand_is_accepted(capsys, tmp_path):
    # one defaults file can serve every subcommand: point ignores scan's protocol
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("n 3\nc 1\ncp 1\nmu 52\nxi 0.97\nprotocol qkd\nchunk-shots 128\n")
    assert run_cli(["point", "--config", str(cfg)], capsys) == run_cli(README_POINT, capsys)


# per subcommand, a run given by value options alone (the axes, --protocol or
# --metric and --chunk-shots among them) and one flag that changes its output
_CONFIG_RUNS = {
    "scan": (["--protocol", "qkd", "--tau", "0.9", "--omega", "19.38", "--g", "-19:19:9.5", "--gp", "-19:19:9.5",
              "--mu", "52", "--xi", "0.97", "--threads", "2"], ("--xi", "0.9")),
    "thresholds": (["--metric", "qkd", "--n", "2.5", "--mu", "52", "--cp", "0.6:1:0.2", "--c", "0:1:0.05"],
                   ("--cp", "0.8")),
    "experiment": (["--n", "1:2:1", "--mu", "52", "--c", "0.6", "--cp", "0.4", "--eta", "0.98", "--xi", "0.97",
                    "--shots", "500", "--seed", "3", "--chunk-shots", "128"], ("--seed", "4")),
}


@pytest.mark.parametrize("command", sorted(_CONFIG_RUNS))
def test_a_config_file_equals_its_flags_and_a_flag_wins(capsys, tmp_path, command):
    flags, (option, value) = _CONFIG_RUNS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]} {text}\n" for flag, text in zip(flags[::2], flags[1::2])))
    by_flags = run_cli([command, *flags], capsys)
    assert by_flags[0] == 0
    assert run_cli([command, "--config", str(cfg)], capsys) == by_flags
    overridden = run_cli(_with_option([command, *flags], option, value), capsys)
    assert overridden[0] == 0 and overridden != by_flags
    assert run_cli([command, "--config", str(cfg), option, value], capsys) == overridden


def test_every_option_is_read_through_resolve():
    # flag > config file > default is applied in one place: a handler reads
    # ``args`` directly only for --out, --dump and --config, which no file
    # sets, and the parsed file only inside _resolve and main
    found = []
    for top in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args" and (
                    node.attr not in ("out", "dump", "config", "func", "_config")
                    or node.attr == "_config" and scope not in ("_resolve", "main")):
                found.append(f"{scope}:{node.lineno}: {ast.unparse(node)}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args and (
                    node.func.id == "str" and isinstance(node.args[0], ast.Call)
                    and ast.unparse(node.args[0].func) == "_resolve"
                    or node.func.id == "getattr" and scope != "_resolve" and ast.unparse(node.args[0]) == "args"):
                found.append(f"{scope}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


README_POINT = ["point", "--n", "3", "--c", "1", "--cp", "1", "--mu", "52", "--xi", "0.97"]


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one in-process call, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_carries_no_state_between_calls(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "env.cfg"
    cfg.write_text("tau 0.9\nomega = 19.38\ng 18\ngp -18\nmu 6.5\n")
    sequence = [
        ["point", "--config", str(cfg)],
        ["point", "--g", "10"],  # the file's tau, omega and mu must not carry over
        ["point", "--n", "1", "--mu"],  # argparse exits: --mu needs a value
        README_POINT,
    ]
    shared = [_outcome(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in shared] == [0, 2, 2, 0]
    assert shared[2][1] == "" and "expected one argument" in shared[2][2]
    for argv, outcome in zip(sequence, shared):
        cli.build_parser.cache_clear()
        assert _outcome(argv, capsys) == outcome, argv


def _top_level_outcome(argv, capsys):
    """Exit code, stdout and stderr of the top-level parser's own parse of ``argv``."""
    try:
        cli.build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_named_subcommand_parses_its_own_options_as_the_top_level_parser_did(capsys, command):
    direct = _outcome([command, "--help"], capsys)
    assert direct == _top_level_outcome([command, "--help"], capsys) and direct[0] == 0
    for argv in _OPTION_BASES[command]:  # one namespace, less the top-level parser's command
        routed = vars(cli.build_parser().parse_args(argv))
        assert routed.pop("command") == command
        assert vars(cli.build_parser().commands[command].parse_args(argv[1:])) == routed


@pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["--help"], 0), (["nope"], 2),
                                        (["nope", "--n", "1"], 2), (["--n", "1", "point"], 2)])
def test_an_argv_naming_no_subcommand_gets_the_top_level_usage(capsys, argv, code):
    outcome = _outcome(argv, capsys)
    assert outcome == _top_level_outcome(argv, capsys) and outcome[0] == code
    assert (outcome[1] or outcome[2]).startswith("usage: cvrelay [-h] {point,scan,thresholds,experiment}")


def test_module_entry_point_matches_in_process_main(capsys):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(argv):
        return subprocess.run([sys.executable, "-m", "cvrelay", *argv], capture_output=True, env=env,
                              timeout=60)

    proc = run(README_POINT)
    code, out = run_cli(README_POINT, capsys)
    assert proc.returncode == code == 0 and proc.stdout == out.encode()
    proc = run(["point", "--n", "1", "--mu", "-inf"])
    assert proc.returncode == 2 and json.loads(proc.stdout)["error"]["code"] == 2


def test_numeric_formatting_is_12_significant_digits(capsys):
    _, out = run_cli(
        ["point", "--tau", "0.9", "--omega", "19.38", "--g", "18", "--gp", "-18",
         "--mu", "6.5"],
        capsys,
    )
    doc = json.loads(out)
    eps = doc["report"]["epsilon"]
    assert eps == float(f"{eps:.12g}")


_FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, float(2**53 + 1), 1.0 / 3.0, 0.1]


def _json_rule(value):
    """The JSON value a report entry stands for: a float as float(_fmt(v)) if
    finite, else as the _fmt(v) text; integers and bools exact; tuples as
    lists and ndarrays flat in row-major order, at any depth."""
    from cvrelay.cli import _fmt

    if isinstance(value, (float, np.floating)):
        return float(_fmt(value)) if math.isfinite(value) else _fmt(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {k: _json_rule(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.reshape(-1).tolist()
    return [_json_rule(v) for v in value] if isinstance(value, (list, tuple)) else value


_JSON_LEAVES = st.one_of(
    st.sampled_from(_FLOAT_EDGES), st.floats(), st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.sampled_from([2**53 + 1, np.int64(2**53 + 1), -(2**63), 0, True, False, np.bool_(True), np.bool_(False),
                     None, "", 'quote " backslash \\ newline \n tab \t nul \x00', "κ′ ≥ 1 ω", "\ud800"]),
    st.text(max_size=6),
    st.lists(st.floats(), min_size=16, max_size=16).map(lambda v: np.array(v).reshape(4, 4)),
)


@given(st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4)), max_leaves=24))
@example({"a": {}, "b": [], "c": ()})
@example([math.nan, math.inf, -math.inf, -0.0, np.float32(0.1)])
def test_json_writes_the_bytes_of_json_dumps_under_the_fmt_rule(value):
    from cvrelay.cli import _json

    assert _json(value) == json.dumps(_json_rule(value), indent=2)


def test_column_formatter_equals_the_value_formatter():
    from cvrelay.cli import _block_rows, _fmt, _fmt_all

    floats = np.array([0.25, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1.23456789012e14, 1.0 / 3.0])
    assert _fmt_all(floats) == ["0.25", "-0", "nan", "inf", "-inf", "1e-300", "1.23456789012e+14",
                                "0.333333333333"]
    assert _fmt_all(floats) == [_fmt(v) for v in floats.tolist()]
    # the other dtypes a scan prints, through the block renderer
    for column in (floats, np.array([True, False]), np.array([0, -7, 2**40]), np.array([3], dtype=np.uint8)):
        head = [np.array(["x"] * len(column), dtype=object)]
        assert _block_rows(head, np.ones(len(column), dtype=bool), [column], ["value"]) == "".join(
            f"x,1,{_fmt(v)}\r\n" for v in column.tolist())


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                2.0**53 + 1]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_axes=st.sampled_from([1, 2]), n=st.integers(1, 9),
       mask=st.sampled_from(["all", "none", "single", "any"]))
def test_block_renderer_equals_the_value_formatter_row_by_row(data, n_axes, n, mask):
    # every rendered row is the row of _fmt values a scan prints, with
    # blanks for the metric cells of a non-physical row
    from cvrelay import entanglement as ent
    from cvrelay import protocols as prot
    from cvrelay.cli import _block_rows, _fmt

    if mask == "single":
        physical = np.arange(n) == data.draw(st.integers(0, n - 1))
    elif mask == "any":
        physical = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        physical = np.full(n, mask == "all")
    head = [np.array(data.draw(st.lists(st.sampled_from(["-0", "0.5", "1e-300", "19.38"]), min_size=n,
                                        max_size=n)), dtype=object) for _ in range(n_axes)]

    def column(values, dtype):
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    columns = {  # name: (every cell's value, the value _fmt prints)
        "separable": (column(st.booleans(), bool), bool),
        "key_rate": (column(st.floats() | st.sampled_from(_EDGE_FLOATS), float), float),
        "tri_class": (column(st.integers(-2**62, 2**62), np.int64), int),
        "qkd_ok": (column(st.integers(0, 2), np.int8), prot.FLAG_VALUES.__getitem__),
        "region": (column(st.integers(0, len(ent.REGIONS) - 1), np.int8), ent.REGIONS.__getitem__),
    }
    rendered = _block_rows(head, physical, [values[physical] for values, _ in columns.values()], list(columns))
    rows = []
    for i in range(n):
        metrics = [_fmt(value(values[i].item())) if physical[i] else "" for values, value in columns.values()]
        rows.append(",".join([*(h[i] for h in head), _fmt(physical[i]), *metrics]) + "\r\n")
    assert rendered == "".join(rows)


@pytest.mark.parametrize("axes", [
    [[-0.0, 1e-300, 0.5, 2.0]],  # an additive n axis
    [[0.25, -0.0, 1e-300], [1.0 / 3.0, -0.0, 1e-300, -2.5, 7.0]],  # a ragged 3x5 plane
])
def test_coordinate_text_equals_the_value_formatter_of_every_grid_cell(axes):
    from cvrelay.cli import _coordinate_columns, _fmt, _fmt_all

    axes = [np.array(a) for a in axes]
    axis_text = [np.array(_fmt_all(a), dtype=object) for a in axes]
    grid = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
    # the whole grid, and a block that starts and ends inside rows
    for cells in (np.arange(len(grid[0])), np.arange(2, len(grid[0]) - 1)):
        columns = _coordinate_columns(axis_text, cells)
        assert [c.tolist() for c in columns] == [[_fmt(v) for v in g[cells].tolist()] for g in grid]


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(
        ["point", "--n", "1", "--mu", "52", "--out", str(path)], capsys
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["env"]["kind"] == "additive"
    # one env schema for both families: kind, the family's fields, separable and boundary
    _, out = run_cli(["point", *THERMAL, "--g", "18", "--gp", "-18", "--mu", "6.5"], capsys)
    thermal = json.loads(out)["env"]
    shared = [[key for key in env if key not in {f.name for f in dataclasses.fields(family)}]
              for env, family in ((doc["env"], envs.AdditiveEnvironment), (thermal, envs.ThermalEnvironment))]
    assert shared == [["kind", "separable", "boundary"]] * 2
    assert doc["env"]["separable"] is True and doc["env"]["boundary"] is False


def test_thresholds_additive_family(capsys):
    code, out = run_cli(
        ["thresholds", "--metric", "qkd", "--n", "2.5", "--mu", "52", "--xi", "1",
         "--cp", "0.6:1:0.2", "--c", "0:1:0.02"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "cp,c,metric"
    assert len(lines) >= 2
    from cvrelay.environments import AdditiveEnvironment
    from cvrelay.protocols import SwapInput, qkd_rate

    for line in lines[1:]:
        cp, c, name = line.split(",")
        assert name == "qkd"
        rate = qkd_rate(SwapInput(52.0, AdditiveEnvironment(2.5, float(c), float(cp))), 1.0)
        assert abs(rate) < 1e-3  # sits on the R = 0 contour


def test_scan_bipartite_and_tripartite(capsys):
    code, out = run_cli(
        ["scan", "--protocol", "bipartite", "--tau", "0.9", "--omega", "19.38",
         "--mu", "6.5", "--g", "0:18:9", "--gp", "-18:0:9"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "g,gp,physical,separable,boundary,logneg_aAp,logneg_aBp,logneg_ab,logneg_ApBp"
    code, out = run_cli(
        ["scan", "--protocol", "tripartite", "--tau", "0.9", "--omega", "19.38",
         "--mu", "20", "--g", "0:18:9", "--gp", "-18:0:9"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "g,gp,physical,separable,boundary,tri_class,tri_certified"
    verdicts = {line.split(",")[5] for line in lines[1:] if line.split(",")[2] == "1"}
    assert verdicts <= {"1", "2", "3", "4", "5"}


def test_scan_requires_finite_mu_for_state_classifiers(capsys):
    code, out = run_cli(
        ["scan", "--protocol", "tripartite", "--tau", "0.9", "--omega", "19.38",
         "--mu", "inf", "--g", "0:1:1", "--gp", "0:1:1"],
        capsys,
    )
    assert code == 2


def test_scan_nested_protocol_areas(capsys):
    # asymptotic scan: positive-rate region inside distillable region inside
    # swappable region, with strictly decreasing cell counts
    common = ["--tau", "0.9", "--omega", "19.38", "--g", "-19:19:2",
              "--gp", "-19:19:2"]
    _, swap_out = run_cli(["scan", "--protocol", "swap", "--mu", "inf"] + common, capsys)
    _, dist_out = run_cli(["scan", "--protocol", "distill", "--mu", "inf"] + common, capsys)
    _, qkd_out = run_cli(["scan", "--protocol", "qkd-asymptotic"] + common, capsys)

    def cells(out, col, pred):
        rows = [r.split(",") for r in out.strip().split("\r\n")[1:]]
        header = out.split("\r\n", 1)[0].split(",")
        idx = header.index(col)
        count = 0
        for row in rows:
            if row[2] == "1" and row[3] == "1" and row[idx] not in ("", "inf", "-inf"):
                count += pred(float(row[idx]))
        return count

    n_swap = cells(swap_out, "epsilon", lambda v: v < 1.0)
    n_dist = cells(dist_out, "coherent_info", lambda v: v > 0.0)
    n_qkd = cells(qkd_out, "rate_lb", lambda v: v > 0.0)
    assert 0 < n_qkd < n_dist < n_swap


def test_scan_quad_ring_topology(capsys):
    _, out = run_cli(
        ["scan", "--protocol", "quad-entanglement", "--tau", "0.9",
         "--omega", "19.38", "--g", "-19:19:1", "--gp", "-19:19:1"],
        capsys,
    )
    rows = [r.split(",") for r in out.strip().split("\r\n")[1:]]
    by_coord = {(r[0], r[1]): r for r in rows}
    assert by_coord[("0", "0")][8] == "I"  # gray ring surrounds the origin
    regions = {r[8] for r in rows if r[2] == "1" and r[3] == "1"}
    assert {"I", "IV"} <= regions


THERMAL = ["--tau", "0.9", "--omega", "19.38"]


@pytest.mark.parametrize("axis", ["nan:1:1", "0:inf:1", "0:1:nan"])
def test_scan_rejects_non_finite_axes(capsys, axis):
    code, out = run_cli(["scan", "--protocol", "swap", *THERMAL, "--mu", "6.5",
                         "--g", axis, "--gp", "0:1:1"], capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("grid", [
    ["--n", "1", "--c", "0:1:1e-300", "--cp", "0:1:1"],
    ["--n", "1", "--c", "-1e308:1e308:1", "--cp", "0:1:1"],
    [*THERMAL, "--g", "0:1999:1", "--gp", "0:1999:1"],  # each axis fits, the grid does not
])
def test_scan_rejects_grids_above_the_cell_cap(capsys, grid):
    code, out = run_cli(["scan", "--protocol", "swap", "--mu", "6.5", *grid], capsys)
    assert code == 2 and "exceeds" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("family", [
    ["--tau", "0.9", "--g", "0:19:1", "--gp", "0"],
    ["--c", "0:1:0.1", "--cp", "0.5"],
])
def test_thresholds_without_required_family_flags(capsys, family):
    code, out = run_cli(["thresholds", "--metric", "swap", "--mu", "6.5", *family], capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_exits_2(capsys, tmp_path, name):
    code, out = run_cli(["point", "--config", str(tmp_path / name), "--n", "1", "--mu", "2"], capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("argv", [
    ["point", *THERMAL, "--g", "1", "--gp", "0", "--mu", "6.5", "--omega", "nan"],
    ["point", *THERMAL, "--g", "nan", "--gp", "0", "--mu", "6.5"],
    ["point", "--n", "1", "--mu", "nan"],
    ["point", "--n", "inf", "--mu", "6.5"],
    ["point", "--n", "1", "--mu=-inf"],
    ["point", *THERMAL, "--g", "1", "--gp", "0", "--mu", "inf", "--xi", "abc"],
    ["scan", "--protocol", "swap", "--tau", "1.5", "--omega", "19.38", "--mu", "6.5",
     "--g", "0:1:1", "--gp", "0:1:1"],
    ["scan", "--protocol", "qkd", "--tau", "0.9", "--omega", "0.5", "--mu", "6.5",
     "--g", "0:1:1", "--gp", "0:1:1"],
    ["scan", "--protocol", "qkd", "--n", "-1", "--mu", "6.5", "--c", "0:1:1", "--cp", "0:1:1"],
    ["thresholds", "--metric", "qkd", "--tau", "1.5", "--omega", "19.38", "--mu", "6.5",
     "--gp", "0", "--g", "0:1:0.5"],
    ["point", "--n", "1", "--mu", "6.5", "--xi", "abc"],
    ["experiment", "--n", "1", "--mu", "abc", "--shots", "10"],
    ["experiment", "--n", "1", "--mu", "nan", "--shots", "10"],
    ["experiment", "--n", "1", "--shots", "1000", "--eta", "-1e-3"],
    ["experiment", "--n", "1", "--shots", "-1e-3"],
    ["experiment", "--n", "1", "--shots", "1000", "--seed", "-1e-3"],
    ["experiment", "--n", "1", "--shots", "1000", "--chunk-shots", "-1e-3"],
    ["scan", "--protocol", "swap", "--n", "1", "--mu", "6.5", "--c", "0:1:1", "--cp", "0:1:1",
     "--threads", "-1e-3"],
    ["scan", "--protocol", "swap", *THERMAL, "--mu", "6.5", "--g", "0:1", "--gp", "0:1:1"],
    ["scan", "--protocol", "swap", *THERMAL, "--mu", "6.5", "--g", "1:0:0.5", "--gp", "0:1:1"],
    ["point", "--config", "{bare_omega}", "--g", "1", "--gp", "0", "--mu", "6.5"],
    ["point", *THERMAL, "--g", "1", "--gp", "0"],
    ["thresholds", "--metric", "qkd", "--n", "0:2:1", "--c", "0:1:0.5", "--cp", "0", "--mu", "52"],
    ["scan", "--protocol", "nope", *THERMAL, "--mu", "6.5", "--g", "0:1:1", "--gp", "0:1:1"],
    ["scan", "--protocol", "quad-entanglement", "--n", "1", "--c", "0:1:1", "--cp", "0:1:1"],
    ["scan", "--protocol", "swap", *THERMAL, "--mu", "6.5", "--g", "1", "--gp", "0:1:1"],
    ["thresholds", "--metric", "nope", *THERMAL, "--mu", "52", "--gp", "0", "--g", "0:1:0.5"],
    ["thresholds", "--metric", "qkd-lb", *THERMAL, "--mu", "52", "--gp", "0", "--g", "0:1:0.5"],
    ["thresholds", "--metric", "qkd", *THERMAL, "--mu", "52", "--gp", "0:1:0.5", "--g", "0"],
    ["experiment", "--n", "1:2:1", "--shots", "10", "--dump", "{dump}"],
    ["point", *THERMAL, "--g", "-inf", "--gp", "0", "--mu", "6.5"],
    ["point", "--n", "1", "--mu", "-Infinity"],
    ["point", "--n", "-nan", "--mu", "6.5"],
    ["scan", "--protocol", "swap", "--n", "1", "--mu", "6.5", "--c", "-inf:0:0.5", "--cp", "0:1:1"],
    ["scan", "--protocol", "swap", *THERMAL, "--mu", "6.5", "--g", "-1:-INF:1", "--gp", "0:1:1"],
    ["thresholds", "--metric", "qkd", *THERMAL, "--mu", "52", "--gp", "-INFINITY", "--g", "0:1:0.5"],
    ["experiment", "--n", "1", "--c", "-NaN", "--shots", "10"],
    ["point", "--n", "1", "--c", "-1_0", "--mu", "6.5"],
    # no cell is physical, and omega lies below omega_EB
    ["scan", "--protocol", "quad-entanglement", "--tau", "0.9", "--omega", "10", "--g", "50:60:5",
     "--gp", "50:60:5"],
])
def test_non_finite_or_invalid_parameters_exit_2(capsys, tmp_path, argv):
    (tmp_path / "bare.cfg").write_text("omega\n", encoding="utf-8")  # a key without a value
    paths = {"bare_omega": tmp_path / "bare.cfg", "dump": tmp_path / "shots.csv"}
    code, out = run_cli([a.format_map(paths) for a in argv], capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


_PLANE = [*THERMAL, "--g", "-1:1:1", "--gp", "-1:1:1"]


@pytest.mark.parametrize("argv", [
    ["point", "--n", "1", "--mu", "inf", "--xi", "0"],
    ["point", "--n", "1", "--mu", "inf", "--xi", "nan"],
    ["point", "--n", "1", "--mu", "inf", "--xi", "7"],
    ["scan", "--protocol", "qkd-asymptotic", *_PLANE, "--xi", "0"],
    ["scan", "--protocol", "quad-entanglement", *_PLANE, "--xi", "nan"],
    ["scan", "--protocol", "tripartite", *_PLANE, "--mu", "52", "--xi", "0"],
    ["thresholds", "--metric", "qkd-lb", *THERMAL, "--mu", "inf", "--xi", "0", "--gp", "0", "--g", "0:1:0.5"],
    ["scan", "--protocol", "qkd-asymptotic", *_PLANE, "--mu", "nan"],
    ["scan", "--protocol", "qkd-asymptotic", *_PLANE, "--mu", "-5"],
    ["scan", "--protocol", "qkd-asymptotic", *_PLANE, "--mu", "0.5"],
])
def test_an_invalid_xi_or_mu_exits_2_where_the_analysis_ignores_it(capsys, argv):
    # --xi lies in (0, 1] and a given --mu is >= 1 or inf on every path that
    # takes them, as on the paths that evaluate them
    code, out = run_cli(argv, capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("argv, ignored", [
    (["point", "--n", "1", "--mu", "inf"], ["--xi", "0.5"]),
    (["scan", "--protocol", "qkd-asymptotic", *_PLANE], ["--mu", "52", "--xi", "0.5"]),
])
def test_a_valid_xi_or_mu_stays_ignored_where_the_analysis_does_not_read_it(capsys, argv, ignored):
    expected = run_cli(argv, capsys)
    assert expected[0] == 0 and run_cli(argv + ignored, capsys) == expected


# A valid command of each family per subcommand: (thermal, additive), or the
# one family a subcommand takes.  Thermal wins when both are given, so an
# additive option is exercised on the last command.
_OPTION_BASES = {
    "point": (["point", *THERMAL, "--g", "1", "--gp", "0", "--mu", "6.5"],
              ["point", "--n", "1", "--c", "0.5", "--cp", "0", "--mu", "6.5"]),
    "scan": (["scan", "--protocol", "swap", *THERMAL, "--g", "0:1:1", "--gp", "0:1:1", "--mu", "6.5"],
             ["scan", "--protocol", "swap", "--n", "1", "--c", "0:1:1", "--cp", "0:1:1", "--mu", "6.5"]),
    "thresholds": (["thresholds", "--metric", "qkd", *THERMAL, "--mu", "52", "--gp", "0", "--g", "0:1:0.5"],
                   ["thresholds", "--metric", "qkd", "--n", "2.5", "--mu", "52", "--cp", "0", "--c", "0:1:0.5"]),
    "experiment": (["experiment", "--n", "1", "--shots", "10"],),
}


def _registered_options(command) -> list:
    """The long options the shared parser registers for one subcommand."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [s for a in sub.choices[command]._actions for s in a.option_strings
            if s != "--help" and s.startswith("--")]


def _with_option(argv, option, value) -> list:
    if option not in argv:
        return [*argv, option, value]
    at = argv.index(option) + 1
    return [*argv[:at], value, *argv[at + 1:]]


@pytest.mark.parametrize("command", sorted(_OPTION_BASES))
def test_every_registered_option_is_read_by_its_subcommand(capsys, command):
    # a value no option accepts must reach the handler's JSON exit-2 error
    bases = _OPTION_BASES[command]
    for base in bases:
        assert run_cli(base, capsys)[0] == 0, base
    options = [o for o in _registered_options(command) if o not in ("--config", "--out", "--dump")]
    assert options
    for option in options:
        argv = _with_option(bases[-1] if option in ("--n", "--c", "--cp") else bases[0], option, "abc")
        code, out = run_cli(argv, capsys)
        assert code == 2 and json.loads(out)["error"]["code"] == 2, argv


@pytest.mark.parametrize("argv", [
    ["experiment", "--tau", "0.9", "--omega", "19.38", "--n", "1", "--shots", "10"],
    ["point", "--n", "1", "--mu", "6.5", "--phi", "6.5"],
    ["point", *THERMAL, "--g", "1", "--gp", "0", "--mu", "inf", "--phi", "3"],
])
def test_an_option_the_subcommand_does_not_take_is_a_usage_error(capsys, argv):
    code, out, err = _outcome(argv, capsys)
    assert code == 2 and out == "" and "unrecognized arguments" in err
    # the subcommand's own usage and error lines
    assert err.startswith(f"usage: cvrelay {argv[0]} [-h]") and f"\ncvrelay {argv[0]}: error: " in err


# Grids for the parity test, each with the kinds of row it must produce: cells
# on the physicality and separability boundaries (omega - |g| = 1 at the
# corners of the first plane), non-physical cells, and "marginal" flags, which
# the point n = 1, c = c' = 0 gives at every mu (epsilon = 1 exactly).  The mu
# values of the test include mu = 1, where the fidelity is pinned to 1/2.
PARITY_GRIDS = {
    "thermal-boundary": ([*THERMAL, "--g", "-18.38:18.38:9.19", "--gp", "-18.38:18.38:9.19"],
                         {"boundary"}),
    "thermal-wide": ([*THERMAL, "--g", "-25:25:5", "--gp", "-25:25:5"], {"nonphysical"}),
    "c-plane": (["--n", "1", "--c", "-1.5:1.5:0.5", "--cp", "-1.5:1.5:0.5"],
                {"nonphysical", "marginal"}),
    "n-axis": (["--n", "-1:3:0.5", "--c", "0.5", "--cp", "-0.5"], {"nonphysical"}),
}
CLOSED_FORM_COLUMNS = {
    "swap": lambda r: [r.epsilon, r.log_neg, r.flags["swap_ok"]],
    "teleport": lambda r: [r.fidelity, r.flags["tele_quantum"]],
    "distill": lambda r: [r.coherent_info, r.flags["distill_ok"]],
    "qkd": lambda r: [r.key_rate, r.flags["qkd_ok"]],
}


def _reference_row(protocol, grid, coords, mu, xi):
    """One scan row through the per-point API: environment, report, classifier."""
    from cvrelay import entanglement as ent
    from cvrelay import environments as envs
    from cvrelay import protocols as prot
    from cvrelay.cli import _METRIC_COLUMNS, _fmt
    from cvrelay.gaussian import ValidationError

    flags = dict(zip(grid[0::2], grid[1::2]))
    names = [name for name in ("g", "gp", "n", "c", "cp") if ":" in flags.get("--" + name, "")]
    params = {k[2:]: float(v) for k, v in flags.items() if k[2:] not in names}
    params.update(zip(names, coords))
    thermal = "tau" in params
    try:
        env = (envs.ThermalEnvironment if thermal else envs.AdditiveEnvironment)(**params)
    except ValidationError:
        row = [*coords, False, None, None] + [None] * len(_METRIC_COLUMNS[protocol])
        return ",".join(_fmt(v) for v in row)
    row = [*coords, True, env.is_separable if thermal else True, env.is_boundary if thermal else False]
    if protocol == "quad-entanglement" and mu == "inf":
        region = ent.quadripartite_classify(env)
        row += [envs.env_mutual_information(env), region.sigma_prime, region.sigma_double_prime,
                region.region]
    elif protocol == "quad-entanglement":
        sigma_a, sigma_ap, region = ent.quadripartite_numeric_regions(
            prot.evolved_cm(prot.SwapInput(float(mu), env)))
        row += [envs.env_mutual_information(env), sigma_a, sigma_ap, ent.REGIONS[region]]
    elif protocol == "bipartite":
        row += ent._link_log_negativities(float(mu), *type(env).links(**vars(env)))
    elif protocol == "tripartite":
        cm = prot.evolved_cm(prot.SwapInput(float(mu), env))
        verdict = ent.tripartite_classify(cm.reduced((0, 2, 3)))
        row += [verdict.class_id, verdict.certified]
    elif protocol == "qkd-asymptotic":
        r = prot.protocol_report_asymptotic(env)
        row += [r.epsilon, r.key_rate, r.key_rate_lb, r.flags["qkd_ok"]]
    else:
        r = (prot.protocol_report_asymptotic(env) if mu == "inf"
             else prot.protocol_report(prot.SwapInput(float(mu), env), xi))
        row += CLOSED_FORM_COLUMNS[protocol](r)
    return ",".join(_fmt(v) for v in row)


def _rows_checked_against_reference(protocol, mu, grid, capsys):
    """Run one scan and compare every row with ``_reference_row``; returns the
    index of the "physical" column and every row's fields."""
    code, out = run_cli(["scan", "--protocol", protocol, "--mu", mu, "--xi", "0.97", *grid], capsys)
    assert code == 0
    lines = out.split("\r\n")
    assert lines[-1] == ""
    width = lines[0].split(",").index("physical")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        coords = [float(v) for v in fields[:width]]
        assert line == _reference_row(protocol, grid, coords, mu, 0.97), (protocol, mu)
        rows.append(fields)
    return width, rows


@pytest.mark.parametrize("name", PARITY_GRIDS)
def test_scan_rows_match_the_per_point_api(capsys, name):
    grid, features = PARITY_GRIDS[name]
    seen = set()
    runs = [(p, mu) for p in CLOSED_FORM_COLUMNS for mu in ("1", "6.5", "inf")]
    runs.append(("qkd-asymptotic", "inf"))
    if "--tau" in grid:
        runs.append(("quad-entanglement", "inf"))
    for protocol, mu in runs:
        width, rows = _rows_checked_against_reference(protocol, mu, grid, capsys)
        for fields in rows:
            seen.update({"nonphysical"} if fields[width] == "0" else set())
            seen.update({"boundary"} if fields[width + 2] == "1" else set())
            if mu != "1" and "marginal" in fields:
                seen.add("marginal")
            if protocol == "teleport" and mu == "1" and fields[width] == "1":
                assert fields[width + 3] == "0.5"
    assert features <= seen


# Finite-mu matrix scans against the per-cell library calls.  The first plane
# sits just above omega_EB with non-physical, one-mode biseparable (class 2)
# and fully separable (class 5) cells.  In the second, the eight cells
# (+-14.5, +-2.5) and (+-2.5, +-14.5) at mu = 6.5 pass every PPT test but not
# the vacuum witness, so the search over squeezed pure states decides them.
MATRIX_GRIDS = {
    "thermal-above-eb": ([*THERMAL, "--g", "-20:20:2.5", "--gp", "-20:20:2.5"],
                         {"nonphysical", "class 2", "class 5"}),
    "thermal-witness-search": (["--tau", "0.9", "--omega", "20.5", "--g", "-14.5:-2.5:12",
                                "--gp", "-14.5:14.5:1"], {"class 5"}),
    "c-plane": (PARITY_GRIDS["c-plane"][0], {"nonphysical", "entangled pair"}),
    "n-axis": (PARITY_GRIDS["n-axis"][0], {"nonphysical", "entangled pair"}),
}


@pytest.mark.parametrize("name", MATRIX_GRIDS)
def test_matrix_scan_rows_match_the_per_cell_api(capsys, name):
    grid, features = MATRIX_GRIDS[name]
    protocols = ["bipartite", "tripartite"] + (["quad-entanglement"] if "--tau" in grid else [])
    seen = set()
    for protocol in protocols:
        for mu in ("1", "6.5", "52"):
            width, rows = _rows_checked_against_reference(protocol, mu, grid, capsys)
            for fields in rows:
                if fields[width] == "0":
                    seen.add("nonphysical")
                elif protocol == "tripartite":
                    seen.add(f"class {fields[width + 3]}")
                elif protocol == "bipartite" and any(float(v) > 0.0 for v in fields[width + 3:]):
                    seen.add("entangled pair")
    assert features <= seen


@pytest.mark.parametrize("protocol, mu", [
    *(pytest.param(p, "6.5", id=p) for p in ("quad-entanglement", "bipartite", "tripartite")),
    pytest.param("quad-entanglement", "inf", id="quad-entanglement-asymptotic"),
])
def test_matrix_scan_output_does_not_depend_on_the_block_size(capsys, monkeypatch, protocol, mu):
    argv = ["scan", "--protocol", protocol, "--mu", mu, *MATRIX_GRIDS["thermal-above-eb"][0]]
    whole = run_cli(argv, capsys)
    monkeypatch.setattr("cvrelay.cli.MATRIX_BLOCK", 7)
    assert run_cli(argv, capsys) == whole


@pytest.mark.parametrize("protocol", ["swap", "qkd-asymptotic"])
@pytest.mark.parametrize("grid", ["c-plane", "n-axis"])
def test_closed_form_scan_output_does_not_depend_on_the_block_size(capsys, monkeypatch, protocol, grid):
    # the scan writes its rows MATRIX_BLOCK at a time; blocks of 1 and 7 rows
    # start and end inside the runs of non-physical cells
    argv = ["scan", "--protocol", protocol, "--mu", "6.5", *PARITY_GRIDS[grid][0]]
    whole = run_cli(argv, capsys)
    for block in (1, 7):
        monkeypatch.setattr("cvrelay.cli.MATRIX_BLOCK", block)
        assert run_cli(argv, capsys) == whole


@pytest.mark.parametrize("argv", [
    ["--protocol", "qkd", "--mu", "52", *PARITY_GRIDS["c-plane"][0]],
    ["--protocol", "quad-entanglement", *MATRIX_GRIDS["thermal-above-eb"][0]],
    ["--protocol", "bipartite", "--mu", "6.5", *MATRIX_GRIDS["thermal-above-eb"][0]],
])
def test_scan_evaluates_one_block_of_cells_at_a_time(capsys, monkeypatch, argv):
    # the masks see every grid cell once, the protocol's evaluator every
    # physical cell once, and no call more than MATRIX_BLOCK cells
    from cvrelay import entanglement as ent
    from cvrelay import environments as envs
    from cvrelay import protocols as prot

    cells = {"masks": [], "evaluator": []}

    def spy(func, name, count):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            cells[name].append(count(result, *args))
            return result
        return counted

    for family in (envs.ThermalEnvironment, envs.AdditiveEnvironment):
        monkeypatch.setattr(family, "masks", staticmethod(spy(family.masks, "masks", lambda r: r[0].size)))
    # relay_metrics returns only the printed keys: count its kappa argument
    monkeypatch.setattr(prot, "relay_metrics",
                        spy(prot.relay_metrics, "evaluator", lambda m, mu, k, *rest: np.size(k)))
    monkeypatch.setattr(ent, "_link_log_negativities",
                        spy(ent._link_log_negativities, "evaluator", lambda cols, *args: len(cols[0])))
    monkeypatch.setattr(envs, "thermal_mutual_information",
                        spy(envs.thermal_mutual_information, "evaluator", lambda r, *args: np.size(r)))
    monkeypatch.setattr("cvrelay.cli.MATRIX_BLOCK", 7)
    code, out = run_cli(["scan", *argv], capsys)
    header, *rows = (line.split(",") for line in out.split("\r\n")[:-1])
    physical = sum(row[header.index("physical")] == "1" for row in rows)
    assert code == 0 and 0 < physical < len(rows)
    assert len(cells["masks"]) > 1 and max(cells["masks"]) <= 7 and sum(cells["masks"]) == len(rows)
    assert len(cells["evaluator"]) == len(cells["masks"]) and max(cells["evaluator"]) <= 7
    assert sum(cells["evaluator"]) == physical


def test_scan_spells_the_flag_codes(capsys):
    from cvrelay import protocols as prot
    from cvrelay.cli import _FLAG_TEXT

    guard = prot.FLAG_GUARD
    outside = np.nextafter(guard, np.inf)
    codes = prot._flag(np.array([guard, -guard, 0.0, outside, -outside]), 0.0, want_greater=True)
    assert _FLAG_TEXT.take(codes).tolist() == ["marginal", "marginal", "marginal", "1", "0"]
    # epsilon is exactly 1 at n = 1, c = c' = 0: swap_ok is marginal there only
    code, out = run_cli(["scan", "--protocol", "swap", "--n", "1", "--c", "-1:1:1", "--cp", "-1:1:1",
                         "--mu", "6.5"], capsys)
    assert code == 0
    flags = {tuple(row[:2]): row[-1] for row in (line.split(",") for line in out.split("\r\n")[1:-1])}
    assert flags == {("-1", "-1"): "1", ("-1", "0"): "0", ("-1", "1"): "0", ("0", "-1"): "1",
                     ("0", "0"): "marginal", ("0", "1"): "0", ("1", "-1"): "1", ("1", "0"): "1",
                     ("1", "1"): "1"}


def test_a_scan_that_exits_3_writes_no_out_file(capsys, monkeypatch, tmp_path):
    # every metric column is computed before the output file is opened; in the
    # second scan only the last block of 7 cells overflows (n >~ 5.79e76)
    path = tmp_path / "scan.csv"
    for block, grid in ((4096, ["--n", "1", "--c", "0:1:0.5", "--cp", "0:1:0.5", "--mu", "1e308"]),
                        (7, ["--n", "0:6e76:1e75", "--c", "0", "--cp", "0", "--mu", "52"])):
        monkeypatch.setattr("cvrelay.cli.MATRIX_BLOCK", block)
        code, out = run_cli(["scan", "--protocol", "qkd", *grid, "--out", str(path)], capsys)
        assert code == 3 and json.loads(out)["error"]["code"] == 3
        assert not path.exists()


@pytest.mark.parametrize("flag", ["--shots", "--seed", "--chunk-shots"])
def test_experiment_integer_flags_reject_non_integers(capsys, flag):
    flags = {"--shots": "10", flag: "1e3"}
    code, out = run_cli(["experiment", "--n", "1", *[t for kv in flags.items() for t in kv]], capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("argv", [
    ["--protocol", "bipartite", "--mu", "2388", "--n", "0:1:0.5", "--c", "0", "--cp", "0"],
    ["--protocol", "tripartite", "--mu", "1e6", "--n", "0.5", "--c", "0:1:0.5", "--cp", "0:1:0.5"],
])
def test_matrix_scans_accept_low_noise_states_at_large_mu(capsys, argv):
    # the rounding of the symplectic spectrum grows like mu^2 * eps here
    code, out = run_cli(["scan", *argv], capsys)
    assert code == 0
    header, *rows = out.strip().split("\r\n")
    physical = header.split(",").index("physical")
    assert rows and all(row.split(",")[physical] == "1" for row in rows)


def test_quad_entanglement_scan_fills_every_physical_cell_at_mu_1e10(capsys):
    # matrix entries ~1e10: every physical state must still pass validation
    code, out = run_cli(["scan", "--protocol", "quad-entanglement", "--tau", "0.9", "--omega", "19.38",
                         "--mu", "1e10", "--g", "-19:19:9.5", "--gp", "-19:19:9.5"], capsys)
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().split("\r\n"))
    physical = [row for row in rows if row[header.index("physical")] == "1"]
    assert len(physical) == 23
    assert all(cell not in ("", "nan") for row in physical for cell in row)


@pytest.mark.parametrize("mu", ["1e11", "1e12"])
def test_quad_entanglement_regions_are_the_verdicts_of_quadripartite_numeric(capsys, mu):
    # the PPT test eigenvalues carry an error of ~eps * mu here: a region is
    # "boundary" or the pair of 1x3 verdicts the library gives for that state
    from cvrelay import entanglement as ent
    from cvrelay import environments as envs
    from cvrelay import protocols as prot

    code, out = run_cli(["scan", "--protocol", "quad-entanglement", *THERMAL, "--g", "-19:19:0.5",
                         "--gp", "-19:19:0.5", "--mu", mu], capsys)
    assert code == 0
    header, *rows = (line.split(",") for line in out.split("\r\n")[:-1])
    rows = [row for row in rows if row[header.index("physical")] == "1"]
    g, gp = (np.array([float(row[k]) for row in rows]) for k in (0, 1))
    cm = prot.evolved_cm(float(mu), envs.ThermalEnvironment, {"tau": 0.9, "omega": 19.38, "g": g, "gp": gp})
    regions = {("separable-PPT", "separable-PPT"): "I", ("separable-PPT", "entangled"): "II",
               ("entangled", "separable-PPT"): "III", ("entangled", "entangled"): "IV"}
    seen = set()
    for row, m in zip(rows, cm.m):
        region = row[header.index("region")]
        seen.add(region)
        if region != "boundary":
            verdicts = (ent.quadripartite_numeric(m, "a"), ent.quadripartite_numeric(m, "Ap"))
            assert region == regions[verdicts], (row, verdicts)
    assert {"boundary", "I", "IV"} <= seen


@pytest.mark.parametrize("argv", [
    ["--protocol", "tripartite", "--n", "0", "--c", "0:1:0.5", "--cp", "0:1:0.5", "--mu", "1e12"],
    ["--protocol", "bipartite", "--n", "1e308", "--c", "-1:1:0.5", "--cp", "-1:1:0.5", "--mu", "52"],
    ["--protocol", "tripartite", "--n", "1e308", "--c", "-1:1:0.5", "--cp", "-1:1:0.5", "--mu", "52"],
    ["--protocol", "bipartite", "--n", "1", "--c", "-1:1:1", "--cp", "-1:1:1", "--mu", "1e200"],
])
def test_matrix_scans_beyond_float64_exit_3(capsys, argv):
    # every cell is physical, but a float64 matrix cannot hold these states,
    # or a factor of the bipartite closed form overflows: e + h = 2e308, or
    # mu^2 past 1.3e154, which would turn nu_aA' into 0 and its log into inf
    code, out = run_cli(["scan", *argv], capsys)
    error = json.loads(out)["error"]
    assert code == 3 and error["code"] == 3
    # mu and the fixed parameters, each named once, and no advice on --mu:
    # on the n = 1e308 planes it is n (1 + c) that overflows, at any mu
    assert error["message"].count("mu=") == 1 and f"mu={float(argv[-1]):g}," in error["message"]
    assert "--mu" not in error["message"]
    assert f", n={float(argv[argv.index('--n') + 1]):g} " in error["message"]


@pytest.mark.parametrize("argv", [
    ["--n", "0", "--c", "0:1:0.5", "--cp", "0:1:0.5", "--mu", "1e9"],
    ["--n", "1e300", "--c", "-1:1:0.5", "--cp", "-1:1:0.5", "--mu", "52"],
    ["--n", "1e80", "--c", "-1:1:1", "--cp", "-1:1:1", "--mu", "52"],
    [*PARITY_GRIDS["c-plane"][0], "--mu", "1e8"],
    ["--n", "0.3", "--c", "-1:1:0.5", "--cp", "-1:1:0.5", "--mu", "1e8"],
    [*PARITY_GRIDS["n-axis"][0], "--mu", "1e8"],
])
def test_bipartite_scans_past_the_matrix_range_match_40_digit_mpmath(capsys, argv):
    # float64 cannot factorise the 8x8 states of these cells, or their 4x4
    # determinants overflow; the closed forms of the link map hold.  At
    # n = 1e300, c = -1, e + h = 0: adding t mu first would round it away
    # and print logneg_ApBp = inf where the true value is 0
    from conftest import mp_link_log_negativities
    from cvrelay.environments import AdditiveEnvironment

    code, out = run_cli(["scan", "--protocol", "bipartite", *argv], capsys)
    assert code == 0
    header, *rows = (line.split(",") for line in out.split("\r\n")[:-1])
    width = header.index("physical")
    flags = dict(zip(argv[0::2], argv[1::2]))
    mu, fixed = float(flags.pop("--mu")), {k[2:]: float(v) for k, v in flags.items() if ":" not in v}
    for row in rows:
        if row[width] == "1":
            params = {**fixed, **dict(zip(header[:width], map(float, row[:width])))}
            a_ap, ap_bp = mp_link_log_negativities(mu, *AdditiveEnvironment.links(**params))
            got = [float(v) for v in row[width + 3:]]
            assert got == pytest.approx([a_ap, 0.0, 0.0, ap_bp], rel=1e-11, abs=0.0), row
    if argv[1] == "0":  # log2(mu + sqrt(mu^2 - 1)) at n = 0
        assert {row[width + 3] for row in rows} == {"30.897352854"}


def test_bipartite_scan_builds_no_covariance_matrix(capsys, monkeypatch):
    # its columns come from the link map: no 8x8 state is built or validated
    from cvrelay import gaussian
    from cvrelay import protocols as prot

    calls = []

    def spy(func, name):
        def counted(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return counted

    monkeypatch.setattr(gaussian.CovarianceMatrix, "__init__",
                        spy(gaussian.CovarianceMatrix.__init__, "CovarianceMatrix"))
    monkeypatch.setattr(prot, "evolved_cm", spy(prot.evolved_cm, "evolved_cm"))
    for grid in (MATRIX_GRIDS["thermal-above-eb"][0], PARITY_GRIDS["c-plane"][0], PARITY_GRIDS["n-axis"][0]):
        assert run_cli(["scan", "--protocol", "bipartite", "--mu", "6.5", *grid], capsys)[0] == 0
    assert calls == []
    # the spies see the tripartite scan's states
    assert run_cli(["scan", "--protocol", "tripartite", "--mu", "6.5", *PARITY_GRIDS["c-plane"][0]], capsys)[0] == 0
    assert {"CovarianceMatrix", "evolved_cm"} <= set(calls)


def test_thresholds_find_no_crossing_in_rounding_noise(capsys):
    # at mu = 1 the key rate is zero up to rounding everywhere
    code, out = run_cli(["thresholds", "--metric", "qkd", "--mu", "1", *THERMAL, "--gp", "-16",
                         "--g", "-19:19.3:0.5"], capsys)
    assert code == 0 and out == "gp,g,metric\r\n"


@pytest.mark.parametrize("argv", [
    [*THERMAL, "--mu", "52", "--xi", "0.97", "--gp", "-19:19:2", "--g", "-19:19.3:0.1"],
    ["--n", "2.5", "--mu", "52", "--xi", "0.97", "--cp", "0.2:1:0.2", "--c", "-1:1:0.02"],
])
def test_thresholds_qkd_points_bracket_a_sign_change(capsys, argv):
    from cvrelay.environments import AdditiveEnvironment, ThermalEnvironment
    from cvrelay.protocols import SwapInput, qkd_rate

    code, out = run_cli(["thresholds", "--metric", "qkd", *argv], capsys)
    assert code == 0
    lines = out.strip().split("\r\n")[1:]
    assert len(lines) >= 3
    for line in lines:
        col, x, _ = line.split(",")
        col, x = float(col), float(x)
        if "--tau" in argv:
            envs = [ThermalEnvironment(0.9, 19.38, x + d, col) for d in (-1e-6, 1e-6)]
        else:
            envs = [AdditiveEnvironment(2.5, x + d, col) for d in (-1e-6, 1e-6)]
        lo, hi = (qkd_rate(SwapInput(52.0, env), 0.97) for env in envs)
        assert (lo > 0.0) != (hi > 0.0), line


def test_thresholds_sample_the_grid_one_block_of_cells_at_a_time(capsys, monkeypatch):
    # before bisecting, the physical map sees every grid cell once and relay_metrics
    # every physical one, in calls of at most MATRIX_BLOCK cells; the
    # contours do not depend on the block size
    from cvrelay import environments as envs
    from cvrelay import protocols as prot

    argv = ["thresholds", "--metric", "qkd", *THERMAL, "--mu", "52", "--xi", "0.97",
            "--gp", "-19:19:2", "--g", "-19:19.3:0.1"]
    whole = run_cli(argv, capsys)
    cells = {"physical": [], "relay_metrics": [], "bisecting": []}

    def spy(func, name, count):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            if not cells["bisecting"]:
                cells[name].append(count(result, *args))
            return result
        return counted

    bisect = cli._bisect
    monkeypatch.setattr(cli, "_bisect", lambda *args: (cells["bisecting"].append(True), bisect(*args)))
    monkeypatch.setattr(envs.ThermalEnvironment, "physical",
                        staticmethod(spy(envs.ThermalEnvironment.physical, "physical", lambda r: r.size)))
    # relay_metrics returns only the traced key: count its kappa argument
    monkeypatch.setattr(prot, "relay_metrics",
                        spy(prot.relay_metrics, "relay_metrics", lambda m, mu, k, *rest: np.size(k)))
    monkeypatch.setattr("cvrelay.cli.MATRIX_BLOCK", 7)
    assert run_cli(argv, capsys) == whole and whole[0] == 0 and cells["bisecting"]
    size = 20 * len(cli._parse_axis("-19:19.3:0.1", "g"))
    assert len(cells["physical"]) == -(-size // 7) and max(cells["physical"]) <= 7
    assert sum(cells["physical"]) == size
    assert len(cells["relay_metrics"]) == len(cells["physical"]) and max(cells["relay_metrics"]) <= 7


def _bisect_one_level(value, col, lo, hi, flo):
    """``cli._bisect`` with one ``value`` call per bisection level: the loop
    the heap walk must reproduce bit for bit."""
    live = np.ones(len(col), dtype=bool)
    while True:
        live &= hi - lo > cli.BISECTION_TOL
        idx = np.flatnonzero(live)
        if not len(idx):
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        fm, ok = value(mid, col[idx])
        live[idx[~ok]] = False  # a non-physical midpoint ends that crossing
        idx, mid, fm = idx[ok], mid[ok], fm[ok]
        same = (fm > 0.0) == (flo[idx] > 0.0)
        lo[idx[same]], flo[idx[same]] = mid[same], fm[same]
        hi[idx[~same]] = mid[~same]


def _levels_needed(lo, hi):
    """Bisection levels that take the widest open bracket below the tolerance."""
    open_ = hi - lo > cli.BISECTION_TOL
    return math.ceil(math.log2(np.max((hi - lo)[open_]) / cli.BISECTION_TOL)) if open_.any() else 0


def _synthetic_brackets(seed, widest, count=240):
    """Brackets of every width from 10^-7.5 to 10^widest, some below the
    tolerance, and a value function with exact zeros and non-physical holes."""
    rng = np.random.default_rng(seed)
    col = rng.integers(0, 6, count).astype(float)
    lo = rng.uniform(-1.0, 1.0, count)
    hi = lo + 10.0 ** rng.uniform(-7.5, widest, count)

    def value(x, c):
        ok = np.cos(90.0 * x * (c + 1.0)) > -0.9  # holes: a midpoint there ends its crossing
        f = np.where(ok, np.round(np.sin(40.0 * x + c), 1), np.nan)  # rounds to exact zeros too
        return f, ok

    return value, col, lo, hi, value(lo, col)[0]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("widest", [-0.5, -4.5])  # 19 or 5 levels to go
@pytest.mark.parametrize("depth", range(1, 9))
def test_bisect_heap_matches_the_one_level_loop(seed, widest, depth, monkeypatch):
    # each forced depth, capped at the levels still needed, gives the
    # brackets of one call per level, bit for bit; no call holds more than
    # max(budget, live) midpoints.  The families' physical sets are convex
    # along the swept axis, so only a synthetic value function has
    # non-physical midpoints between physical bracket ends.
    value, col, lo, hi, flo = _synthetic_brackets(seed, widest)
    want = [a.copy() for a in (lo, hi, flo)]
    _bisect_one_level(value, col, *want)
    opened = int(np.sum(hi - lo > cli.BISECTION_TOL))
    assert 0 < opened < len(col)  # some brackets start below the tolerance
    budget = opened * (2 ** depth - 1)
    monkeypatch.setattr(cli, "BISECTION_BLOCK", budget)
    sizes = []

    def counted(x, c):
        sizes.append(x.size)
        assert x.size <= max(budget, int(np.sum(hi - lo > cli.BISECTION_TOL)))
        return value(x, c)

    needed = _levels_needed(lo, hi)
    cli._bisect(counted, col, lo, hi, flo)
    assert sizes[0] == opened * (2 ** min(depth, needed) - 1)
    for got, ref in zip((lo, hi, flo), want):
        assert got.tobytes() == ref.tobytes()
    ended = np.abs(hi - lo) > cli.BISECTION_TOL
    assert ended.any()  # crossings that ended on a non-physical midpoint


def _thresholds_run(argv, monkeypatch, capsys, budget=None, bisect=None):
    """Exit code and output of one thresholds run, with the cell count of each
    relay_metrics call its bisection makes (the grid's sampling before it
    is not counted)."""
    from cvrelay import protocols as prot

    metrics, sizes, bisect, bisecting = prot.relay_metrics, [], bisect or cli._bisect, []

    def counted(mu, k, kp, xi=1.0, names=None):
        if bisecting:
            sizes.append(np.size(k))
        return metrics(mu, k, kp, xi, names)

    def counted_bisect(*args):
        bisecting.append(True)
        return bisect(*args)

    with monkeypatch.context() as patch:
        patch.setattr(prot, "relay_metrics", counted)
        if budget is not None:
            patch.setattr(cli, "BISECTION_BLOCK", budget)
        patch.setattr(cli, "_bisect", counted_bisect)
        code, out = run_cli(["thresholds", *argv], capsys)
    return code, out, sizes


def _random_threshold_planes(seed, count):
    """Seeded thermal and additive planes over every metric, with mu = 1
    (every sample in the guard band) among the finite mu."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        metric = str(rng.choice(["swap", "distill", "qkd", "qkd-lb"]))
        mu = "inf" if metric == "qkd-lb" or rng.random() < 0.3 else str(rng.choice(["1", "6.5", "52"]))
        if rng.random() < 0.5:
            tau = rng.uniform(0.6, 0.95)
            omega = (1.0 + tau) / (1.0 - tau) * rng.uniform(0.9, 1.1)  # about omega_EB(tau)
            family = ["--tau", repr(tau), "--omega", repr(omega),
                      "--gp", f"{-omega!r}:{omega!r}:{omega / 6.0!r}",
                      "--g", f"{-omega!r}:{omega!r}:{omega / int(rng.integers(8, 40))!r}"]
        else:
            family = ["--n", repr(rng.uniform(0.1, 4.0)), "--cp", "-1:1:0.2",
                      "--c", f"-1:1:{2.0 / int(rng.integers(8, 40))!r}"]
        yield ["--metric", metric, "--mu", mu, "--xi", "0.97", *family]


FINE_AXIS_THRESHOLDS = ["--metric", "swap", *THERMAL, "--mu", "inf", "--gp", "-14",
                        "--g", "4.3242:4.3244:5e-7"]  # a 5e-7 axis across the kappa kappa' = 1 crossing


@pytest.mark.parametrize("argv", [*_random_threshold_planes(5, 12), FINE_AXIS_THRESHOLDS])
def test_thresholds_bytes_match_the_one_level_loop_at_every_depth(argv, monkeypatch, capsys):
    code, want, _ = _thresholds_run(argv, monkeypatch, capsys, bisect=_bisect_one_level)
    assert code == 0
    crossings = want.count("\r\n") - 1
    for depth in range(1, 9):
        budget = max(crossings, 1) * (2 ** depth - 1)
        code, out, sizes = _thresholds_run(argv, monkeypatch, capsys, budget=budget)
        assert (code, out) == (0, want)
        assert max(sizes, default=0) <= max(budget, crossings)


def test_fine_axis_brackets_start_below_the_tolerance(monkeypatch, capsys):
    # the crossing is found, and no bracket is wide enough to bisect
    code, out, sizes = _thresholds_run(FINE_AXIS_THRESHOLDS, monkeypatch, capsys)
    assert code == 0 and out.count("\r\n") == 2 and sizes == []


README_GRID = ["--gp", "-19:19:0.25", "--g", "-19:19.3:0.1"]
README_THRESHOLDS = ["--metric", "qkd", *THERMAL, "--mu", "52", "--xi", "0.97", *README_GRID]


@pytest.mark.parametrize("budget", [None, 16])
def test_readme_thresholds_calls_stay_within_the_budget(budget, monkeypatch, capsys):
    code, want, ref_sizes = _thresholds_run(README_THRESHOLDS, monkeypatch, capsys, bisect=_bisect_one_level)
    code, out, sizes = _thresholds_run(README_THRESHOLDS, monkeypatch, capsys, budget=budget)
    assert (code, out) == (0, want)
    crossings = out.count("\r\n") - 1
    assert max(sizes) <= max(cli.BISECTION_BLOCK if budget is None else budget, crossings)
    assert len(ref_sizes) == 17
    assert len(sizes) < 17 if budget is None else len(sizes) == 17  # past the budget: one level per call


@pytest.mark.parametrize("argv, code", [
    (["--metric", "qkd", "--n", "1", "--c", "0:1:0.5", "--cp", "-1:1:0.5", "--mu", "1e308"], 3),
    (["--metric", "qkd", *THERMAL, "--mu", "1e200", "--xi", "0.97", *README_GRID], 3),
    # just below the mu where each metric's sampled grid overflows (1.2e77 for
    # coherent_info; ~4e153 for epsilon, the one figure a swap contour
    # evaluates): every midpoint passes too
    (["--metric", "swap", *THERMAL, "--mu", "1.15e77", *README_GRID], 0),
    (["--metric", "swap", *THERMAL, "--mu", "1.2e77", *README_GRID], 0),
    (["--metric", "swap", *THERMAL, "--mu", "3e153", *README_GRID], 0),
    (["--metric", "swap", *THERMAL, "--mu", "4e153", *README_GRID], 3),
    (["--metric", "distill", *THERMAL, "--mu", "1.15e77", *README_GRID], 0),
    (["--metric", "distill", *THERMAL, "--mu", "1.2e77", *README_GRID], 3),
])
def test_thresholds_exit_codes_match_the_one_level_loop(argv, code, monkeypatch, capsys):
    # relay_metrics raises for a whole call, so an off-path midpoint must not
    # turn an exit 0 into an exit 3
    want = _thresholds_run(argv, monkeypatch, capsys, bisect=_bisect_one_level)[:2]
    assert _thresholds_run(argv, monkeypatch, capsys)[:2] == want
    assert want[0] == code


@pytest.mark.parametrize("argv", [
    ["point", "--n", "1", "--c", "0", "--cp", "0", "--mu", "1e308"],
    ["point", "--n", "1e308", "--c", "0", "--cp", "0", "--mu", "52"],
    ["point", "--tau", "0.9", "--omega", "1e308", "--g", "0", "--gp", "0", "--mu", "52"],
    ["scan", "--protocol", "qkd", "--n", "1", "--c", "0:1:0.5", "--cp", "0:1:0.5", "--mu", "1e200"],
    ["thresholds", "--metric", "qkd", "--n", "1", "--c", "0:1:0.5", "--cp", "-1:1:0.5", "--mu", "1e308"],
    ["scan", "--protocol", "qkd", "--n", "1e308", "--c", "-1:1:0.5", "--cp", "-1:1:0.5", "--mu", "52"],
    ["scan", "--protocol", "quad-entanglement", "--tau", "0.9", "--g", "-1:1:1", "--gp", "-1:1:1", "--omega", "1e308"],
    ["scan", "--protocol", "quad-entanglement", "--tau", "0.9", "--g", "-1:1:1", "--gp", "-1:1:1", "--mu", "52",
     "--omega", "1e200"],
    # the classifier's sigma' and sigma'' (inf - inf before), not the mutual information
    ["scan", "--protocol", "quad-entanglement", "--tau", "0.9", "--g", "-5e99:5e99:5e99", "--gp",
     "-5e99:5e99:5e99", "--omega", "1e100"],
])
def test_closed_form_overflow_exits_3(capsys, argv):
    # valid input whose closed forms float64 cannot hold: no nan with exit 0;
    # the message names the last flag's value, which is the parameter that
    # overflows or, for the --n and --omega rows at --mu 52, the mu of the
    # closed-form cell whose kappa overflows
    code, out = run_cli(argv, capsys)
    error = json.loads(out)["error"]
    assert code == 3 and error["code"] == 3
    assert f"{argv[-2].lstrip('-')}={float(argv[-1]):g}" in error["message"]


def test_a_thermal_cell_at_omega_minus_g_zero_is_not_physical_at_large_omega(capsys):
    # at omega = 1e8, omega^2 - 1 rounds to omega^2; the verdict reads the
    # variances omega - g and omega - g', exact here, so (omega - g)(omega - g')
    # = 0 is no bona-fide environment: no scan cell prints rate inf, and the
    # point is a validation error
    code, out = run_cli(["scan", "--protocol", "qkd-asymptotic", "--tau", "0.9", "--omega", "1e8",
                         "--g", "0:1e8:5e7", "--gp", "0:1e8:5e7"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9 and "inf" not in out
    for row in rows:
        assert row[2] == ("0" if "100000000" in row[:2] else "1"), row
    code, out = run_cli(["point", "--tau", "0.9", "--omega", "1e8", "--g", "1e8", "--gp", "1e8", "--mu", "inf"],
                        capsys)
    assert code == 2 and json.loads(out)["error"]["code"] == 2


@pytest.mark.parametrize("argv", [
    ["point", "--n", "1e300", "--c", "0", "--cp", "0", "--mu", "52"],
    ["point", "--tau", "1e-300", "--omega", "1", "--mu", "52"],
])
def test_a_closed_form_overflow_names_the_kappas_of_its_cell(capsys, argv):
    # at mu = 52 it is kappa that overflows the closed forms, not mu
    code, out = run_cli(argv, capsys)
    assert code == 3
    assert "mu=52, kappa=1e+300, kappa'=1e+300 overflow" in json.loads(out)["error"]["message"]


ADDITIVE_PLANE = ["--n", "1", "--c", "0:1:0.5", "--cp", "0:1:0.5"]


@pytest.mark.parametrize("protocol, code", [("swap", 0), ("teleport", 0), ("distill", 3), ("qkd", 3)])
def test_a_closed_form_scan_exits_3_only_when_a_printed_figure_overflows(capsys, protocol, code):
    # at mu = 1e100 only coherent_info and key_rate overflow; where kappa
    # kappa' > 0 the figures a scan prints are those of mu = inf to the
    # printed 12 digits, and so are its flags
    from cvrelay import environments as envs
    from cvrelay import protocols as prot

    got, out = run_cli(["scan", "--protocol", protocol, *ADDITIVE_PLANE, "--mu", "1e100"], capsys)
    assert got == code
    if code == 3:
        assert json.loads(out)["error"]["code"] == 3 and "mu=1e+100" in out
        return
    header, *rows = (line.split(",") for line in out.split("\r\n")[:-1])
    compared = 0
    for row in rows:
        cells = dict(zip(header, row))
        limit = prot.relay_metrics(math.inf, *envs.kappa_params(
            envs.AdditiveEnvironment(1.0, float(cells["c"]), float(cells["cp"]))))
        if limit["epsilon"] == 0.0:  # c = 1: epsilon ~ 1/sqrt(mu) is not the limit's 0
            continue
        compared += 1
        for name in header[header.index("boundary") + 1:]:
            if name in cli._CODE_TEXT:
                assert cells[name] == cli._CODE_TEXT[name][limit[name]], name
            else:
                assert float(cells[name]) == pytest.approx(limit[name], rel=1e-11, abs=1e-12), name
    assert len(rows) == 9 and compared == 6


def test_a_swap_contour_past_the_other_figures_overflow_is_the_mu_inf_contour(capsys):
    # at mu = 1.2e77 coherent_info and key_rate overflow, epsilon does not
    argv = ["thresholds", "--metric", "swap", *THERMAL, *README_GRID]
    code, out = run_cli([*argv, "--mu", "1.2e77"], capsys)
    assert code == 0 and out.count("\r\n") > 2
    assert (code, out) == run_cli([*argv, "--mu", "inf"], capsys)
    assert run_cli(["point", *THERMAL, "--g", "0", "--gp", "0", "--mu", "1.2e77"], capsys)[0] == 3


@pytest.mark.parametrize("mu", ["1e10", "1e14", "1e17", "1e20"])
def test_large_finite_mu_points_agree_with_the_mu_inf_report(capsys, mu):
    # Bob's reduced eigenvalue reaches ~mu/2; its entropy must not cancel away
    def report(value):
        code, out = run_cli(["point", "--n", "1", "--c", "0.5", "--cp", "0.5", "--mu", value], capsys)
        assert code == 0
        return json.loads(out)["report"]

    finite, limit = report(mu), report("inf")
    for name in ("coherent_info", "key_rate"):
        assert abs(finite[name] - limit[name]) <= 1e-9, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_experiment_reports_overflowing_noise_per_point(capsys):
    code, out = run_cli(["experiment", "--n", "1e308", "--c", "1", "--cp", "1", "--shots", "1000"], capsys)
    assert code == 0
    assert json.loads(out)["points"][0]["error"] == "joint second moments are not finite"


def test_experiment_reads_a_band_edge_n_as_zero(capsys):
    # n inside the boundary band below 0 is the edge n = 0, as for point and scan
    argv = ["--c", "0.5", "--cp", "0.5", "--eta", "0.98", "--shots", "20000", "--seed", "3"]
    code, out = run_cli(["experiment", "--n=-9e-10", *argv], capsys)
    assert code == 0
    point = json.loads(out)["points"][0]
    edge = json.loads(run_cli(["experiment", "--n", "0", *argv], capsys)[1])["points"][0]
    assert point.pop("n") == -9e-10 and edge.pop("n") == 0.0
    assert "error" not in point and point == edge


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_experiment_reports_overflowing_standard_errors_per_point(capsys):
    # past mu ~ 1.3e154 the squared moments of the estimate's standard errors
    # overflow float64; the heterodyne scale itself stays near 1
    for mu in ("1e160", "1e300"):
        code, out = run_cli(["experiment", "--n", "1", "--mu", mu, "--c", "1", "--cp", "1",
                             "--shots", "1000", "--seed", "3"], capsys)
        assert code == 0
        point = json.loads(out)["points"][0]
        assert point["error"] == "the standard errors of the estimate overflow float64"
        assert "key_rate_theory" not in point  # its closed form overflows too


@pytest.mark.parametrize("argv", [
    ["--n", "0:10:5", "--c", "1.0000000005", "--cp", "0", "--mu", "1e5"],
    ["--n=-9e-10", "--c", "0:1:0.5", "--cp", "0:1:0.5", "--mu", "52"],
])
def test_additive_cells_beyond_an_edge_scan_as_boundary_points(capsys, argv):
    # inside the boundary band but past n = 0 or |c| = 1: the edge state
    code, out = run_cli(["scan", "--protocol", "bipartite", *argv], capsys)
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().split("\r\n"))
    assert len(rows) in (3, 9)
    assert all(row[header.index("physical")] == "1" and "" not in row and "nan" not in row
               for row in rows)


# The CLI fuzz test starts from a valid command of either family and
# overrides or drops a few of its flags, with tokens from an alphabet of
# scalars across the float64 range, invalid spellings and tiny, reversed or
# zero-step axes.
_TOKENS = ["0", "1", "-1", "1e300", "-1e300", "1e-300", "1e308", "nan", "inf", "-inf", "-1_0", "",
           "abc", "0.5", "2", "52", "0.9", "19.38", "0:1:0.5", "-1:1:1", "1:0:0.5", "0:1:0"]
_FUZZ_BASES = {
    "point": ({"--tau": "0.9", "--omega": "19.38", "--g": "1", "--gp": "0", "--mu": "52"},
              {"--n": "1", "--c": "0.5", "--cp": "0", "--mu": "52"}),
    "scan": ({"--tau": "0.9", "--omega": "19.38", "--g": "-19:19:9.5", "--gp": "-19:19:9.5", "--mu": "52"},
             {"--n": "1", "--c": "-1:1:0.5", "--cp": "-1:1:0.5", "--mu": "52"}),
    "thresholds": ({"--tau": "0.9", "--omega": "19.38", "--g": "-19:19:0.5", "--gp": "-16:16:16", "--mu": "52"},
                   {"--n": "2.5", "--c": "-1:1:0.1", "--cp": "0:1:0.5", "--mu": "52"}),
    "experiment": ({"--n": "0:1:0.5", "--c": "1", "--cp": "1", "--mu": "52", "--shots": "1000"},),
}
_FUZZ_FLAGS = {
    "point": ["--tau", "--omega", "--g", "--gp", "--n", "--c", "--cp", "--mu", "--xi"],
    "scan": ["--tau", "--omega", "--g", "--gp", "--n", "--c", "--cp", "--mu", "--xi", "--threads"],
    "thresholds": ["--tau", "--omega", "--g", "--gp", "--n", "--c", "--cp", "--mu", "--xi"],
    "experiment": ["--n", "--c", "--cp", "--mu", "--xi", "--eta", "--seed", "--chunk-shots", "--shots"],
}
_FUZZ_CHOICES = {"--protocol": [*cli.SCAN_PROTOCOLS, "nope"],
                 "--metric": ["swap", "distill", "qkd", "qkd-lb", "nope"],
                 "--shots": ["1", "10", "0", "-1_0", "1e3", "abc"]}  # at most 1e3 shots


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    flags = dict(draw(st.sampled_from(_FUZZ_BASES[command])))
    for flag in draw(st.sets(st.sampled_from(sorted(flags.keys() - {"--shots"})), max_size=1)):
        del flags[flag]  # the default of --shots is 1e6
    for flag in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]), unique=True, max_size=3)):
        flags[flag] = draw(st.sampled_from(_FUZZ_CHOICES.get(flag, _TOKENS)))
    named = {"scan": "--protocol", "thresholds": "--metric"}.get(command)
    if named:
        flags[named] = draw(st.sampled_from(_FUZZ_CHOICES[named]))
    return [command, *(token for item in flags.items() for token in item)]


@settings(max_examples=300)
@given(_fuzz_argv())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_argv_ends_in_a_contract_exit_code(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 2, 3), argv
    if code == 0 and argv[0] == "scan":
        header, *rows = (line.split(",") for line in out.getvalue().strip().split("\r\n"))
        # no physical cell prints nan, and only the qkd-asymptotic rates may
        # be infinite (at kappa = 0)
        infinite = {"rate_opt", "rate_lb"} if argv[argv.index("--protocol") + 1] == "qkd-asymptotic" else set()
        for row in rows:
            if row[header.index("physical")] == "1":
                assert "nan" not in row, argv
                assert not [name for name, value in zip(header, row)
                            if value in ("inf", "-inf") and name not in infinite], (argv, row)
    elif code == 0:
        assert "nan" not in re.findall(r"[\w.+-]+", out.getvalue()), argv
