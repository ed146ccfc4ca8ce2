"""Command-line front end.

Subcommands: ``point`` (all analyzers at one parameter point, JSON),
``scan`` (correlation-plane or noise-axis grids, CSV), ``thresholds``
(zero contours by bisection, CSV) and ``experiment`` (shot-level sweep,
JSON plus optional shot dump).  Scans and contours evaluate the closed
forms over whole grids at once through ``protocols.relay_metrics``; the
finite-mu entanglement scans evaluate stacks of covariance matrices, one
block of cells at a time.

Flags carry the symbols used throughout the library (--tau, --omega, --g,
--gp, --mu, --xi for the thermal family; --n, --c, --cp for the additive
one).  ``--mu inf`` routes to the asymptotic analyzers.  A flat key-value
config file can provide defaults; explicit flags win.  Exit codes: 0
success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import environments as envs
from . import entanglement as ent
from . import experiment as expmt
from . import protocols as prot
from .gaussian import NotPositiveDefiniteError, NumericDegeneracyError, ValidationError

BISECTION_TOL = 1e-6
MAX_CELLS = 1_000_000  # largest axis, and largest grid, a run accepts
MATRIX_BLOCK = 4096  # cells per stacked covariance-matrix pass; bounds scan memory

_METRIC_COLUMNS = {
    "swap": ["epsilon", "log_neg", "swap_ok"],
    "teleport": ["fidelity", "tele_quantum"],
    "distill": ["coherent_info", "distill_ok"],
    "qkd": ["key_rate", "qkd_ok"],
    "qkd-asymptotic": ["epsilon_opt", "rate_opt", "rate_lb", "qkd_ok"],
    "quad-entanglement": ["env_mutual_info", "sigma_prime", "sigma_double_prime", "region"],
    "bipartite": ["logneg_aAp", "logneg_aBp", "logneg_ab", "logneg_ApBp"],
    "tripartite": ["tri_class", "tri_certified"],
}
SCAN_PROTOCOLS = tuple(_METRIC_COLUMNS)
# protocols whose columns come from relay_metrics, and the renamed columns' keys
_CLOSED_FORM = ("swap", "teleport", "distill", "qkd", "qkd-asymptotic")
_METRIC_KEYS = {"epsilon_opt": "epsilon", "rate_opt": "key_rate", "rate_lb": "key_rate_lb"}


def _fmt(value) -> str:
    """Locale-independent text with 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"  # also spells nan, inf, -inf and -0


def _fmt_all(values) -> list:
    """``_fmt`` of every entry of an array, the formatter picked once by dtype."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        return [f"{x:.12g}" for x in a.tolist()]
    if a.dtype.kind == "b":
        return ["1" if x else "0" for x in a.tolist()]
    return list(map(str if a.dtype.kind in "iu" else _fmt, a.tolist()))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(_fmt(value)) if math.isfinite(value) else _fmt(value)  # nan, inf, -inf as text
    if isinstance(value, np.ndarray):  # flat, in row-major order
        return [_jsonable(v) for v in value.reshape(-1).tolist()]
    return value


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"not a number: {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"not an integer: {text!r}") from None


def _parse_axis(text: str, name: str) -> np.ndarray:
    """Parse 'lo:hi:step' into an inclusive grid, or a single value."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError(f"axis {name} must be 'lo:hi:step' or a single value")
    values = [_parse_float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"axis {name} needs finite values, got {text!r}")
    if len(values) == 1:
        return np.array(values)
    lo, hi, step = values
    if step <= 0 or hi <= lo:
        raise ValidationError(f"axis {name} needs hi > lo and step > 0")
    span = (hi - lo) / step
    count = int(round(span)) + 1 if span < MAX_CELLS else MAX_CELLS + 1
    if count > MAX_CELLS:
        raise ValidationError(f"axis {name} exceeds {MAX_CELLS} points")
    return np.linspace(lo, hi, count)


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise ValidationError(f"{path}:{lineno}: expected 'key value' or 'key=value'")
            values[key.replace("-", "_")] = val
    return values


def _resolve(args: argparse.Namespace, key: str, default=None):
    """Precedence: explicit flag > config file > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if getattr(args, "_config", None) and key in args._config:
        return args._config[key]
    return default


def _family(args):
    """Environment family of the flags, with its base and correlation parameters.

    Thermal wins when both families are given.
    """
    if _resolve(args, "tau") is not None:
        if _resolve(args, "omega") is None:
            raise ValidationError("thermal environment needs both --tau and --omega")
        return envs.ThermalEnvironment, ("tau", "omega"), ("g", "gp")
    if _resolve(args, "n") is None:
        raise ValidationError("specify either --tau/--omega/--g/--gp or --n/--c/--cp")
    return envs.AdditiveEnvironment, ("n",), ("c", "cp")


def _number(args, key: str, default=None) -> float:
    return _parse_float(str(_resolve(args, key, default)))


def _build_env(args):
    family, base, correlations = _family(args)
    return family(**{key: _number(args, key, 0.0) for key in base + correlations})


def _mu_value(args) -> float:
    mu = _resolve(args, "mu")
    if mu is None:
        raise ValidationError("--mu is required")
    return _parse_float(str(mu))


def _env_summary(env) -> dict:
    """Kind, fields and separability of an environment; thermal ones add the boundary flag."""
    if isinstance(env, envs.ThermalEnvironment):
        return {"kind": "thermal", **vars(env), "separable": env.is_separable, "boundary": env.is_boundary}
    return {"kind": "additive", **vars(env), "separable": True}


def _write_text(args, text: str):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# point


def cmd_point(args) -> int:
    env = _build_env(args)
    mu = _mu_value(args)
    xi = _number(args, "xi", 1.0)
    phi = _resolve(args, "phi")
    if mu == math.inf:
        if phi is not None:
            raise ValidationError("--phi needs a finite --mu")
        report = prot.protocol_report_asymptotic(env)
    else:
        inp = prot.SwapInput(mu, env, None if phi is None else _parse_float(phi))
        report = prot.protocol_report(inp, xi)
    payload = {"env": _env_summary(env), "report": report.to_dict()}
    _write_text(args, json.dumps(_jsonable(payload), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# grids shared by scan and thresholds


@dataclass(frozen=True)
class _Grid:
    """Environment family of a scan or thresholds run and its swept axes."""

    family: type  # envs.ThermalEnvironment or envs.AdditiveEnvironment
    fixed: dict  # parameters held constant over the grid
    names: tuple  # swept parameters, outermost first
    axes: tuple  # their values

    def params(self, coords) -> dict:
        return {**self.fixed, **dict(zip(self.names, coords))}

    def masks(self, coords):
        """Physical, separable and boundary masks at the swept coordinates."""
        return self.family.masks(**self.params(coords))

    def kappas(self, coords):
        return self.family.kappas(**self.params(coords))


def _grid(args, n_axis: bool) -> _Grid:
    """Resolve the family, the fixed parameters and the axes of a grid run.

    Thermal runs sweep (g, g') at fixed (tau, omega).  Additive runs sweep
    (c, c') at one n or, where ``n_axis`` allows it, n at fixed (c, c').
    The fixed parameters are validated once, by building the environment
    at the origin of the swept axes.
    """
    family, fixed, swept = _family(args)
    if family is envs.AdditiveEnvironment and len(_parse_axis(str(_resolve(args, "n")), "n")) > 1:
        if not n_axis:
            raise ValidationError("an n axis is not supported here; give a single --n")
        fixed, swept = swept, fixed
    params = {key: _number(args, key, 0.0) for key in fixed}
    family(**params, **dict.fromkeys(swept, 0.0))
    axes = tuple(_parse_axis(str(_resolve(args, name, "")), name) for name in swept)
    if math.prod(len(a) for a in axes) > MAX_CELLS:
        raise ValidationError(f"grid exceeds {MAX_CELLS} cells")
    return _Grid(family, params, swept, axes)


# ---------------------------------------------------------------------------
# scan


def _metric_columns(protocol, grid: _Grid, coords, mu, xi) -> list:
    """Metric columns of a scan over its physical cells."""
    if protocol in _CLOSED_FORM:
        k, kp = grid.kappas(coords)
        m = prot.relay_metrics(math.inf if protocol == "qkd-asymptotic" else mu, k, kp, xi)
        return [m[_METRIC_KEYS.get(col, col)] for col in _METRIC_COLUMNS[protocol]]
    if protocol == "quad-entanglement" and mu == math.inf:
        g, gp = coords
        tau, omega = grid.fixed["tau"], grid.fixed["omega"]
        return [envs.thermal_mutual_information(omega, g, gp),
                *ent.quadripartite_regions(tau, omega, g, gp)]
    blocks = [_matrix_columns(protocol, grid, [c[at : at + MATRIX_BLOCK] for c in coords], mu)
              for at in range(0, max(len(coords[0]), 1), MATRIX_BLOCK)]
    return [np.concatenate(column) for column in zip(*blocks)]


def _matrix_columns(protocol, grid: _Grid, coords, mu) -> list:
    """Columns of the covariance-matrix protocols over one block of cells:
    one stacked build of the evolved states, then stacked tests.

    The cells have passed the family's ``physical`` mask, so their states
    are positive definite in exact arithmetic, and a failed Cholesky
    factorisation of the stack is a float64 failure rather than bad input.
    """
    try:
        cm = prot.evolved_cm(mu, grid.family, grid.params(coords))
    except NotPositiveDefiniteError as exc:
        raise NumericDegeneracyError(
            f"the evolved states at mu={mu:g} cannot be held in float64 ({exc}); "
            "use a smaller --mu") from None
    if protocol == "quad-entanglement":
        ml_a = ent.ppt_min_eigenvalue(cm, [0])
        ml_ap = ent.ppt_min_eigenvalue(cm, [2])
        info = envs.thermal_mutual_information(grid.fixed["omega"], *coords)
        return [info, ml_a, ml_ap, ent.region_labels(ml_a, ml_ap, ent.PSD_ABS_TOL)]
    if protocol == "bipartite":
        survey = ent._pair_log_negativities(cm)
        return [survey[col.removeprefix("logneg_")] for col in _METRIC_COLUMNS["bipartite"]]
    class_id, _, certified = ent._tripartite_core(cm.reduced((0, 2, 3)).m)
    return [class_id, certified]


def _column(values, cells: list, size: int) -> list:
    """Formatted column with ``values`` at ``cells`` and blanks elsewhere."""
    out = [""] * size
    for i, text in zip(cells, _fmt_all(values)):
        out[i] = text
    return out


def cmd_scan(args) -> int:
    protocol = _resolve(args, "protocol")
    if protocol not in SCAN_PROTOCOLS:
        raise ValidationError(f"--protocol must be one of {', '.join(SCAN_PROTOCOLS)}")
    if _resolve(args, "mu") is None and protocol in ("qkd-asymptotic", "quad-entanglement"):
        mu = math.inf  # inherently large-mu analyzers
    else:
        mu = _mu_value(args)
    if mu == math.inf and protocol in ("bipartite", "tripartite"):
        raise ValidationError(f"{protocol} scans need a finite --mu")
    xi = _number(args, "xi", 1.0)
    threads = str(_resolve(args, "threads", 1))  # accepted and ignored: evaluation is vectorised
    if not threads.isdecimal() or int(threads) < 1:
        raise ValidationError("--threads must be an integer >= 1")

    grid = _grid(args, n_axis=True)
    if protocol == "quad-entanglement" and grid.family is not envs.ThermalEnvironment:
        raise ValidationError("quad-entanglement scans are defined for the thermal family")
    if len(grid.axes) == 2 and min(len(a) for a in grid.axes) < 2:
        raise ValidationError("scan axes need at least 2 points each")
    coords = [c.ravel() for c in np.meshgrid(*grid.axes, indexing="ij")]  # row-major
    physical, separable, boundary = grid.masks(coords)
    metrics = _metric_columns(protocol, grid, [c[physical] for c in coords], mu, xi)

    cells, size = np.flatnonzero(physical).tolist(), len(physical)
    columns = [_fmt_all(c) for c in (*coords, physical)]
    columns += [_column(col[physical], cells, size) for col in (separable, boundary)]
    columns += [_column(col, cells, size) for col in metrics]
    header = [*grid.names, "physical", "separable", "boundary", *_METRIC_COLUMNS[protocol]]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    _write_text(args, "\r\n".join(lines) + "\r\n")
    return 0


# ---------------------------------------------------------------------------
# thresholds


# relay_metrics key of each contour metric; swap traces 1 - epsilon
_THRESHOLD_METRICS = {"swap": "epsilon", "distill": "coherent_info", "qkd": "key_rate",
                      "qkd-lb": "key_rate_lb"}


def cmd_thresholds(args) -> int:
    metric = _resolve(args, "metric")
    if metric not in _THRESHOLD_METRICS:
        raise ValidationError(f"--metric must be one of {', '.join(_THRESHOLD_METRICS)}")
    mu = _mu_value(args)
    if metric == "qkd-lb" and mu != math.inf:
        raise ValidationError("qkd-lb is an asymptotic metric; use --mu inf")
    xi = _number(args, "xi", 1.0)
    grid = _grid(args, n_axis=False)
    sweep_axis, col_axis = grid.axes
    if len(sweep_axis) < 2:
        raise ValidationError("the swept axis needs at least 2 points")

    def value(x, col):
        """Signed distance to the protocol threshold (positive means active)
        and the physical mask; the distance is nan off the physical cells."""
        physical = grid.masks((x, col))[0]
        m = prot.relay_metrics(mu, *grid.kappas((x[physical], col[physical])), xi)
        f = np.full(x.shape, np.nan)
        f[physical] = m[_THRESHOLD_METRICS[metric]]
        return (1.0 - f if metric == "swap" else f), physical

    # sample every column, then bisect every bracketed sign change together;
    # samples inside the flags' guard band are rounding noise and bracket nothing
    cols, xs = np.meshgrid(col_axis, sweep_axis, indexing="ij")
    f, ok = value(xs, cols)
    ok &= ~np.isinf(f) & (np.abs(f) > prot.FLAG_GUARD)
    ci, xj = np.nonzero(ok[:, :-1] & ok[:, 1:] & ((f[:, :-1] > 0.0) != (f[:, 1:] > 0.0)))
    col, lo, hi, flo = col_axis[ci], sweep_axis[xj], sweep_axis[xj + 1], f[ci, xj]
    live = np.ones(len(ci), dtype=bool)
    while True:
        live &= hi - lo > BISECTION_TOL
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

    lines = [",".join([grid.names[1], grid.names[0], "metric"])]
    lines += [f"{c},{x},{metric}" for c, x in zip(_fmt_all(col), _fmt_all(0.5 * (lo + hi)))]
    _write_text(args, "\r\n".join(lines) + "\r\n")
    return 0


# ---------------------------------------------------------------------------
# experiment


# the sweep's settings as (name, parser, default), in the order the report echoes them
_EXPERIMENT_SETTINGS = (("mu", _parse_float, 52.0), ("c", _parse_float, 1.0), ("cp", _parse_float, 1.0),
                        ("eta", _parse_float, 1.0), ("xi", _parse_float, 1.0), ("shots", _parse_int, 10**6),
                        ("seed", _parse_int, 0))


def cmd_experiment(args) -> int:
    n_axis = _parse_axis(str(_resolve(args, "n", "")), "n")
    settings = {name: parse(str(_resolve(args, name, default)))
                for name, parse, default in _EXPERIMENT_SETTINGS}
    chunk = _parse_int(str(_resolve(args, "chunk_shots", expmt.DEFAULT_CHUNK)))
    if chunk < 1:
        raise ValidationError("chunk_shots must be a positive integer")
    dump = getattr(args, "dump", None)
    if dump and len(n_axis) != 1:
        raise ValidationError("--dump needs a single-point sweep (one n value)")

    points = []
    for idx, nv in enumerate(n_axis):
        env = envs.AdditiveEnvironment(float(nv), settings["c"], settings["cp"])
        config = expmt.ExperimentConfig(
            mu=settings["mu"],
            env=env,
            shots=settings["shots"],
            seed=settings["seed"],
            relay_efficiency=settings["eta"],
            xi=settings["xi"],
            stream=idx,
        )
        point = {"n": float(nv)}
        try:
            point.update(vars(expmt.run_point(config, chunk, dump)))
        except (ValidationError, NumericDegeneracyError) as exc:
            point["error"] = str(exc)
        point["key_rate_theory"] = prot.qkd_rate(prot.SwapInput(config.mu, env), config.xi)
        point["repeater_bound"] = prot.repeater_bound_phi(float(nv))
        points.append(point)

    payload = {
        "config": {**settings, "n_values": list(map(float, n_axis))},
        "rng": {
            "algorithm": expmt.RNG_ALGORITHM,
            "key_scheme": "key=[seed, point_index]",
            "draws_per_shot": expmt.DRAWS_PER_SHOT,
            "chunk_shots": chunk,
        },
        "points": points,
    }
    _write_text(args, json.dumps(_jsonable(payload), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p):
    p.add_argument("--config", help="flat key-value defaults file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--tau")
    p.add_argument("--omega")
    p.add_argument("--g")
    p.add_argument("--gp")
    p.add_argument("--n")
    p.add_argument("--c")
    p.add_argument("--cp")
    p.add_argument("--mu")
    p.add_argument("--xi")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main``
    call; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cvrelay",
        description="Quantum-relay protocols in correlated Gaussian environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="all analyzers at one parameter point (JSON)")
    _add_common(p)
    p.add_argument("--phi")
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("scan", help="grid scan over a correlation plane (CSV)")
    _add_common(p)
    p.add_argument("--protocol")
    p.add_argument("--threads")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("thresholds", help="trace protocol zero contours (CSV)")
    _add_common(p)
    p.add_argument("--metric")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("experiment", help="shot-level simulated sweep (JSON)")
    _add_common(p)
    p.add_argument("--eta")
    p.add_argument("--shots")
    p.add_argument("--seed")
    p.add_argument("--chunk-shots", dest="chunk_shots")
    p.add_argument("--dump", help="CSV shot dump path (single-point sweeps)")
    p.set_defaults(func=cmd_experiment)

    return parser


def _merge_negative_values(argv):
    """Join '--flag -value' into '--flag=-value' for argparse, which reads a
    token that starts with '-' as an option; every option of this CLI takes
    a value."""
    out = []
    for tok in argv:
        flag = out[-1] if out else ""
        bare_flag = len(flag) > 2 and flag.startswith("--") and "=" not in flag
        if bare_flag and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_merge_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        args._config = _load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError, NumericDegeneracyError) as exc:
        code = 3 if isinstance(exc, NumericDegeneracyError) else 2
        sys.stdout.write(json.dumps({"error": {"code": code, "message": str(exc)}}) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
