"""Command-line front end.

Subcommands: ``point`` (all analyzers at one parameter point, JSON),
``scan`` (correlation-plane or noise-axis grids, CSV), ``thresholds``
(zero contours by bisection, CSV) and ``experiment`` (shot-level sweep,
JSON plus optional shot dump).  A scan runs one loop over its grid,
``MATRIX_BLOCK`` cells at a time: the masks, then the metric columns of the
block's physical cells (the printed closed forms of
``protocols.relay_metrics``, the bipartite ones of the link map, the
analytic quadripartite classifier, or one stack of covariance matrices).
Contours sample the one closed form they trace over their grid in the same
blocks of ``MATRIX_BLOCK`` cells, then bisect every crossing together.

Flags carry the symbols used throughout the library (--tau, --omega, --g,
--gp, --mu, --xi for the thermal family; --n, --c, --cp for the additive
one).  ``--mu inf`` routes to the asymptotic analyzers.  Each subcommand
takes only the options its handler reads (``_COMMANDS``).  A flat key-value
config file can provide defaults; explicit flags win.  Exit codes: 0
success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import environments as envs
from . import entanglement as ent
from . import experiment as expmt
from . import protocols as prot
from .gaussian import NumericDegeneracyError, ValidationError

BISECTION_TOL = 1e-6
MAX_CELLS = 1_000_000  # largest axis, and largest grid, a run accepts
MATRIX_BLOCK = 4096  # grid cells per scan or contour-sampling block; bounds their temporaries
BISECTION_BLOCK = 1024  # midpoints per thresholds evaluation, unless more crossings are live

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
_CLOSED_FORM = ("swap", "teleport", "distill", "qkd", "qkd-asymptotic")  # scans of relay_metrics columns
_RELAY_KEYS = {"epsilon_opt": "epsilon", "rate_opt": "key_rate", "rate_lb": "key_rate_lb"}  # by column name
_BIT_TEXT = np.array(["0", "1"], dtype=object)
_FLAG_TEXT = np.array(["0", "1", "marginal"], dtype=object)  # text of each prot.FLAG_VALUES code
# text of a scan's int8 code columns: the success flags and the 1x3 region
_CODE_TEXT = {**dict.fromkeys(prot.FLAG_KEYS, _FLAG_TEXT), "region": np.array(ent.REGIONS, dtype=object)}


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
    """``_fmt`` of every entry of a float array."""
    return [f"{x:.12g}" for x in np.asarray(values).tolist()]


def _json(value, pad="\n") -> str:
    """``json.dumps(value, indent=2)`` in one pass, ``pad`` opening each line at
    ``value``'s depth: finite floats as the float of their ``_fmt`` text, nan,
    inf and -inf as that text, tuples as lists, ndarrays flat in row-major order."""
    if isinstance(value, (float, np.floating)):  # first, as most values are
        return repr(float(f"{float(value):.12g}")) if math.isfinite(value) else f'"{_fmt(value)}"'
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if isinstance(value, dict):
        items, ends = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    else:
        flat = value.reshape(-1).tolist() if isinstance(value, np.ndarray) else value
        items, ends = [_json(v, inner) for v in flat], "[]"
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends


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


def _resolve(args: argparse.Namespace, key: str, default=None, parse=str):
    """``parse`` of the text of option ``key`` (explicit flag > config file > default), or None if unset."""
    text = getattr(args, key)
    text = args._config.get(key, default) if text is None else text
    return None if text is None else parse(str(text))


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


def _mu_value(args) -> float:
    if (mu := _resolve(args, "mu", parse=_parse_float)) is None:
        raise ValidationError("--mu is required")
    return mu


def _xi_value(args) -> float:
    """--xi (default 1), in (0, 1] wherever it is given, whether or not the analysis reads it."""
    return prot._check_xi(_resolve(args, "xi", 1.0, _parse_float))


@contextlib.contextmanager
def _output(args):
    """The --out file, created on entry, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_text(args, text: str):
    with _output(args) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# point


def cmd_point(args) -> int:
    family, base, correlations = _family(args)
    env = family(**{key: _resolve(args, key, 0.0, _parse_float) for key in base + correlations})
    mu = _mu_value(args)
    xi = _xi_value(args)
    if mu == math.inf:
        report = prot.protocol_report_asymptotic(env)
    else:
        report = prot.protocol_report(prot.SwapInput(mu, env), xi)
    _, separable, boundary = env.masks(**vars(env))
    kind = family.__name__.removesuffix("Environment").lower()  # "thermal" or "additive"
    payload = {"env": {"kind": kind, **vars(env), "separable": separable, "boundary": boundary},
               "report": report.to_dict()}
    _write_text(args, _json(payload) + "\n")
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


def _grid(args, n_axis: bool) -> _Grid:
    """Resolve the family, the fixed parameters and the axes of a grid run.

    Thermal runs sweep (g, g') at fixed (tau, omega).  Additive runs sweep
    (c, c') at one n or, where ``n_axis`` allows it, n at fixed (c, c').
    The fixed parameters are validated once, by building the environment
    at the origin of the swept axes.
    """
    family, fixed, swept = _family(args)
    if "n" in fixed and len(_resolve(args, "n", parse=lambda t: _parse_axis(t, "n"))) > 1:
        if not n_axis:
            raise ValidationError("an n axis is not supported here; give a single --n")
        fixed, swept = swept, fixed
    params = {key: _resolve(args, key, 0.0, _parse_float) for key in fixed}
    family(**params, **dict.fromkeys(swept, 0.0))
    axes = tuple(_resolve(args, name, "", lambda t: _parse_axis(t, name)) for name in swept)
    if math.prod(len(a) for a in axes) > MAX_CELLS:
        raise ValidationError(f"grid exceeds {MAX_CELLS} cells")
    return _Grid(family, params, swept, axes)


# ---------------------------------------------------------------------------
# scan


def _block_columns(protocol, grid: _Grid, coords, mu, xi) -> list:
    """Metric columns of a scan over ``coords``, the physical cells of one block.

    The closed forms, bipartite and asymptotic quad-entanglement are array
    formulas.  The other protocols build the block's evolved states as one
    stack and test it.  Those cells have passed the family's ``physical``
    mask, so their states are positive definite in exact arithmetic, and a
    failed Cholesky factorisation of the stack, like an overflow of the
    bipartite closed form, is a float64 failure rather than bad input: a
    NumericDegeneracyError naming mu and the grid's fixed parameters.
    """
    if protocol in _CLOSED_FORM:
        names = [_RELAY_KEYS.get(col, col) for col in _METRIC_COLUMNS[protocol]]
        m = prot.relay_metrics(math.inf if protocol == "qkd-asymptotic" else mu,
                               *grid.family.kappas(**grid.params(coords)), xi, names)
        return [m[name] for name in names]
    if mu == math.inf:  # quad-entanglement, from the analytic classifier
        tau, omega = grid.fixed["tau"], grid.fixed["omega"]
        return [envs.thermal_mutual_information(omega, *coords),
                *ent.quadripartite_regions(tau, omega, *coords)]
    try:
        if protocol == "bipartite":
            return ent._link_log_negativities(mu, *grid.family.links(**grid.params(coords)))
        cm = prot.evolved_cm(mu, grid.family, grid.params(coords))
    except NumericDegeneracyError:
        fixed = "".join(f", {name}={value:g}" for name, value in grid.fixed.items())
        raise NumericDegeneracyError(
            f"the evolved states at mu={mu:g}{fixed} cannot be held in float64") from None
    if protocol == "quad-entanglement":
        return [envs.thermal_mutual_information(grid.fixed["omega"], *coords),
                *ent.quadripartite_numeric_regions(cm)]
    class_id, _, certified = ent._tripartite_core(cm.reduced((0, 2, 3)).m)
    return [class_id, certified]


def _coordinate_columns(axes: list, cells) -> list:
    """Coordinates of the row-major grid cells ``cells``, looked up in each
    axis (outermost first): in its values, or in their text."""
    shape = tuple(map(len, axes))
    return [axis[i] for axis, i in zip(axes, np.unravel_index(cells, shape))]


def _block_rows(head, physical, columns, names) -> str:
    """CSV rows of one scan block, rendered by one ``%`` format.

    ``head`` holds each cell's coordinate text and ``columns``, named by
    ``names``, the physical cells' values: floats as "%.12g" and integers as
    "%d", as ``_fmt`` spells them, bools and ``_CODE_TEXT`` codes as their
    text.  A non-physical row prints its placeholders blank, through "%.0s".
    """
    values = np.empty((len(physical), len(head) + len(columns)), dtype=object)
    values[:, :len(head)] = np.column_stack(head)
    specs = []
    for j, (name, col) in enumerate(zip(names, columns), len(head)):
        full = np.zeros(len(physical), col.dtype)
        full[physical] = col
        text = _CODE_TEXT.get(name, _BIT_TEXT if col.dtype == bool else None)
        values[:, j] = full if text is None else text.take(full)
        specs.append("%s" if text is not None else "%.12g" if col.dtype.kind == "f" else "%d")
    lead = "%s," * len(head)
    rows = np.array([f"{lead}0{',%.0s' * len(columns)}\r\n", f"{lead}1,{','.join(specs)}\r\n"], dtype=object)
    return "".join(rows.take(physical).tolist()) % tuple(values.ravel().tolist())


def cmd_scan(args) -> int:
    protocol = _resolve(args, "protocol")
    if protocol not in SCAN_PROTOCOLS:
        raise ValidationError(f"--protocol must be one of {', '.join(SCAN_PROTOCOLS)}")
    if _resolve(args, "mu") is None and protocol in ("qkd-asymptotic", "quad-entanglement"):
        mu = math.inf  # inherently large-mu analyzers
    else:
        mu = _mu_value(args)
    if not mu >= 1.0:  # relay_metrics' rule, also where qkd-asymptotic evaluates mu = inf instead
        raise ValidationError(f"mu must be >= 1 or inf, got {mu!r}")
    if mu == math.inf and protocol in ("bipartite", "tripartite"):
        raise ValidationError(f"{protocol} scans need a finite --mu")
    xi = _xi_value(args)
    threads = _resolve(args, "threads", 1)  # accepted and ignored: evaluation is vectorised
    if not threads.isdecimal() or int(threads) < 1:
        raise ValidationError("--threads must be an integer >= 1")

    grid = _grid(args, n_axis=True)
    if protocol == "quad-entanglement" and grid.family is not envs.ThermalEnvironment:
        raise ValidationError("quad-entanglement scans are defined for the thermal family")
    if len(grid.axes) == 2 and min(len(a) for a in grid.axes) < 2:
        raise ValidationError("scan axes need at least 2 points each")
    # One loop evaluates the grid MATRIX_BLOCK cells at a time, in row-major
    # order, and holds only the physical cells' columns.  Every block is
    # evaluated before the first byte is written, so a failed scan writes
    # nothing; then each block's rows are rendered by one `%` format.
    size = math.prod(map(len, grid.axes))
    evaluated = []
    for at in range(0, size, MATRIX_BLOCK):
        coords = _coordinate_columns(grid.axes, np.arange(at, min(at + MATRIX_BLOCK, size)))
        physical, separable, boundary = grid.family.masks(**grid.params(coords))
        metrics = _block_columns(protocol, grid, [c[physical] for c in coords], mu, xi)
        evaluated.append((at, physical, [separable[physical], boundary[physical], *metrics]))

    names = ["separable", "boundary", *_METRIC_COLUMNS[protocol]]
    axis_text = [np.array(_fmt_all(axis), dtype=object) for axis in grid.axes]
    with _output(args) as fh:
        fh.write(",".join([*grid.names, "physical", *names]) + "\r\n")
        for at, physical, columns in evaluated:
            fh.write(_block_rows(_coordinate_columns(axis_text, np.arange(at, at + len(physical))),
                                 physical, columns, names))
    return 0


# ---------------------------------------------------------------------------
# thresholds


# relay_metrics key of each contour metric; swap traces 1 - epsilon
_THRESHOLD_METRICS = {"swap": "epsilon", "distill": "coherent_info", "qkd": "key_rate",
                      "qkd-lb": "key_rate_lb"}


def _bisect(value, col, lo, hi, flo):
    """Narrow each bracket (lo, hi) of a sign change of ``value`` in column
    ``col`` to BISECTION_TOL, in place; ``flo`` holds the values at lo.

    One ``value`` call decides as many levels as fit in BISECTION_BLOCK
    midpoints (one when more crossings are live), with the midpoints and
    brackets of one call per level.
    """
    live = hi - lo > BISECTION_TOL
    while live.any():
        idx = np.flatnonzero(live)
        # this call's brackets, and its crossings still narrowing; written back after the walk
        a, b, fa, on = lo[idx], hi[idx], flo[idx], np.ones(len(idx), dtype=bool)
        need = math.ceil(math.log2(np.max(b - a)) - math.log2(BISECTION_TOL))
        depth = max(1, min(need, (BISECTION_BLOCK // len(idx) + 1).bit_length() - 1))
        # the next `depth` levels of midpoints as a heap: column j of `mid`
        # splits the bracket (a, b) of node j, and its children 2j + 1 and
        # 2j + 2 split (a, m) and (m, b).  `ends` holds each bracket's ends
        # in order; level l's ends are every 2**(depth - l)-th column.
        ends, mid = np.empty((len(idx), 2**depth + 1)), np.empty((len(idx), 2**depth - 1))
        ends[:, 0], ends[:, -1] = a, b
        for level in range(depth):
            step = 2 ** (depth - level)
            mid[:, 2**level - 1:2 ** (level + 1) - 1] = ends[:, step // 2::step] = (
                0.5 * (ends[:, :-1:step] + ends[:, step::step]))
        fm, ok = value(mid, np.broadcast_to(col[idx, None], mid.shape))
        # walk each path by the one-level rules, from node j at flat index row + j
        at = row = np.arange(len(idx)) * mid.shape[1]
        for _ in range(depth):
            on &= ok.take(at)  # a non-physical midpoint ends its crossing
            m, f = mid.take(at), fm.take(at)
            same = (f > 0.0) == (fa > 0.0)
            up = on & same
            a, fa, b = np.where(up, m, a), np.where(up, f, fa), np.where(on ^ up, m, b)
            at = 2 * at - row + 1 + same  # node 2j + 1 or 2j + 2
            on &= b - a > BISECTION_TOL
        lo[idx], hi[idx], flo[idx], live[idx] = a, b, fa, on


def cmd_thresholds(args) -> int:
    metric = _resolve(args, "metric")
    if metric not in _THRESHOLD_METRICS:
        raise ValidationError(f"--metric must be one of {', '.join(_THRESHOLD_METRICS)}")
    mu = _mu_value(args)
    if metric == "qkd-lb" and mu != math.inf:
        raise ValidationError("qkd-lb is an asymptotic metric; use --mu inf")
    xi = _xi_value(args)
    grid = _grid(args, n_axis=False)
    sweep_axis, col_axis = grid.axes
    if len(sweep_axis) < 2:
        raise ValidationError("the swept axis needs at least 2 points")

    key = _THRESHOLD_METRICS[metric]

    def value(x, col):
        """Signed distance to the protocol threshold (positive means active)
        and the physical mask; the distance is nan off the physical cells."""
        physical = grid.family.physical(**grid.params((x, col)))
        f = np.full(x.shape, np.nan)
        kappas = grid.family.kappas(**grid.params((x[physical], col[physical])))
        f[physical] = prot.relay_metrics(mu, *kappas, xi, [key])[key]
        return (1.0 - f if metric == "swap" else f), physical

    # sample every column, MATRIX_BLOCK grid cells at a time column by
    # column, then bisect every bracketed sign change together; samples inside
    # the flags' guard band are rounding noise and bracket nothing
    shape = (len(col_axis), len(sweep_axis))
    f, ok = np.empty(shape), np.empty(shape, dtype=bool)
    for at in range(0, f.size, MATRIX_BLOCK):
        band = slice(at, min(at + MATRIX_BLOCK, f.size))
        cols, xs = _coordinate_columns([col_axis, sweep_axis], np.arange(band.start, band.stop))
        f.flat[band], ok.flat[band] = value(xs, cols)
    ok &= ~np.isinf(f) & (np.abs(f) > prot.FLAG_GUARD)
    ci, xj = np.nonzero(ok[:, :-1] & ok[:, 1:] & ((f[:, :-1] > 0.0) != (f[:, 1:] > 0.0)))
    col, lo, hi, flo = col_axis[ci], sweep_axis[xj], sweep_axis[xj + 1], f[ci, xj]
    _bisect(value, col, lo, hi, flo)

    lines = [",".join([grid.names[1], grid.names[0], "metric"])]
    lines += [f"{c},{x},{metric}" for c, x in zip(_fmt_all(col), _fmt_all(0.5 * (lo + hi)))]
    _write_text(args, "\r\n".join(lines) + "\r\n")
    return 0


# ---------------------------------------------------------------------------
# experiment


# the sweep's settings as (name, default, parser), in the order the report echoes them
_EXPERIMENT_SETTINGS = (("mu", 52.0, _parse_float), ("c", 1.0, _parse_float), ("cp", 1.0, _parse_float),
                        ("eta", 1.0, _parse_float), ("xi", 1.0, _parse_float), ("shots", 10**6, _parse_int),
                        ("seed", 0, _parse_int))


def cmd_experiment(args) -> int:
    n_axis = _resolve(args, "n", "", lambda t: _parse_axis(t, "n"))
    settings = {name: _resolve(args, name, default, parse) for name, default, parse in _EXPERIMENT_SETTINGS}
    chunk = _resolve(args, "chunk_shots", expmt.DEFAULT_CHUNK, _parse_int)
    if chunk < 1:
        raise ValidationError("chunk_shots must be a positive integer")
    if args.dump and len(n_axis) != 1:
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
            point.update(vars(expmt.run_point(config, chunk, args.dump)))
        except (ValidationError, NumericDegeneracyError) as exc:
            point["error"] = str(exc)
        try:
            report = prot.protocol_report(prot.SwapInput(config.mu, env), config.xi)
            point["key_rate_theory"] = report.key_rate
        except NumericDegeneracyError as exc:
            point.setdefault("error", str(exc))  # the estimate's error, if any, stays
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
    _write_text(args, _json(payload) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


# each subcommand's handler, help line and the options it reads; every
# subcommand also takes --config and --out
_ENV_OPTIONS = ("tau", "omega", "g", "gp", "n", "c", "cp", "mu", "xi")
_COMMANDS = {
    "point": (cmd_point, "all analyzers at one parameter point (JSON)", _ENV_OPTIONS),
    "scan": (cmd_scan, "grid scan over a correlation plane (CSV)", (*_ENV_OPTIONS, "protocol", "threads")),
    "thresholds": (cmd_thresholds, "trace protocol zero contours (CSV)", (*_ENV_OPTIONS, "metric")),
    "experiment": (cmd_experiment, "shot-level simulated sweep (JSON)",
                   ("n", "c", "cp", "mu", "xi", "eta", "shots", "seed", "chunk-shots", "dump")),
}
_HELP = {"config": "flat key-value defaults file", "out": "output path (default: stdout)",
         "dump": "CSV shot dump path (single-point sweeps)"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main``
    call; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cvrelay",
        description="Quantum-relay protocols in correlated Gaussian environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in ("config", "out", *options):
            p.add_argument(f"--{option}", help=_HELP.get(option))
        p.set_defaults(func=func)
    parser.commands = sub.choices  # each subcommand's own parser, by name
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
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    # a named subcommand's parser reads its options itself, so each token is parsed once
    command = build_parser().commands.get(argv[0]) if argv else None
    args = build_parser().parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        args._config = _load_config(args.config) if args.config else {}
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError, NumericDegeneracyError) as exc:
        code = 3 if isinstance(exc, NumericDegeneracyError) else 2
        sys.stdout.write(json.dumps({"error": {"code": code, "message": str(exc)}}) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
