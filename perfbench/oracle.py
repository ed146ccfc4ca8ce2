"""Independent checks of the outputs of the benchmark's CLI commands.

Each check compares a command's output with a different computational path
through cvrelay (Schur-complement conditioning, numeric symplectic spectra,
infinite-statistics moments), or with the defining inequality written out
here.  Every check is one operation in the error count; a failed check
carries a message.  The checks run outside the timed and traced regions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

BAND = 1e-9  # boundary band of the environment inequalities
SAMPLES = 40  # cells sampled per scan command
PPT_MARGIN = 1e-7  # oracle PTS eigenvalues this close to 1 are not judged
STDERR_BOUND = 5.0  # shot-sweep estimates may sit this many stderr off the exact moments


@dataclass
class Checks:
    passed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)

    def close(self, got, want, rtol: float, atol: float, what: str) -> None:
        ok = got is not None and want is not None and abs(got - want) <= atol + rtol * abs(want)
        self.check(ok, f"{what}: got {got!r}, oracle {want!r}")


def _value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[dict]:
    lines = text.split("\r\n")
    header = lines[0].split(",")
    return [dict(zip(header, map(_value, line.split(",")))) for line in lines[1:] if line]


def flag_value(args: tuple[str, ...], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


# ---------------------------------------------------------------------------
# thermal-environment inequalities, written out independently


def thermal_physical(w, g, gp) -> bool:
    return min(w - abs(g), w - abs(gp), w * w + g * gp - 1.0 - w * abs(g + gp)) >= -BAND


def thermal_separable(w, g, gp) -> bool:
    return w * abs(g - gp) <= w * w - g * gp - 1.0 + BAND


def _sample(rows, rng, want_physical=True):
    pool = [r for r in rows if bool(r["physical"]) == want_physical and not r.get("boundary")]
    return rng.sample(pool, min(SAMPLES, len(pool)))


def _check_flags(checks, rows, rng, w, what):
    """Physical/separable flags of sampled cells, physical and not."""
    for row in _sample(rows, rng, True) + _sample(rows, rng, False)[:5]:
        g, gp = row["g"], row["gp"]
        phys = thermal_physical(w, g, gp)
        checks.check(bool(row["physical"]) == phys, f"{what} physical flag at g={g}, gp={gp}")
        if phys:
            checks.check(bool(row["separable"]) == thermal_separable(w, g, gp),
                         f"{what} separable flag at g={g}, gp={gp}")


# ---------------------------------------------------------------------------
# scan-closed-form


def bell_key_rate(cv, mu, env, xi):
    """Key rate through the full four-mode state and Bell-measurement conditioning."""
    state = cv.GaussianState(np.zeros(8), cv.evolved_cm(cv.SwapInput(mu, env)))
    cond = cv.condition_on_gaussian_measurement(state, [2, 3], "bell")
    return cv.key_rate_from_cm(cond.cm, xi)["rate"]


def large_mu_limit(f, mu=1e6):
    """Richardson extrapolation of a quantity converging as 1/mu."""
    return 2.0 * f(2.0 * mu) - f(mu)


def check_scan_closed_form(cv, argv, text, rng, checks):
    protocol = flag_value(argv, "--protocol")
    tau, w = float(flag_value(argv, "--tau")), float(flag_value(argv, "--omega"))
    rows = parse_csv(text)
    _check_flags(checks, rows, rng, w, protocol)
    for row in _sample(rows, rng):
        env = cv.ThermalEnvironment(tau, w, row["g"], row["gp"])
        where = f"{protocol} at g={row['g']}, gp={row['gp']}"
        if protocol == "qkd":
            mu, xi = float(flag_value(argv, "--mu")), float(flag_value(argv, "--xi"))
            want = bell_key_rate(cv, mu, env, xi)
            checks.close(row["key_rate"], want, 1e-8, 1e-9, f"key_rate {where}")
            if row["qkd_ok"] != "marginal":
                checks.check(bool(row["qkd_ok"]) == (want > 0.0), f"qkd_ok {where}")
        else:
            def rate(mu):
                return cv.key_rate_from_cm(cv.swapped_cm(cv.SwapInput(mu, env)), 1.0)["rate"]

            def eps(mu):
                return cv.smallest_pts_eigenvalue(cv.swapped_cm(cv.SwapInput(mu, env)), [0])

            if isinstance(row["rate_opt"], float) and math.isfinite(row["rate_opt"]):
                checks.close(row["rate_opt"], large_mu_limit(rate), 1e-6, 1e-6, f"rate_opt {where}")
            checks.close(row["epsilon_opt"], large_mu_limit(eps), 1e-6, 1e-7, f"epsilon_opt {where}")


# ---------------------------------------------------------------------------
# scan-entanglement


def _pts_ppt(cv, m, mode):
    """PPT verdict from the numeric PTS spectrum; None too close to call."""
    nu = cv.smallest_pts_eigenvalue(m, [mode])
    return None if abs(nu - 1.0) < PPT_MARGIN else nu > 1.0


def _region(ppt_a, ppt_ap):
    return {(True, True): "I", (True, False): "II", (False, True): "III", (False, False): "IV"}[
        (ppt_a, ppt_ap)
    ]


def check_scan_entanglement(cv, argv, text, rng, checks):
    protocol = flag_value(argv, "--protocol")
    tau, w = float(flag_value(argv, "--tau")), float(flag_value(argv, "--omega"))
    mu = float(flag_value(argv, "--mu"))
    rows = parse_csv(text)
    _check_flags(checks, rows, rng, w, protocol)
    for row in _sample(rows, rng):
        env = cv.ThermalEnvironment(tau, w, row["g"], row["gp"])
        where = f"{protocol} at g={row['g']}, gp={row['gp']}"
        m8 = cv.evolved_cm(cv.SwapInput(mu, env)).m
        if protocol == "quad-entanglement":
            env_m = np.block([[w * np.eye(2), np.diag([env.g, env.gp])],
                              [np.diag([env.g, env.gp]), w * np.eye(2)]])
            info = 2.0 * cv.entropic_h(w) - cv.von_neumann_entropy(env_m)
            checks.close(row["env_mutual_info"], info, 1e-7, 1e-8, f"env_mutual_info {where}")
            ppt_a, ppt_ap = _pts_ppt(cv, m8, 0), _pts_ppt(cv, m8, 2)
            if row["region"] == "boundary" or ppt_a is None or ppt_ap is None:
                continue
            checks.check((row["sigma_prime"] >= 0) == ppt_a, f"PPT sign of a {where}")
            checks.check((row["sigma_double_prime"] >= 0) == ppt_ap, f"PPT sign of A' {where}")
            checks.check(row["region"] == _region(ppt_a, ppt_ap), f"region {where}")
        elif protocol == "bipartite":
            for name, (i, j) in {"aAp": (0, 2), "aBp": (0, 3), "ab": (0, 1), "ApBp": (2, 3)}.items():
                idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
                pt = cv.partial_transpose(m8[np.ix_(idx, idx)], [0])
                want = max(0.0, -math.log2(float(cv.symplectic_spectrum(pt).min())))
                checks.close(row[f"logneg_{name}"], want, 1e-7, 1e-9, f"logneg_{name} {where}")
        else:
            idx = [0, 1, 4, 5, 6, 7]  # triplet (a, A', B')
            m6 = m8[np.ix_(idx, idx)]
            ppt = [_pts_ppt(cv, m6, k) for k in range(3)]
            if None in ppt:
                continue
            cls = int(row["tri_class"])
            want = "4 or 5" if all(ppt) else str(sum(ppt) + 1)
            got = "4 or 5" if cls in (4, 5) else str(cls)
            checks.check(got == want, f"tri_class {where}: got {cls}, PPT pattern {ppt}")


# ---------------------------------------------------------------------------
# contour-point


def check_thresholds(cv, argv, text, checks, tol) -> int:
    """Check every contour point of one thresholds output; returns their number."""
    tau, w = float(flag_value(argv, "--tau")), float(flag_value(argv, "--omega"))
    mu, xi = float(flag_value(argv, "--mu")), float(flag_value(argv, "--xi"))
    rows = parse_csv(text)
    for row in rows:
        gp, g = row["gp"], row["g"]

        def rate(x):
            return cv.qkd_rate(cv.SwapInput(mu, cv.ThermalEnvironment(tau, w, x, gp)), xi)

        try:
            lo, hi = rate(g - tol), rate(g + tol)
        except cv.ValidationError as exc:
            checks.check(False, f"contour point gp={gp}, g={g} leaves the physical region: {exc}")
            continue
        checks.check((lo > 0.0) != (hi > 0.0),
                     f"contour point gp={gp}, g={g} brackets no sign change ({lo!r}, {hi!r})")
    return len(rows)


def check_point(cv, argv, text, checks):
    report = json.loads(text)["report"]
    env = cv.ThermalEnvironment(*(float(flag_value(argv, f)) for f in ("--tau", "--omega", "--g", "--gp")))
    xi = float(flag_value(argv, "--xi"))
    inp = cv.SwapInput(float(flag_value(argv, "--mu")), env)
    want = cv.key_rate_from_cm(cv.swapped_cm(inp), xi)["rate"]
    checks.close(report["key_rate"], want, 1e-8, 1e-9, f"point key_rate for {' '.join(argv)}")


# ---------------------------------------------------------------------------
# shot-sweep


def experiment_configs(cv, report):
    cfg = report["config"]
    for idx, n in enumerate(cfg["n_values"]):
        yield cv.ExperimentConfig(
            mu=cfg["mu"], env=cv.AdditiveEnvironment(n, cfg["c"], cfg["cp"]), shots=cfg["shots"],
            seed=cfg["seed"], relay_efficiency=cfg["eta"], xi=cfg["xi"], stream=idx,
        )


def check_experiment(cv, text, checks) -> list[dict]:
    """Check every cm_hat entry against the infinite-statistics moments.

    Returns, per point, the exact-moment key rate and the loss-induced
    kappa shift (1 - eta)/eta beside the estimated rate: the numbers that
    explain the standing criterion-8 failure.
    """
    report = json.loads(text)
    eta = report["config"]["eta"]
    rows = []
    for point, config in zip(report["points"], experiment_configs(cv, report)):
        n = point["n"]
        exact = cv.estimate_from_second_moments(cv.exact_second_moments(config), config.shots, config.xi)
        rows.append({
            "n": n,
            "key_rate_hat": point.get("key_rate_hat"),
            "key_rate_exact_moments": exact.key_rate_hat,
            "kappa_shift_loss": (1.0 - eta) / eta,
        })
        if "error" in point:
            checks.check(False, f"experiment point n={n}: {point['error']}")
            continue
        got = np.asarray(point["cm_hat"], float)
        err = np.asarray(point["stderr_bands"], float)
        dev = np.abs(got - exact.cm_hat.reshape(-1)) / err
        checks.check(bool(np.all(dev <= STDERR_BOUND)),
                     f"cm_hat at n={n} sits {dev.max():.2f} stderr from the exact moments")
    return rows


def same_report_except_chunking(text_a: str, text_b: str) -> bool:
    """Reports equal in every field but the echoed chunk size."""
    a, b = json.loads(text_a), json.loads(text_b)
    for rep in (a, b):
        rep["rng"].pop("chunk_shots")
    return a == b
