import math
from fractions import Fraction

import numpy as np
from hypothesis import settings

from cvrelay.environments import ThermalEnvironment
from cvrelay.gaussian import ValidationError

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def random_symplectic_matrix(rng, n_modes, layers=4, count=None) -> np.ndarray:
    """Raw random symplectic built from rotations, squeezers and beam
    splitters; a stack of ``count`` of them where ``count`` is given."""
    shape = () if count is None else (count,)
    # per layer: (theta, log s) for each mode, then tau for each neighbouring pair
    draws = rng.random(shape + (layers, 3 * n_modes - 1))
    out = np.broadcast_to(np.eye(2 * n_modes), shape + (2 * n_modes, 2 * n_modes)).copy()
    for u in np.moveaxis(draws, -2, 0):
        for k in range(n_modes):
            theta, s = 2.0 * math.pi * u[..., 2 * k], np.exp(-0.8 + 1.6 * u[..., 2 * k + 1])
            c, sn = np.cos(theta), np.sin(theta)
            local = np.moveaxis(np.array([[c * s, sn / s], [-sn * s, c / s]]), (0, 1), (-2, -1))
            out[..., 2 * k : 2 * k + 2, :] = local @ out[..., 2 * k : 2 * k + 2, :]
        for k in range(n_modes - 1):
            tau = 0.05 + 0.9 * u[..., 2 * n_modes + k, None, None]
            t, r = np.sqrt(tau), np.sqrt(1.0 - tau)  # the beam splitter [[t I, r I], [-r I, t I]]
            top, bottom = out[..., 2 * k : 2 * k + 2, :], out[..., 2 * k + 2 : 2 * k + 4, :]
            out[..., 2 * k : 2 * k + 4, :] = np.concatenate(
                [t * top + r * bottom, t * bottom - r * top], axis=-2
            )
    return out


def random_two_mode_cm(rng, nu_max=10.0, count=None):
    """Random valid two-mode CM with a known symplectic spectrum, ascending;
    stacks of ``count`` of each where ``count`` is given."""
    s = random_symplectic_matrix(rng, 2, count=count)
    nus = np.sort(rng.uniform(1.0, nu_max, size=(() if count is None else (count,)) + (2,)), axis=-1)
    v = s @ (np.repeat(nus, 2, axis=-1)[..., :, None] * np.swapaxes(s, -1, -2))
    return 0.5 * (v + np.swapaxes(v, -1, -2)), nus


def random_thermal_env(rng, separable_only=True, tau_range=(0.1, 0.95), omega_max=30.0):
    """Rejection-sample a bona-fide (optionally separable) thermal environment."""
    while True:
        tau = rng.uniform(*tau_range)
        omega = rng.uniform(1.0, omega_max)
        gg = rng.uniform(-omega, omega)
        gp = rng.uniform(-omega, omega)
        try:
            env = ThermalEnvironment(tau, omega, gg, gp)
        except ValidationError:
            continue
        if env.is_boundary:
            continue
        if separable_only and not env.is_separable:
            continue
        return env


def mp_link_log_negativities(mu, t, e, h, hp):
    """Log-negativities aA' and A'B' of the evolved state of link map (t, e, h, h')
    to 40 digits, from the smallest eigenvalues of the partially transposed
    sectors [[mu, c], [c, x]] and [[x, +-h], [+-h, x]], [[x, -+h'], [-+h', x]],
    c^2 = (mu^2 - 1) t and x = t mu + e.  Their entries, determinant and
    products are exact rationals, so nothing cancels before the roots."""
    import mpmath

    mu, t, e, h, hp = map(Fraction, (mu, t, e, h, hp))
    c2, x = (mu * mu - 1) * t, t * mu + e
    with mpmath.workdps(40):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        lam_max = mp(mu + x) / 2 + mpmath.sqrt(mp((mu - x) ** 2 / 4 + c2))
        nus = (mp(mu * x - c2) / lam_max, mpmath.sqrt(mp(min((x + h) * (x - hp), (x - h) * (x + hp)))))
        return [float(max(0, -mpmath.log(nu, 2))) for nu in nus]
