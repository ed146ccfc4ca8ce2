"""Seeded workload definitions: the cvrelay CLI commands each workload runs.

A workload is a fixed list of commands (one "pass").  The seed sets a
sub-step offset of every grid axis, the random ``point`` environments and
the experiment ``--seed``; the same seed always yields the same argv lists.
Every scan runs with ``--threads 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Correlated-thermal point of the README examples.  omega sits just above
# omega_EB(0.9) = 19, where the tripartite witness search is reached often.
TAU, OMEGA = 0.9, 19.38
MU = 52
XI = 0.97
# A pass takes about a second and is cut into commands of about 0.1 s:
# tiles of each scan plane, a few contour columns or one experiment point
# per command.  A run then times every command a dozen times or more, and
# the shortest time per command rides out the host's slow spells, which
# often come and go within a second.  The grids span the same (g, g') ranges
# as finer ones would, so the mix of physical, non-physical and
# witness-reaching cells is the same.
POINT_CALLS = 200


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the number of work items it produces.

    ``items`` is None when the item count is read from the output (scan
    cells); ``kind`` is the subcommand name.
    """

    argv: tuple[str, ...]
    items: int | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    bulk_kind: str  # the subcommand whose items define items_per_s
    item: str  # what one item is, for the report

    def commands(self, seed: int) -> list[Command]:
        return _COMMAND_LISTS[self.name](random.Random(seed), seed)


def axis(start: float, step: float, count: int) -> str:
    """'lo:hi:step' with ``count`` points from ``start``."""
    return f"{start!r}:{start + (count - 1) * step!r}:{step!r}"


def _plane(rng, protocol, step, count, tiles, *extra):
    """A thermal-family scan over a count x count (g, g') grid, as ``tiles``
    commands that each take a band of consecutive g rows."""
    g0 = -OMEGA + rng.random() * step
    gp = axis(-OMEGA + rng.random() * step, step, count)
    bounds = [round(k * count / tiles) for k in range(tiles + 1)]
    return [Command(("scan", "--protocol", protocol, "--tau", repr(TAU), "--omega", repr(OMEGA), *extra,
                     "--g", axis(g0 + lo * step, step, hi - lo), "--gp", gp, "--threads", "1"))
            for lo, hi in zip(bounds, bounds[1:])]


def _scan_closed_form(rng, seed):
    return [*_plane(rng, "qkd", 0.5, 78, 6, "--mu", str(MU), "--xi", repr(XI)),
            *_plane(rng, "qkd-asymptotic", 0.5, 78, 6)]


def _scan_entanglement(rng, seed):
    mu = ("--mu", str(MU))
    return [*_plane(rng, "quad-entanglement", 1.1, 35, 5, *mu),
            *_plane(rng, "tripartite", 1.85, 21, 3, *mu),
            *_plane(rng, "bipartite", 1.85, 21, 3, *mu)]


def random_point_env(rng) -> dict[str, float]:
    """A physical thermal environment away from every boundary inequality."""
    tau = rng.uniform(0.5, 0.95)
    omega = rng.uniform(1.5, 30.0)
    margin = 1e-3 * omega * omega
    while True:
        g, gp = rng.uniform(-omega, omega), rng.uniform(-omega, omega)
        slacks = (
            omega - abs(g),
            omega - abs(gp),
            omega * omega + g * gp - 1.0 - omega * abs(g + gp),
        )
        separability = omega * omega - g * gp - 1.0 - omega * abs(g - gp)
        if min(slacks) > margin and abs(separability) > margin:
            return {"tau": tau, "omega": omega, "g": g, "gp": gp}


def _contour_point(rng, seed):
    """The README thresholds command, three columns at a time, then point calls."""
    gp0, g = -19.0 + rng.random() * 0.75, axis(-19.0 + rng.random() * 0.1, 0.1, 384)
    cmds = [
        Command(("thresholds", "--metric", "qkd", "--tau", repr(TAU), "--omega", repr(OMEGA),
                 "--mu", str(MU), "--xi", repr(XI), "--gp", axis(gp0 + k * 0.75, 0.75, 3), "--g", g),
                items=3)
        for k in range(0, 51, 3)
    ]
    for _ in range(POINT_CALLS):
        env = random_point_env(rng)
        argv = ["point"]
        for key in ("tau", "omega", "g", "gp"):
            argv += [f"--{key}", repr(env[key])]
        argv += ["--mu", repr(rng.uniform(1.5, 60.0)), "--xi", repr(rng.uniform(0.9, 1.0))]
        cmds.append(Command(tuple(argv), items=1))
    return cmds


SHOT_SWEEP = {"n": [0.0, 1.0, 2.0, 3.0, 4.0], "mu": MU, "c": 1, "cp": 1, "eta": 0.98,
              "xi": XI, "shots": 250_000}


def _shot_sweep(rng, seed):
    """One experiment command per point of the n sweep."""
    s = SHOT_SWEEP
    return [Command(("experiment", "--n", repr(n), "--mu", str(s["mu"]), "--c", str(s["c"]),
                     "--cp", str(s["cp"]), "--eta", repr(s["eta"]), "--xi", repr(s["xi"]),
                     "--shots", str(s["shots"]), "--seed", str(seed)), items=s["shots"])
            for n in s["n"]]


_COMMAND_LISTS = {
    "scan-closed-form": _scan_closed_form,
    "scan-entanglement": _scan_entanglement,
    "contour-point": _contour_point,
    "shot-sweep": _shot_sweep,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-closed-form", "scan", "cells"),
        Workload("scan-entanglement", "scan", "cells"),
        Workload("contour-point", "thresholds", "columns"),
        Workload("shot-sweep", "experiment", "shots"),
    )
}
