"""Seeded argv streams for the four benchmark workloads.

Each workload is an endless stream of CLI invocations (ops) built only
from the workload name and the seed, so the same seed always gives the
same argv list.  Every numeric value is passed as ``--flag=value``: the
CLI's argparse rejects a separate negative value in scientific notation
(``--delta -5e-05`` exits 1 with "expected one argument").

Why these workloads:

paper-grid    the paper's headline 3 x 3 table; small batches of 9
              spectra with n <= 3, so per-call fixed cost and CSV
              formatting show.  The grid is fixed by the paper, so the
              seed only shuffles the order of the four coupling modes.
sweep         throughput of the root finder and the residual kernel:
              101 sweep points x 21 cells per op, about half of all lines
              absent, so the absence path, poles and complex eta run.
wavefunction  the per-point Kummer loop and CSV formatting; only two
              cell solves per op, so root-finder changes should not move
              it.  ps mode has both lines in every sampled cell.
aim           the only workload that reaches the exact AIM certificate;
              the perturbed twin drives the same recurrence with a
              non-terminating tau, so a shortcut on the exact path alone
              shows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

MODES = ("emes", "emos", "pv", "ps")
AXES = ("delta", "lambda_b")
BRANCHES = ("plus", "minus")

SWEEP_NMAX = 5
SWEEP_START, SWEEP_STOP, SWEEP_STEP = -0.005, 0.005, 0.0001
SWEEP_A_RANGE = (50.0, 350.0)
SWEEP_FIXED_RANGE = 0.005

WAVE_POINTS = 20000
WAVE_NMAX = 5
WAVE_PARAM_RANGE = 0.003

AIM_NMAX = 8
# One random (eta, beta^2) draw per level keeps an op near 0.4 s (exact)
# or 0.8 s (perturbed), so a run holds enough ops for a median and a tail.
AIM_SEEDS = 1

WORKLOADS = ("paper-grid", "sweep", "wavefunction", "aim")

# Fixed tail percentile per workload: with the default run length each
# leaves at least ten ops beyond it at the seed commit.  It is fixed, not
# derived from the op count, so runs of faster or slower code compare the
# same percentile.
TAIL_PERCENTILE = {"paper-grid": 98.0, "sweep": 75.0,
                   "wavefunction": 75.0, "aim": 70.0}

# Ops per pass of the traced run: one of each mode, one of each n, one
# exact/perturbed round.  Every pass repeats the same ops, so the per-pass
# counts repeat exactly.
TRACE_PASS_OPS = {"paper-grid": 4, "sweep": 2, "wavefunction": 6, "aim": 2}

# What one unit of work is, for the throughput metric.
WORK_UNIT = {"paper-grid": "cells", "sweep": "cells",
             "wavefunction": "samples", "aim": "certs"}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output check needs to know."""

    argv: Tuple[str, ...]
    params: Tuple[Tuple[str, object], ...] = ()
    # True when the loop may stop after this op; the aim workload stops
    # only after whole exact/perturbed rounds so both kinds stay balanced.
    closes_round: bool = True

    def param(self, name):
        return dict(self.params)[name]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _paper_grid(rng: random.Random) -> Iterator[Op]:
    order = list(MODES)
    rng.shuffle(order)
    for mode in itertools.cycle(order):
        yield Op(("solve", "--mode", mode, "--paper-grid"),
                 params=(("mode", mode),))


def _sweep(rng: random.Random) -> Iterator[Op]:
    combos = list(itertools.product(MODES, AXES, BRANCHES))
    while True:
        # Each block of 16 ops covers every (mode, axis, branch) once, so
        # runs of different seeds hold the same mix of op kinds.
        rng.shuffle(combos)
        for mode, axis, branch in combos:
            A = round(rng.uniform(*SWEEP_A_RANGE), 3)
            fixed = round(rng.uniform(-SWEEP_FIXED_RANGE, SWEEP_FIXED_RANGE), 6)
            fixed_flag = "--lambda-b" if axis == "delta" else "--delta"
            yield Op(("sweep", "--mode", mode, "--axis", axis,
                      f"--start={SWEEP_START!r}", f"--stop={SWEEP_STOP!r}",
                      f"--step={SWEEP_STEP!r}", f"--A={A!r}",
                      f"{fixed_flag}={fixed!r}", "--branch", branch,
                      f"--nmax={SWEEP_NMAX}", "--format", "json"))


def _wavefunction(rng: random.Random) -> Iterator[Op]:
    levels = list(range(WAVE_NMAX + 1))
    while True:
        rng.shuffle(levels)
        for n in levels:
            l = rng.randint(0, n)
            delta = round(rng.uniform(-WAVE_PARAM_RANGE, WAVE_PARAM_RANGE), 6)
            lam_b = round(rng.uniform(-WAVE_PARAM_RANGE, WAVE_PARAM_RANGE), 6)
            yield Op(("wavefunction", "--mode", "ps", f"--n={n}", f"--l={l}",
                      f"--delta={delta!r}", f"--lambda-b={lam_b!r}",
                      f"--points={WAVE_POINTS}", "--line", "both",
                      "--format", "csv"),
                     params=(("n", n), ("points", WAVE_POINTS)))


def _aim(rng: random.Random) -> Iterator[Op]:
    while True:
        draw = rng.randrange(1, 2 ** 31)
        base = ("aim-verify", f"--nmax={AIM_NMAX}", f"--seeds={AIM_SEEDS}",
                f"--seed={draw}")
        yield Op(base, params=(("perturb", False),), closes_round=False)
        yield Op(base + ("--perturb",), params=(("perturb", True),))


_STREAMS = {"paper-grid": _paper_grid, "sweep": _sweep,
            "wavefunction": _wavefunction, "aim": _aim}


def ops(workload: str, seed: int) -> Iterator[Op]:
    """Endless op stream of a workload; the same seed gives the same ops."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    return _STREAMS[workload](_rng(workload, seed))
