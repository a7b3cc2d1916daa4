"""Each mode's profile on white noise against its closed form.

For i.i.d. noise of variance s2, a mean over a box of side f has variance
s2 / f**3. So algorithm1, which scores each scale's field on its own, should
read s2 / f**3 at factor f, and a cascade, which scores the information lost
from factor f_{k-1} to f_k, should read s2 / 2 * (f_{k-1}**-3 - f_k**-3) at
step k and exactly 0 at factor 1.

On uniform noise (s2 = 1/12) at 128^3, seeds 0-9, the measured-to-closed-form
ratio spans 0.996-1.002 for algorithm1 at factor 2, 0.929-1.129 at 16 and
0.754-1.210 at 32, and 0.911-1.084 for the block cascade at every factor.
The bound below, a factor of 1.5 either way, holds for all of them. The
sliding cascade reads 0.667 at factor 4, 1.67-1.69 at 8, 6.2-6.3 at 16 and
28.2-28.7 at 32: each step widens its kernel by one voxel instead of
reaching the labelled scale (ROADMAP item 1). The volume is 128^3 because at
64^3 algorithm1's factor-32 ratio spans 0.005-2.3 over the same seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from msc3d import ScaleSchedule, Volume3D, multiscale_run

FACTORS = (1, 2, 4, 8, 16, 32)
VARIANCE = 1 / 12  # of uniform noise on [0, 1)
BOUND = 1.5


def closed_form(mode: str) -> list[float]:
    if mode == "algorithm1":
        return [VARIANCE / f**3 for f in FACTORS]
    return [0.0] + [VARIANCE / 2 * (a**-3 - b**-3) for a, b in zip(FACTORS, FACTORS[1:])]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "mode",
    [
        "algorithm1",
        "block_cascade",
        pytest.param(
            "sliding_cascade",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: each sliding step widens the kernel by one voxel, "
                "so the steps from factor 8 up read 1.7-28x their closed form",
            ),
        ),
    ],
)
def test_white_noise_profile_matches_its_closed_form(mode, seed):
    noise = np.random.default_rng(seed).random((128, 128, 128))
    profile = multiscale_run(Volume3D(noise), ScaleSchedule(factors=FACTORS, mode=mode)).profile
    measured = [e.complexity for e in profile]
    expected = closed_form(mode)
    if mode != "algorithm1":
        assert measured[0] == 0.0
        measured, expected = measured[1:], expected[1:]
    ratios = [m / e for m, e in zip(measured, expected)]
    assert all(1 / BOUND <= r <= BOUND for r in ratios), dict(zip(FACTORS[-len(ratios) :], ratios))
