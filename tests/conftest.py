from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from msc3d import Volume3D


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def dyadic_array(rng: np.random.Generator, shape, steps: int = 256) -> np.ndarray:
    """Random values quantized to 1/steps so small sums stay exact in float64."""
    return np.floor(rng.random(shape) * steps) / steps


def random_volume(rng: np.random.Generator, shape) -> Volume3D:
    return Volume3D(rng.random(shape))


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
