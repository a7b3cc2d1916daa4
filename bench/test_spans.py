"""Tests for the benchmark's tracer and self-time arithmetic.

    python3 -m pytest -q bench/test_spans.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from spans import Span, Tracer, layer_stats, self_times

SRC = Path(__file__).resolve().parent.parent / "src"


def synthetic_tree() -> list[Span]:
    # root [0, 10]
    #   a [1, 4]          (op 0)
    #     a1 [2, 3]
    #   b [3, 6]          overlaps a: the children cover [1, 6] once, not 6 s
    #   c [8, 12]         ends after its parent: only [8, 10] counts against root
    # other [20, 21]      a second root in op 1
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 8.0, 12.0, 0, 0),
        Span("other", 20.0, 21.0, -1, 1),
    ]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    assert self_times(synthetic_tree()) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.0])


def test_self_times_of_a_nested_tree_add_up_to_the_root_duration():
    spans = [
        Span("root", 0.0, 8.0, -1, 0),
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 2.0, 3.0, 1, 0),
        Span("z", 3.5, 4.5, 1, 0),
        Span("w", 6.0, 7.5, 0, 0),
    ]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_layer_stats_name_factors_and_count_calls_per_op():
    spans = [
        Span("complexity.multiscale_run", 0.0, 10.0, -1, 0),
        Span("coarse.block_downsample", 1.0, 2.0, 0, 0, 2),
        Span("coarse.block_downsample", 2.0, 2.5, 0, 0, 4),
        Span("coarse.block_downsample", 3.0, 6.0, 0, 1, 2),
        Span("npy_io.read_npy", 7.0, 8.0, 0, 1, "v.npy"),
    ]
    stats = layer_stats(spans, {0, 1})
    assert stats["coarse.block_downsample.f2"] == {"s": pytest.approx(2.0), "calls": 1.0}
    assert stats["coarse.block_downsample.f4"] == {"s": pytest.approx(0.5), "calls": 0.5}
    assert stats["npy_io.read_npy"]["s"] == pytest.approx(1.0)
    assert stats["complexity.multiscale_run"]["s"] == pytest.approx(4.5)
    only_op1 = layer_stats(spans, {1})
    assert set(only_op1) == {"coarse.block_downsample.f2", "npy_io.read_npy"}
    assert only_op1["coarse.block_downsample.f2"] == {"s": pytest.approx(3.0), "calls": 1.0}


@pytest.fixture
def msc3d_modules():
    sys.path.insert(0, str(SRC))
    try:
        import msc3d.cli  # imports every module the tracer wraps

        yield sys.modules["msc3d.complexity"], sys.modules["msc3d.volume"]
    finally:
        sys.path.remove(str(SRC))


def test_tracer_records_nested_spans_and_uninstall_restores(msc3d_modules):
    complexity, volume = msc3d_modules
    original_downsample = complexity.block_downsample
    original_post_init = volume.Volume3D.__post_init__
    v = volume.Volume3D(np.random.default_rng(0).random((8, 8, 8)))
    schedule = complexity.ScaleSchedule(factors=(1, 2), window=(2, 2, 2), stride=(1, 1, 1))
    expected = complexity.multiscale_run(v, schedule).profile

    tracer = Tracer()
    tracer.install()
    tracer.op = 7
    try:
        assert complexity.multiscale_run(v, schedule).profile == expected
    finally:
        tracer.uninstall()
    spans = tracer.finished()
    assert complexity.block_downsample is original_downsample
    assert volume.Volume3D.__post_init__ is original_post_init

    names = [s.name for s in spans]
    root = names.index("complexity.multiscale_run")
    assert spans[root].parent == -1
    downsample = [s for s in spans if s.name == "coarse.block_downsample"]
    assert [s.info for s in downsample] == [1, 2]
    assert all(s.parent == root and s.op == 7 for s in downsample)
    maps = [s for s in spans if s.name == "complexity.complexity_map"]
    assert [s.info for s in maps] == [1, 2]
    assert "volume.Volume3D" in names
    assert sum(self_times(spans)) == pytest.approx(spans[root].end - spans[root].start)
