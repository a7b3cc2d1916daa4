"""Multiscale structural complexity of 3-D scalar volumes.

Coarse-grains a volume at progressively larger spatial scales (block
averaging or sliding cubic means), scores the information lost between
resolutions via mean-square overlaps, and correlates the per-scale values
against subject age across a cohort in log-log space.
"""

from .complexity import (
    ComplexityMap,
    ProfileEntry,
    RunResult,
    ScaleSchedule,
    complexity_map,
    multiscale_run,
    overlap,
)
from .coarse import block_downsample, sliding_mean
from .npy_io import ManifestEntry, read_manifest, read_npy, write_npy
from .stats import (
    CorrelationRow,
    benjamini_hochberg,
    pearson_regression,
    table_to_csv,
    table_to_text,
)
from .volume import PhantomSpec, Volume3D, generate_phantom, mid_slice

__version__ = "0.1.0"

__all__ = [
    "ComplexityMap",
    "CorrelationRow",
    "ManifestEntry",
    "PhantomSpec",
    "ProfileEntry",
    "RunResult",
    "ScaleSchedule",
    "Volume3D",
    "benjamini_hochberg",
    "block_downsample",
    "complexity_map",
    "generate_phantom",
    "mid_slice",
    "multiscale_run",
    "overlap",
    "pearson_regression",
    "read_manifest",
    "read_npy",
    "sliding_mean",
    "table_to_csv",
    "table_to_text",
    "write_npy",
]
