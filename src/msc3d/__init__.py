"""Multiscale structural complexity of 3-D scalar volumes.

Coarse-grains a volume at progressively larger spatial scales (block
averaging or sliding cubic means), scores the information lost between
resolutions via mean-square overlaps, and correlates the per-scale values
against subject age across a cohort in log-log space.
"""

from .complexity import (
    ComplexityMap,
    ComplexityProfile,
    ProfileEntry,
    RunResult,
    ScaleSchedule,
    complexity_map,
    multiscale_profile,
    multiscale_run,
    overlap,
    shift_overlap_axes,
)
from .coarse import block_downsample, block_upsample, sliding_mean
from .npy_io import (
    Manifest,
    ManifestEntry,
    NpyHeader,
    read_manifest,
    read_npy,
    read_npy_header,
    write_npy,
)
from .stats import (
    CorrelationRow,
    benjamini_hochberg,
    correlation_table,
    log_log_pairs,
    pearson_regression,
    table_to_csv,
    table_to_text,
)
from .volume import (
    PhantomSpec,
    Volume3D,
    generate_phantom,
    mid_slice,
    pad_to_multiple,
    spatial_mean,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexityMap",
    "ComplexityProfile",
    "CorrelationRow",
    "Manifest",
    "ManifestEntry",
    "NpyHeader",
    "PhantomSpec",
    "ProfileEntry",
    "RunResult",
    "ScaleSchedule",
    "Volume3D",
    "benjamini_hochberg",
    "block_downsample",
    "block_upsample",
    "complexity_map",
    "correlation_table",
    "generate_phantom",
    "log_log_pairs",
    "mid_slice",
    "multiscale_profile",
    "multiscale_run",
    "overlap",
    "pad_to_multiple",
    "pearson_regression",
    "read_manifest",
    "read_npy",
    "read_npy_header",
    "shift_overlap_axes",
    "sliding_mean",
    "spatial_mean",
    "table_to_csv",
    "table_to_text",
    "write_npy",
]
