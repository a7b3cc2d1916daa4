"""The package's public surface, pinned: adding or dropping a name is a
deliberate change to this list."""

import msc3d

PUBLIC_NAMES = [
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


def test_all_is_the_pinned_surface_and_every_name_resolves():
    assert sorted(msc3d.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from msc3d import *", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)
