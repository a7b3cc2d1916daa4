"""Independent naive reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way: explicit
loops, index clipping by hand, no integral volumes, no vectorized sweeps,
no code shared with the production kernels.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from msc3d.npy_io import (
    BatchTable,
    DuplicateSubjectError,
    MalformedRowError,
    ManifestEntry,
    MissingColumnError,
    NonPositiveAgeError,
)


def pad_replicate(arr: np.ndarray, factor: int) -> np.ndarray:
    """Edge-replicate pad to divisibility by gathering clipped indices."""
    dims = arr.shape
    out_dims = [((d + factor - 1) // factor) * factor for d in dims]
    idx = [np.minimum(np.arange(od), d - 1) for od, d in zip(out_dims, dims)]
    return arr[np.ix_(*idx)]


def block_means(arr: np.ndarray, factor: int) -> np.ndarray:
    """Triple loop over blocks of an already-padded array."""
    nx, ny, nz = (d // factor for d in arr.shape)
    out = np.empty((nx, ny, nz))
    for bx in range(nx):
        for by in range(ny):
            for bz in range(nz):
                block = arr[
                    bx * factor : (bx + 1) * factor,
                    by * factor : (by + 1) * factor,
                    bz * factor : (bz + 1) * factor,
                ]
                out[bx, by, bz] = block.mean()
    return out


def sliding_window_mean(arr: np.ndarray, side: int) -> np.ndarray:
    """Seven-loop clipped-window cubic mean."""
    X, Y, Z = arr.shape
    lo = -(side // 2)
    hi = side - 1 - side // 2
    out = np.empty_like(arr)
    for x in range(X):
        for y in range(Y):
            for z in range(Z):
                total = 0.0
                count = 0
                for i in range(max(0, x + lo), min(X, x + hi + 1)):
                    for j in range(max(0, y + lo), min(Y, y + hi + 1)):
                        for k in range(max(0, z + lo), min(Z, z + hi + 1)):
                            total += arr[i, j, k]
                            count += 1
                out[x, y, z] = total / count
    return out


def _window_sums_along(arr: np.ndarray, axis: int, side: int, running_sum: bool) -> np.ndarray:
    """Clipped window sums along one axis, one index at a time, adding in
    the order the production kernels add: either the voxel, then the
    offsets +1..+after, then -1..-before that stay inside the axis; or two
    entries of a sequential running sum."""
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    before = side // 2
    after = side - 1 - before
    out = np.empty_like(a)
    if running_sum:
        run = np.empty_like(a)
        for i in range(n):
            run[i] = a[i] if i == 0 else run[i - 1] + a[i]
        for i in range(n):
            last = run[min(i + after, n - 1)]
            out[i] = last - run[i - before - 1] if i - before - 1 >= 0 else last
    else:
        for i in range(n):
            acc = a[i].copy()
            for d in [*range(1, after + 1), *range(-1, -before - 1, -1)]:
                if 0 <= i + d < n:
                    acc += a[i + d]
            out[i] = acc
    return np.moveaxis(out, 0, axis)


def separable_window_means(arr: np.ndarray, side: int, running_sum: bool) -> np.ndarray:
    """Clipped cubic window means with the production kernels' arithmetic,
    written as plain loops: window sums along x, then y, then z, one
    multiply by 1/side**3, then per axis one multiply by side / count, the
    in-bounds count of each index (1.0 inside). Equal to the bit to what
    ``coarse`` computes."""
    out = arr
    for axis in range(3):
        out = _window_sums_along(out, axis, side, running_sum)
    out = out * (1.0 / side**3)
    before = side // 2
    after = side - 1 - before
    for axis in range(3):
        n = out.shape[axis]
        view = np.moveaxis(out, axis, 0)
        for i in range(n):
            count = min(i + after, n - 1) - max(i - before, 0) + 1
            view[i] *= side / count
    return out


def shift_overlaps(block: np.ndarray) -> tuple[float, float, float]:
    """Forward-difference form: o_axis = -mean of squared forward diffs / 2."""
    wx, wy, wz = block.shape
    sums = [0.0, 0.0, 0.0]
    count = (wx - 1) * (wy - 1) * (wz - 1)
    for x in range(wx - 1):
        for y in range(wy - 1):
            for z in range(wz - 1):
                sums[0] += (block[x + 1, y, z] - block[x, y, z]) ** 2
                sums[1] += (block[x, y + 1, z] - block[x, y, z]) ** 2
                sums[2] += (block[x, y, z + 1] - block[x, y, z]) ** 2
    return tuple(-0.5 * s / count for s in sums)


def window_sweep_map(arr: np.ndarray, window, stride) -> np.ndarray:
    """Per-window complexity map via explicit offsets and shift overlaps."""
    wx, wy, wz = window
    sx, sy, sz = stride
    X, Y, Z = arr.shape
    nx = (X - wx) // sx + 1
    ny = (Y - wy) // sy + 1
    nz = (Z - wz) // sz + 1
    out = np.empty((nx, ny, nz))
    for i in range(nx):
        ox = i * sx
        for j in range(ny):
            oy = j * sy
            for l in range(nz):
                oz = l * sz
                block = arr[ox : ox + wx, oy : oy + wy, oz : oz + wz]
                o_x, o_y, o_z = shift_overlaps(block)
                out[i, j, l] = -(o_x + o_y + o_z) / 3.0
    return out


def algorithm1(arr: np.ndarray, factors, window, stride):
    """Straight-line multiscale run: pad, block-average, sweep, average.

    Window and stride are clipped per axis to the downsampled extent the
    same way the production pipeline documents (floor 2 for the window,
    floor 1 for the stride). Returns (scale values, maps).
    """
    values = []
    maps = []
    for factor in factors:
        padded = pad_replicate(arr, factor) if any(d % factor for d in arr.shape) else arr
        down = block_means(padded, factor) if factor > 1 else arr
        w_used = tuple(max(2, min(w, d)) for w, d in zip(window, down.shape))
        s_used = tuple(max(1, min(s, d)) for s, d in zip(stride, down.shape))
        cmap = window_sweep_map(down, w_used, s_used)
        values.append(cmap.mean())
        maps.append(cmap)
    return values, maps


def block_cascade(arr: np.ndarray, factors):
    """Loop cascade: downsample by each factor ratio, re-upsample, overlap."""
    values = []
    current = arr
    prev = 1
    for factor in factors:
        inc = factor // prev
        prev = factor
        if inc == 1:
            values.append(0.0)
            continue
        padded = pad_replicate(current, inc) if any(d % inc for d in current.shape) else current
        down = block_means(padded, inc)
        recon = np.empty_like(current)
        X, Y, Z = current.shape
        for x in range(X):
            for y in range(Y):
                for z in range(Z):
                    recon[x, y, z] = down[x // inc, y // inc, z // inc]
        values.append(0.5 * np.mean((current - recon) ** 2))
        current = down
    return values


def pearson_mp(pairs):
    """High-precision regression oracle (50 significant digits via mpmath)."""
    import mpmath as mp

    with mp.workdps(50):
        xs = [mp.mpf(x) for x, _ in pairs]
        ys = [mp.mpf(y) for _, y in pairs]
        n = len(xs)
        xm = mp.fsum(xs) / n
        ym = mp.fsum(ys) / n
        sxx = mp.fsum((x - xm) ** 2 for x in xs)
        syy = mp.fsum((y - ym) ** 2 for y in ys)
        sxy = mp.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = ym - slope * xm
        r = sxy / mp.sqrt(sxx * syy)
        df = n - 2
        t_sq = r * r * df / (1 - r * r)
        x_beta = mp.mpf(df) / (df + t_sq)
        p = mp.betainc(mp.mpf(df) / 2, mp.mpf("0.5"), 0, x_beta, regularized=True)
        return float(r), float(slope), float(intercept), float(p)


def log_log_pairs_by_subject(batch_rows, manifest_ages, scale_index):
    """(ln C, ln age) pairs at one scale, gathered one subject at a time.

    ``batch_rows`` are ``(subject_id, scale_index, scale_factor, complexity)``
    tuples in any order, ``manifest_ages`` ``(subject_id, age)`` tuples in
    manifest order. Rows go into a dict per subject; pairs follow the
    manifest, leaving out subjects without a row at the scale, subjects
    whose complexity is not positive, and rows of subjects the manifest
    does not name.
    """
    per_subject = {}
    for subject_id, k, _factor, c in batch_rows:
        per_subject.setdefault(subject_id, {})[k] = c
    pairs = []
    for subject_id, age in manifest_ages:
        c = per_subject.get(subject_id, {}).get(scale_index)
        if c is None or not c > 0.0:
            continue
        pairs.append((math.log(c), math.log(age)))
    return pairs


def csv_body(path, columns):
    """Yield (line number, stripped cells) for each non-blank row after the
    header, read by ``csv.reader`` straight from the file; a row of the wrong
    width raises when it is reached. A row's line number is the file line it
    starts on: the line after the one the row before it ended on."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows, ends = [], []
        try:
            for row in reader:
                rows.append(row)
                ends.append(reader.line_num)
        except csv.Error as exc:
            raise MalformedRowError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or tuple(cell.strip() for cell in rows[0]) != columns:
        raise MissingColumnError(f"{path}: first row must be the header {','.join(columns)}")
    for line_no, row in zip((end + 1 for end in ends), rows[1:]):
        if not row:
            continue
        if len(row) != len(columns):
            raise MalformedRowError(f"{path}: line {line_no}: expected {len(columns)} fields, got {len(row)}")
        yield line_no, [cell.strip() for cell in row]


def read_manifest(path):
    """A manifest checked and converted one row at a time."""
    entries = []
    seen = {}
    for line_no, (subject_id, volume_path, age_text) in csv_body(path, ("subject_id", "volume_path", "age_years")):
        if not subject_id or not volume_path:
            raise MalformedRowError(f"{path}: line {line_no}: empty subject_id or volume_path")
        if subject_id in seen:
            raise DuplicateSubjectError(
                f"{path}: line {line_no}: subject_id {subject_id!r} already seen on line {seen[subject_id]}"
            )
        try:
            age = float(age_text)
        except ValueError:
            raise MalformedRowError(f"{path}: line {line_no}: age_years {age_text!r} is not a number") from None
        if not age > 0:
            raise NonPositiveAgeError(f"{path}: line {line_no}: age_years must be > 0, got {age_text}")
        if age == math.inf:
            raise MalformedRowError(f"{path}: line {line_no}: age_years {age_text!r} is not a finite number")
        seen[subject_id] = line_no
        entries.append(ManifestEntry(subject_id, volume_path, age))
    return tuple(entries)


def read_batch_csv(path):
    """A batch CSV checked one row at a time and filled into its matrix."""
    value_at = {}
    factor_at = {}
    for line_no, (sid, k_text, factor_text, c_text) in csv_body(
        path, ("subject_id", "scale_index", "scale_factor", "complexity")
    ):
        try:
            k, factor, c = int(k_text), int(factor_text), float(c_text)
        except ValueError as exc:
            raise MalformedRowError(f"{path}: line {line_no}: {exc}") from None
        if not math.isfinite(c):
            raise MalformedRowError(f"{path}: line {line_no}: complexity {c_text!r} is not finite")
        if c < 0.0:
            raise MalformedRowError(f"{path}: line {line_no}: complexity {c_text!r} is negative")
        if (sid, k) in value_at:
            raise MalformedRowError(
                f"{path}: line {line_no}: subject {sid!r} at scale {k} already given on line {value_at[sid, k][0]}"
            )
        seen_factor, seen_line = factor_at.setdefault(k, (factor, line_no))
        if factor != seen_factor:
            raise MalformedRowError(
                f"{path}: line {line_no}: scale {k} has factor {factor}, but factor {seen_factor} on line {seen_line}"
            )
        value_at[sid, k] = (line_no, c)
    subjects = list(dict.fromkeys(sid for sid, _ in value_at))
    scales = sorted(factor_at)
    complexity = np.full((len(subjects), len(scales)), np.nan)
    for (sid, k), (_, c) in value_at.items():
        complexity[subjects.index(sid), scales.index(k)] = c
    if not value_at:
        complexity = np.empty((0, 0))
    return BatchTable(tuple(subjects), tuple(scales), tuple(factor_at[k][0] for k in scales), complexity)
