"""Command-line surface: single-volume compute, cohort batch runs,
correlation reports, phantom synthesis, and mid-slice PGM rendering.

Exit codes: 0 success, 2 I/O, malformed input or values that overflow
float64, 3 infeasible schedule, 4 invalid phantom spec, 5 statistics
failure, 1 out of memory (in every command) or, for a batch subject under
``--strict``, out of memory or a killed worker. Every failure prints a
single ``ErrorName: message`` line on stderr; in ``batch`` a failing
subject goes to the errors sidecar instead, ``BrokenProcessPool`` if its
worker was killed, and the other subjects are still written.

All outputs are deterministic functions of the inputs and flags; batch
results are buffered and written in manifest order regardless of worker
count, so reruns and different ``--jobs`` values produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import compress
from pathlib import Path

import numpy as np

from .complexity import MODES, ScaleSchedule, ScheduleInfeasibleError, multiscale_run
from .errors import InputError, Msc3dError, PhantomError, ScheduleError, ShapeMismatchError, StatsError
from .npy_io import BATCH_COLUMNS, read_batch_csv, read_manifest, read_npy, write_npy
from .stats import EmptyAfterFilteringError, correlate_columns, log_log_columns, table_to_csv, table_to_text
from .volume import PHANTOM_KINDS, InvalidSpecError, PhantomSpec, Volume3D, generate_phantom, mid_slice

MODE_FLAGS = {mode.replace("_", "-"): mode for mode in MODES}


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, (InputError, OSError)):
        return 2
    if isinstance(exc, (ScheduleError, ShapeMismatchError)):
        return 3
    if isinstance(exc, PhantomError):
        return 4
    if isinstance(exc, StatsError):
        return 5
    return 1


def _parse_ints(text: str, what: str, n: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None
    if n is not None and len(values) != n:
        raise ValueError(f"{what} needs exactly {n} values, got {text!r}")
    return values


def _schedule_from_args(args: argparse.Namespace) -> ScaleSchedule:
    try:
        return ScaleSchedule(
            factors=_parse_ints(args.factors, "--factors"),
            mode=MODE_FLAGS[args.mode],
            window=_parse_ints(args.window, "--window", 3),
            stride=_parse_ints(args.stride, "--stride", 3),
        )
    except ValueError as exc:
        raise ScheduleInfeasibleError(str(exc)) from exc


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    default = ScaleSchedule()
    parser.add_argument("--mode", choices=sorted(MODE_FLAGS), default=default.mode.replace("_", "-"))
    parser.add_argument("--factors", default=",".join(map(str, default.factors)), metavar="CSV")
    parser.add_argument("--window", default=",".join(map(str, default.window)), metavar="X,Y,Z")
    parser.add_argument("--stride", default=",".join(map(str, default.stride)), metavar="X,Y,Z")


def cmd_compute(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    volume_path = Path(args.volume)
    vol = read_npy(volume_path)
    subject = volume_path.stem
    result = multiscale_run(vol, schedule)
    for e in result.profile.per_scale:
        print(f"{e.scale_index},{e.scale_factor},{e.complexity!r},{e.overlap!r}")
    if args.emit_maps:
        map_dir = Path(args.emit_maps)
        map_dir.mkdir(parents=True, exist_ok=True)
        # algorithm1 makes one map per scale, in schedule order
        for cmap, e in zip(result.maps, result.profile.per_scale):
            write_npy(Volume3D(cmap.values), map_dir / f"{subject}_scale{e.scale_index}_map.npy", "<f8")
    if args.report:
        report = {
            "volume": str(volume_path),
            "subject_id": subject,
            "shape": list(vol.shape),
            "mode": schedule.mode,
            "factors": list(schedule.factors),
            "window": list(schedule.window),
            "stride": list(schedule.stride),
            "scales": list(result.scale_reports),
            "exclusions": [],
        }
        with open(args.report, "w", newline="") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _batch_task(task: tuple[str, str, ScaleSchedule]):
    subject_id, path, schedule = task
    try:
        vol = read_npy(path)
        result = multiscale_run(vol, schedule)
        rows = [(e.scale_index, e.scale_factor, e.complexity) for e in result.profile.per_scale]
        return (subject_id, "ok", rows)
    except (Msc3dError, OSError, MemoryError) as exc:
        # A subject too large for memory fails alone, like a malformed one.
        return (subject_id, "err", (_exit_code(exc), type(exc).__name__, str(exc)))


def _pool_result(future, subject_id: str):
    """The subject's result, or an error result if a killed worker lost it."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return (subject_id, "err", (_exit_code(exc), type(exc).__name__, str(exc)))


def _resolve_volume_path(manifest_path: Path, volume_path: str) -> str:
    path = Path(volume_path)
    if not path.is_absolute():
        path = manifest_path.parent / path
    return str(path)


def cmd_batch(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    manifest_path = Path(args.manifest)
    manifest = read_manifest(manifest_path)
    jobs = args.jobs if args.jobs and args.jobs > 0 else (os.cpu_count() or 1)
    tasks = [
        (e.subject_id, _resolve_volume_path(manifest_path, e.volume_path), schedule)
        for e in manifest
    ]
    if jobs == 1 or len(tasks) <= 1:
        results = [_batch_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_batch_task, t) for t in tasks]
            results = [_pool_result(f, t[0]) for f, t in zip(futures, tasks)]

    failures = [(sid, info) for sid, status, info in results if status == "err"]
    if args.strict and failures:
        sid, (code, name, message) = failures[0]
        print(f"{name}: {message}", file=sys.stderr)
        return code

    out_path = Path(args.output)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BATCH_COLUMNS)
        for sid, status, info in results:
            if status != "ok":
                continue
            for scale_index, factor, complexity in info:
                writer.writerow([sid, scale_index, factor, repr(complexity)])
    if failures:
        sidecar = out_path.with_suffix(".errors.csv")
        with open(sidecar, "w", newline="") as fh:
            fh.write("subject_id,error,message\n")
            writer = csv.writer(fh, lineterminator="\n")
            for sid, (code, name, message) in failures:
                writer.writerow([sid, name, message])
        print(f"warning: {len(failures)} subject(s) failed, see {sidecar}", file=sys.stderr)
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.manifest)
    table = read_batch_csv(args.batch_csv)
    columns = log_log_columns(table.subject_ids, table.complexity, manifest)
    for sid in columns.missing:
        print(f"warning: subject {sid!r} has no rows in the batch CSV", file=sys.stderr)
    if not table.scale_indices:
        raise EmptyAfterFilteringError("batch CSV holds no complexity rows")
    for sid in columns.unknown:
        print(f"warning: subject {sid!r} is not in the manifest; ignored", file=sys.stderr)

    rows = correlate_columns(columns, table.scale_indices, table.scale_factors)
    scored = {row.scale_index for row in rows}
    for k in table.scale_indices:
        if k not in scored:
            print(f"warning: scale {k} skipped (too few usable subjects)", file=sys.stderr)
    if not rows:
        raise EmptyAfterFilteringError("no scale could be scored")
    matched = len(columns.ln_age)
    for row in rows:
        excluded = matched - row.n
        if excluded:
            print(
                f"warning: scale {row.scale_index}: {excluded} subject(s) excluded (zero complexity)",
                file=sys.stderr,
            )

    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{prefix}.csv", "w", newline="") as fh:
        fh.write(table_to_csv(rows))
    text = table_to_text(rows)
    with open(f"{prefix}.txt", "w", newline="") as fh:
        fh.write(text)
    age_text = list(map(repr, columns.ln_age.tolist()))
    column_of = {k: j for j, k in enumerate(table.scale_indices)}
    for row in rows:
        j = column_of[row.scale_index]
        usable = columns.usable(j)
        ages = compress(age_text, usable.tolist())
        log_cs = columns.ln_c[usable, j].tolist()
        with open(f"{prefix}_scale{row.scale_index}_scatter.csv", "w", newline="") as fh:
            fh.write("log_age,log_C\n")
            fh.writelines(f"{log_age},{log_c!r}\n" for log_age, log_c in zip(ages, log_cs))
    print(text, end="")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        shape = _parse_ints(args.shape, "--shape", 3)
    except ValueError as exc:
        raise InvalidSpecError(str(exc)) from exc
    spec = PhantomSpec(
        kind=args.kind,
        shape=shape,
        level=args.level,
        period=args.period,
        rng_seed=args.seed,
    )
    vol = generate_phantom(spec)
    dtype_code = "<f4" if args.dtype == "f4" else "<f8"
    write_npy(vol, args.output, dtype_code)
    print(
        f"synth kind={spec.kind} shape={spec.shape[0]},{spec.shape[1]},{spec.shape[2]} "
        f"level={spec.level!r} period={spec.period} seed={spec.rng_seed} "
        f"dtype={dtype_code} path={args.output}"
    )
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    vol = read_npy(args.volume)
    plane = mid_slice(vol, args.axis)
    # first remaining axis maps to image width, second to height
    img = plane.T
    lo = float(img.min())
    hi = float(img.max())
    if hi == lo:
        pixels = np.full(img.shape, 128, dtype=np.uint8)
    else:
        pixels = np.rint((img - lo) / (hi - lo) * 255.0).astype(np.uint8)
    height, width = pixels.shape
    try:
        with open(args.output, "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % (width, height))
            fh.write(pixels.tobytes(order="C"))
    except OSError as exc:
        raise InputError(f"{args.output}: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msc3d",
        description="Multiscale structural complexity of 3-D volumes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="per-scale complexity of one .npy volume")
    p.add_argument("volume")
    _add_schedule_flags(p)
    p.add_argument("--emit-maps", metavar="DIR", help="write per-scale complexity maps here")
    p.add_argument("--report", metavar="PATH", help="write a JSON run report")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("batch", help="complexity for every subject in a manifest")
    p.add_argument("manifest")
    p.add_argument("output", help="cohort CSV to write")
    _add_schedule_flags(p)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (default: all cores)")
    p.add_argument("--strict", action="store_true", help="abort on the first failing subject")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("correlate", help="log-log age correlation table from a batch CSV")
    p.add_argument("batch_csv")
    p.add_argument("manifest")
    p.add_argument("output_prefix", help="writes PREFIX.csv, PREFIX.txt and per-scale scatter CSVs")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("synth", help="generate a phantom volume")
    p.add_argument("output")
    p.add_argument("--kind", required=True, choices=PHANTOM_KINDS)
    p.add_argument("--shape", default="128,128,128", metavar="X,Y,Z")
    p.add_argument("--level", type=float, default=1.0)
    p.add_argument("--period", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("f4", "f8"), default="f8")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("slice", help="mid-slice of a volume as a binary PGM")
    p.add_argument("volume")
    p.add_argument("axis", choices=("x", "y", "z"))
    p.add_argument("output")
    p.set_defaults(func=cmd_slice)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Msc3dError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
