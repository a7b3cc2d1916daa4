"""Command-line surface: single-volume compute, cohort batch runs,
correlation reports, phantom synthesis, and mid-slice PGM rendering.

Exit codes: 0 success, 2 I/O, malformed input or values that overflow
float64, 3 infeasible schedule, 4 invalid phantom spec, 5 statistics
failure, 1 out of memory (in every command) or, for a batch subject under
``--strict``, out of memory or a killed child process. Every failure
prints a single ``ErrorName: message`` line on stderr; in ``batch`` a
failing subject goes to the errors sidecar instead, ``BrokenProcessPool``
if the child running it was killed, and the other subjects are still
written: those a killed child had not reported run in a fresh child.

``batch`` runs its subjects through ``msc3d.runner``, which only it
imports, at every ``--jobs`` value. A clean batch removes an earlier run's
errors sidecar. All outputs are deterministic functions of the inputs and
flags; batch results are buffered and written in manifest order regardless
of process count, so reruns and different ``--jobs`` values produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from itertools import compress
from pathlib import Path

import numpy as np

from .complexity import MODES, ScaleSchedule, ScheduleInfeasibleError, multiscale_run
from .errors import InputError, Msc3dError, PhantomError, ScheduleError, StatsError
from .npy_io import BATCH_COLUMNS, read_batch_csv, read_manifest, read_manifest_columns, read_npy, write_npy
from .stats import EmptyAfterFilteringError, correlate_columns, log_log_columns, table_to_csv, table_to_text
from .volume import PHANTOM_KINDS, InvalidSpecError, PhantomSpec, Volume3D, generate_phantom, mid_slice

MODE_FLAGS = {mode.replace("_", "-"): mode for mode in MODES}


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, (InputError, OSError)):
        return 2
    if isinstance(exc, ScheduleError):
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


def _job_count(text: str) -> int:
    """A ``--jobs`` value: an integer >= 0, where 0 means one process per core."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = -1
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return jobs


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    default = ScaleSchedule()
    parser.add_argument("--mode", choices=sorted(MODE_FLAGS), default=default.mode.replace("_", "-"))
    parser.add_argument("--factors", default=",".join(map(str, default.factors)), metavar="CSV")
    parser.add_argument("--window", default=",".join(map(str, default.window)), metavar="X,Y,Z")
    parser.add_argument("--stride", default=",".join(map(str, default.stride)), metavar="X,Y,Z")


def _check_output_path(path: str) -> None:
    """Raise the error writing ``path`` would give, whatever its cause,
    before anything is written: open it for writing without truncating it,
    and remove the file that creates, a dangling symlink's target, if none was there."""
    existed = os.path.exists(path)
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
    if not existed:
        os.unlink(os.path.realpath(path))


def _read_for_run(path: str | Path) -> Volume3D:
    """``read_npy(path)`` with its data writable, so that a sliding cascade
    works in it instead of in a copy. Each read makes a fresh array, and
    nothing reads the volume's values after the run."""
    return Volume3D._of_checked(read_npy(path).data, writable=True)


def cmd_compute(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    if args.report:
        # Checked before the first map, so a report that cannot be written
        # leaves no maps behind.
        _check_output_path(args.report)
    volume_path = Path(args.volume)
    subject = volume_path.stem
    map_paths = []
    if args.emit_maps:
        map_dir = Path(args.emit_maps)
        map_dir.mkdir(parents=True, exist_ok=True)
        # algorithm1 makes one map per scale, in schedule order; each name
        # is checked before the volume is read, so none fails after the run.
        if schedule.mode == "algorithm1":
            map_paths = [str(map_dir / f"{subject}_scale{k}_map.npy") for k in range(len(schedule.factors))]
        for path in map_paths:
            _check_output_path(path)
    vol = _read_for_run(volume_path)
    result = multiscale_run(vol, schedule)
    # The files go first, so a write that fails leaves stdout empty.
    for cmap, path in zip(result.maps, map_paths):
        write_npy(Volume3D(cmap.values), path, "<f8")
    if args.report:
        report = {
            "volume": str(volume_path),
            "subject_id": subject,
            "shape": list(vol.shape),
            **dataclasses.asdict(schedule),
            "scales": list(result.scale_reports),
            "exclusions": [],
        }
        with open(args.report, "w", newline="") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for e in result.profile:
        print(f"{e.scale_index},{e.scale_factor},{e.complexity!r},{e.overlap!r}")
    return 0


def _batch_task(task: tuple[str, str, ScaleSchedule]):
    """One subject's result; its arrays are made afresh and freed when it returns."""
    subject_id, path, schedule = task
    try:
        result = multiscale_run(_read_for_run(path), schedule)
        rows = [(subject_id, e.scale_index, e.scale_factor, repr(e.complexity)) for e in result.profile]
        return (subject_id, "ok", rows)
    except (Msc3dError, OSError, MemoryError) as exc:
        # A subject too large for memory fails alone, like a malformed one.
        return (subject_id, "err", (_exit_code(exc), type(exc).__name__, str(exc)))


def cmd_batch(args: argparse.Namespace) -> int:
    schedule = _schedule_from_args(args)
    manifest_path = Path(args.manifest)
    manifest = read_manifest(manifest_path)
    out_path = Path(args.output)
    # Checked before the first subject, so a mistyped output path does not
    # throw away a finished run. The errors sidecar is written or removed
    # after the run, so a sidecar path that cannot be written is reported
    # here too.
    _check_output_path(args.output)
    sidecar = out_path.with_suffix(".errors.csv")
    _check_output_path(str(sidecar))
    # A relative volume path resolves against the manifest's directory.
    tasks = [(e.subject_id, str(manifest_path.parent / e.volume_path), schedule) for e in manifest]
    # Imported here, so the commands that never fork do not load multiprocessing.
    from . import runner
    results = [None] * len(tasks)
    for i, result in runner.results(_batch_task, tasks, args.jobs):
        if result is None:  # the child running subject i was killed
            message = "the child process running this subject ended before reporting it"
            result = (tasks[i][0], "err", (1, "BrokenProcessPool", message))
        results[i] = result

    failures = [(sid, info) for sid, status, info in results if status == "err"]
    if args.strict and failures:
        sid, (code, name, message) = failures[0]
        print(f"{name}: {message}", file=sys.stderr)
        return code

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BATCH_COLUMNS)
        for _, status, info in results:
            if status == "ok":
                writer.writerows(info)
    if failures:
        with open(sidecar, "w", newline="") as fh:
            fh.write("subject_id,error,message\n")
            writer = csv.writer(fh, lineterminator="\n")
            for sid, (code, name, message) in failures:
                writer.writerow([sid, name, message])
        print(f"warning: {len(failures)} subject(s) failed, see {sidecar}", file=sys.stderr)
    else:
        # A sidecar left by an earlier run would name subjects that now pass.
        sidecar.unlink(missing_ok=True)
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    sids, _, ages = read_manifest_columns(args.manifest)
    table = read_batch_csv(args.batch_csv)
    columns = log_log_columns(table.subject_ids, table.complexity, sids, ages)
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
    column_of = {k: j for j, k in enumerate(table.scale_indices)}
    for row in rows:
        no_row = columns.no_row[column_of[row.scale_index]]
        for excluded, reason in ((matched - row.n - no_row, "zero complexity"), (no_row, "no row at this scale")):
            if excluded:
                print(f"warning: scale {row.scale_index}: {excluded} subject(s) excluded ({reason})", file=sys.stderr)

    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    scatter = {row.scale_index: f"{prefix}_scale{row.scale_index}_scatter.csv" for row in rows}
    # Checked before the first write, so a name that cannot be written leaves no outputs.
    for path in (f"{prefix}.csv", f"{prefix}.txt", *scatter.values()):
        _check_output_path(path)
    with open(f"{prefix}.csv", "w", newline="") as fh:
        fh.write(table_to_csv(rows))
    text = table_to_text(rows)
    with open(f"{prefix}.txt", "w", newline="") as fh:
        fh.write(text)
    # Each subject's line is its "\nlog_age," cell, made once for every
    # scale, then its log C text; the file is those cells joined.
    age_cells = list(map("\n%r,".__mod__, columns.ln_age.tolist()))
    for row in rows:
        j = column_of[row.scale_index]
        usable = columns.usable(j)
        cells = [None] * (2 * row.n)
        cells[0::2] = compress(age_cells, usable.tolist())
        cells[1::2] = map(repr, columns.ln_c[usable, j].tolist())
        with open(scatter[row.scale_index], "w", newline="") as fh:
            fh.write("log_age,log_C" + "".join(cells) + "\n")
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
        # Halves keep a range wider than float64 can hold finite.
        s = 1.0 if math.isfinite(hi - lo) else 0.5
        pixels = np.rint((img * s - lo * s) / (hi * s - lo * s) * 255.0).astype(np.uint8)
    height, width = pixels.shape
    try:
        with open(args.output, "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % (width, height))
            fh.write(pixels.tobytes(order="C"))
    except OSError as exc:
        raise InputError(f"{args.output}: {exc}") from exc
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``msc3d`` argument parser, built at its first use in a process.

    Parsing leaves the parser as it was, so every call shares the one built.
    """
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

    p = sub.add_parser("batch", help="complexity for every subject in a manifest")
    p.add_argument("manifest")
    p.add_argument("output", help="cohort CSV to write")
    _add_schedule_flags(p)
    p.add_argument(
        "--jobs",
        type=_job_count,
        default=0,
        metavar="N",
        help="processes that run subjects: with P = min(N, subjects), this one runs subjects 0, P, 2P, ... and "
        "P-1 forked children the rest; all run here where os.fork is missing (default 0: one per CPU this process may use). "
        "Where this process may use at least P CPUs, process k (this one is 0) runs on the k-th of them, and this "
        "process gets its affinity set back at the end",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="run every subject; if any failed, write no CSV and exit with the first failure in manifest order",
    )

    p = sub.add_parser("correlate", help="log-log age correlation table from a batch CSV")
    p.add_argument("batch_csv")
    p.add_argument("manifest")
    p.add_argument("output_prefix", help="writes PREFIX.csv, PREFIX.txt and per-scale scatter CSVs")

    p = sub.add_parser("synth", help="generate a phantom volume")
    p.add_argument("output")
    p.add_argument("--kind", required=True, choices=PHANTOM_KINDS)
    p.add_argument("--shape", default="128,128,128", metavar="X,Y,Z")
    p.add_argument("--level", type=float, default=1.0)
    p.add_argument("--period", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("f4", "f8"), default="f8")

    p = sub.add_parser("slice", help="mid-slice of a volume as a binary PGM")
    p.add_argument("volume")
    p.add_argument("axis", choices=("x", "y", "z"))
    p.add_argument("output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up when the command runs, so a command replaced after the
    # parser was built is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (Msc3dError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
