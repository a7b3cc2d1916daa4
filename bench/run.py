#!/usr/bin/env python3
"""msc3d benchmark: one closed-loop client driving ``msc3d.cli.main`` in-process.

    python3 bench/run.py --workload {cube128,mni-mri,cohort} --seed N --seconds S --trace {0,1}

Run from the repository root. Inputs are generated from ``--seed`` into a
work directory under ``bench/_work`` and removed on exit. Set-up (timed
three times, median reported) generates the inputs, imports msc3d and runs
a warm-up ``batch --jobs 1``. Each round of the loop then computes one
volume in all three modes, runs ``correlate``, and runs ``batch`` over the
workload's manifest at ``--jobs 1`` and ``--jobs 2``; rounds repeat until
``--seconds`` have passed. Every op's output is checked. Times are reported
at reference speed (see ``Speedometer``); the report line keeps wall medians.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with the outside-in tracer of ``spans.py``
installed, and prints the per-layer metrics plus the tracing overhead and
``offset_rel_err``. The last stdout line is the result object; the line
before it is a detailed report (sample counts, quartiles, tail percentile,
error rate, failures, environment).
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; batch workers inherit the setting.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from inputs import FACTORS, SLOPE_TOLERANCE, TRUE_SLOPES, WORKLOADS, Inputs, make_inputs, texture_of, write_f4  # noqa: E402
from spans import FACTOR_LAYERS, Tracer, layer_stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUPS = 3
BATCH_JOBS = (1, 2)
MODES = ("algorithm1", "block-cascade", "sliding-cascade")
MODE_METRIC = {"algorithm1": "a1_s", "block-cascade": "block_cascade_s", "sliding-cascade": "sliding_cascade_s"}
END_TO_END = (
    "setup_s",
    *MODE_METRIC.values(),
    "correlate_s",
    *(f"batch_j{jobs}_subjects_per_s" for jobs in BATCH_JOBS),
)  # peak_rss_mb is added last
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_FAILURES_SHOWN = 5
STEP_MIN_S = 0.25
WARM_UP = "warmup"  # the set-up's warm-up op: a --jobs 1 batch

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [
        ("npy_io.read_npy.s", "s"),
        ("npy_io.read_npy.calls", "count"),
        ("npy_io.read_npy.bytes", "B"),
        ("npy_io.read_manifest.s", "s"),
        ("volume.Volume3D.s", "s"),
        ("volume.Volume3D.calls", "count"),
        ("volume.pad_to_multiple.s", "s"),
        ("volume.pad_to_multiple.calls", "count"),
    ]
    + [(f"coarse.block_downsample.f{f}.s", "s") for f in FACTORS[1:]]
    + [
        ("coarse.block_upsample.s", "s"),
        ("coarse.sliding_mean_integral.s", "s"),
    ]
    + [(f"complexity.complexity_map.f{f}.s", "s") for f in FACTORS]
    + [
        ("complexity.overlap.s", "s"),
        ("complexity.overlap.calls", "count"),
        ("complexity.multiscale_run.s", "s"),
        ("cli.cmd_compute.s", "s"),
        ("cli.cmd_batch.s", "s"),
        ("cli.cmd_correlate.s", "s"),
        ("stats.correlation_table.s", "s"),
        ("stats.log_log_pairs.s", "s"),
        ("stats.pearson_regression.s", "s"),
        ("stats.benjamini_hochberg.s", "s"),
        ("offset_rel_err", "ratio"),
        ("trace.overhead_pct", "%"),
    ]
)
# Per-factor layers are taken from algorithm1 work only: cascade steps call the
# same functions with the incremental factor on a shrinking lattice.
A1_KINDS = ("compute:algorithm1", "batch:j1")
# Speedometer kernel per op kind: correlate is CSV parsing and per-subject
# Python work (wall time equals CPU time, none of it in numpy kernels); every
# other op spends its time in numpy kernels on whole volumes.
KERNEL_OF = {"correlate": "python"}


class Sample(NamedTuple):
    scaled: float  # seconds at reference speed, see Speedometer
    wall: float  # seconds as measured


class Speedometer:
    """Tracks the host's current speed with fixed kernels that run no msc3d code.

    On a shared host the speed of numpy and interpreter code alike drifts by
    a fifth or more over minutes (not steal time: process CPU time drifts with
    it), and pure-Python speed also differs from process to process by as
    much. Either would swamp run-to-run comparisons. So a kernel is timed
    just before and just after every measured step, and the step's times are
    reported as ``wall * REFERENCE_S[kernel] / kernel time`` with the mean of
    the two readings: seconds at the speed where the kernel takes
    ``REFERENCE_S``. The ``numpy`` kernel streams a 4 MB field like the
    volume kernels do, plus a short interpreter loop; the ``python`` kernel
    parses CSV rows into dicts like ``correlate`` does.
    """

    # median kernel times on the baseline host (bench/BENCH_baseline.json)
    REFERENCE_S = {"numpy": 0.0085, "python": 0.006}

    def __init__(self) -> None:
        self._field = np.random.default_rng(0).random((32, 128, 128))
        self._rows = "\n".join(f"s{i:04d},{i % 6},{2 ** (i % 6)},{i * 0.37 % 1!r}" for i in range(3000))
        self.kernel_times: dict[str, list[float]] = {kernel: [] for kernel in self.REFERENCE_S}

    def _numpy(self) -> None:
        a = self._field
        np.cumsum(a, axis=2)
        (np.diff(a, axis=0) ** 2).sum()
        a.reshape(16, 2, 64, 2, 64, 2).mean(axis=(1, 3, 5))
        total = 0
        for i in range(10_000):
            total += i * i

    def _python(self) -> None:
        per_subject: dict[str, list[tuple[int, int, float]]] = {}
        for sid, k, factor, c in csv.reader(io.StringIO(self._rows)):
            per_subject.setdefault(sid, []).append((int(k), int(factor), float(c)))

    def kernel_s(self, kernel: str) -> float:
        """Current time of ``kernel``: the median of three runs."""
        run = self._numpy if kernel == "numpy" else self._python
        times = []
        for _ in range(3):
            start = perf_counter()
            run()
            times.append(perf_counter() - start)
        self.kernel_times[kernel].append(statistics.median(times))
        return self.kernel_times[kernel][-1]

    def timed(self, step, kernel: str = "numpy") -> list[Sample]:
        """Run ``step`` (returning wall times) between two readings of ``kernel``."""
        before = self.kernel_s(kernel)
        walls = step()
        scale = self.REFERENCE_S[kernel] / ((before + self.kernel_s(kernel)) / 2)
        return [Sample(wall * scale, wall) for wall in walls]


class Client:
    """Closed-loop client: issues one CLI call at a time and checks its output."""

    def __init__(self, cli, inputs: Inputs, work: Path, speed: Speedometer) -> None:
        self.cli = cli
        self.inputs = inputs
        self.work = work
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        self.op_kinds: list[str] = []
        self.tracer: Tracer | None = None
        self._first: dict[tuple, str | bytes] = {}
        self._a1_complexities: dict[str, list[str]] = {}

    def _op(self, kind: str, argv: list[str], check) -> float | None:
        """Run one CLI call; return its wall time, or None if it failed a check."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        out, err = io.StringIO(), io.StringIO()
        # Start every call with an empty collector, as a fresh CLI process would,
        # so garbage from earlier calls is never collected inside this one.
        gc.collect()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if code != 0:
            problem = f"exit {code}: {err.getvalue().strip()[:200]}"
        else:
            try:
                problem = check(out.getvalue())
            except (ValueError, OSError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{kind} {' '.join(argv[1:2])}: {problem}")
            return None
        return elapsed

    def _same_as_first(self, key: tuple, output) -> str | None:
        if self._first.setdefault(key, output) != output:
            return "output differs from the first run on the same input"
        return None

    def compute(self, volume: Path, mode: str) -> float | None:
        def check(out: str) -> str | None:
            rows = [line.split(",") for line in out.splitlines()]
            if [(int(r[0]), int(r[1])) for r in rows] != list(enumerate(FACTORS)):
                return f"expected one row per scale of {FACTORS}, got {len(rows)} rows"
            for row in rows:
                if len(row) != 4:
                    return f"expected 4 fields, got {row}"
                c, o = float(row[2]), float(row[3])
                if not (math.isfinite(c) and c >= 0.0):
                    return f"complexity {row[2]} is not finite and non-negative"
                if o != -c:
                    return f"overlap {row[3]} != -complexity {row[2]}"
            if mode == "algorithm1":
                self._a1_complexities[volume.stem] = [r[2] for r in rows]
            return self._same_as_first(("compute", volume.name, mode), out)

        return self._op(f"compute:{mode}", ["compute", str(volume), "--mode", mode], check)

    def complexities(self, volume: Path, mode: str) -> list[float] | None:
        """Per-scale complexity of ``volume`` from its first checked compute."""
        out = self._first.get(("compute", volume.name, mode))
        if out is None and self.compute(volume, mode) is not None:
            out = self._first[("compute", volume.name, mode)]
        return None if out is None else [float(line.split(",")[2]) for line in out.splitlines()]

    def batch(self, jobs: int, kind: str | None = None) -> float | None:
        out_path = self.work / f"{kind or f'batch_j{jobs}'}.csv"
        out_path.unlink(missing_ok=True)
        sidecar = out_path.with_suffix(".errors.csv")

        def check(_: str) -> str | None:
            if sidecar.exists():
                return f"errors sidecar written: {sidecar.read_text()[:200]}"
            data = out_path.read_bytes()
            rows = [line.split(",") for line in data.decode().splitlines()]
            if rows[0] != ["subject_id", "scale_index", "scale_factor", "complexity"]:
                return f"bad header {rows[0]}"
            want = self.inputs.n_subjects * len(FACTORS)
            if len(rows) - 1 != want:
                return f"expected {want} rows, got {len(rows) - 1}"
            for i, row in enumerate(rows[1:]):
                if (int(row[1]), int(row[2])) != (i % len(FACTORS), FACTORS[i % len(FACTORS)]):
                    return f"row {i + 2}: wrong scale {row[1]},{row[2]}"
                c = float(row[3])
                if not (math.isfinite(c) and c >= 0.0):
                    return f"row {i + 2}: complexity {row[3]} is not finite and non-negative"
            for sid, values in self._a1_complexities.items():
                got = [row[3] for row in rows[1:] if row[0] == sid]
                if got != values:
                    return f"subject {sid}: batch complexities differ from compute"
            # the warm-up batch runs at --jobs 1, so this also checks j1 == j2 bytes
            return self._same_as_first(("batch",), data)

        argv = ["batch", str(self.inputs.manifest), str(out_path), "--jobs", str(jobs)]
        return self._op(kind or f"batch:j{jobs}", argv, check)

    def correlate(self) -> float | None:
        prefix = self.work / "corr" / "table"

        def check(_: str) -> str | None:
            text = Path(f"{prefix}.csv").read_text()
            rows = [line.split(",") for line in text.splitlines()[1:]]
            if [(int(r[0]), int(r[1])) for r in rows] != list(enumerate(FACTORS)):
                return f"expected one row per scale of {FACTORS}, got {len(rows)} rows"
            for row in rows:
                n, r, p, q, slope = int(row[2]), float(row[3]), float(row[4]), float(row[5]), float(row[6])
                if n != self.inputs.correlate_subjects:
                    return f"scale {row[0]}: n={n}, expected {self.inputs.correlate_subjects}"
                if not (-1.0 <= r <= 1.0 and 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
                    return f"scale {row[0]}: r, p or q out of range: {row}"
                true = TRUE_SLOPES[int(row[0])]
                if abs(slope - true) > SLOPE_TOLERANCE:
                    return f"scale {row[0]}: slope {slope:.4f} misses {true} by more than {SLOPE_TOLERANCE}"
            return self._same_as_first(("correlate",), text)

        argv = ["correlate", str(self.inputs.correlate_csv), str(self.inputs.correlate_manifest), str(prefix)]
        return self._op("correlate", argv, check)

    def run_pass(self, seconds: float, step_min_s: float = STEP_MIN_S) -> dict[str, list[Sample]]:
        """Closed loop of whole rounds until ``seconds`` have passed; samples per op kind.

        Each step of a round repeats its op until the step has taken
        ``step_min_s``, so short ops get more samples than one per round.
        """
        samples: dict[str, list[Sample]] = {}

        def step(kind: str, op) -> None:
            def repeat() -> list[float]:
                walls: list[float] = []
                while not walls or sum(walls) < step_min_s:
                    wall = op()
                    if wall is None:  # counted as failed; not timed
                        break
                    walls.append(wall)
                return walls

            samples.setdefault(kind, []).extend(self.speed.timed(repeat, KERNEL_OF.get(kind, "numpy")))

        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < seconds:
            volume = self.inputs.volumes[rounds % len(self.inputs.volumes)]
            for mode in MODES:
                step(f"compute:{mode}", lambda: self.compute(volume, mode))
            # correlate before the batches, so it never starts on caches a batch pool just churned
            step("correlate", self.correlate)
            for jobs in BATCH_JOBS:
                step(f"batch:j{jobs}", lambda: self.batch(jobs))
            rounds += 1
        return samples


def import_msc3d():
    """Import ``msc3d.cli`` from ``src/`` afresh, so each set-up pays msc3d's import."""
    for name in [n for n in sys.modules if n == "msc3d" or n.startswith("msc3d.")]:
        del sys.modules[name]
    return importlib.import_module("msc3d.cli")


def tail(values: list[float]) -> dict | None:
    """Highest percentile in TAIL_PERCENTILES with at least 10 samples above it."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        value = ordered[min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)]
        if sum(v > value for v in ordered) >= 10:
            return {"percentile": pct, "value": value}
    return None


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3, "tail": tail(values)}


def peak_rss_mb() -> float:
    """ru_maxrss (KiB on Linux) of this process plus its largest batch worker, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib * 1024 / 1e6


def end_to_end(samples: dict[str, list[Sample]], setup: list[Sample], inputs: Inputs) -> tuple[dict, dict]:
    """(metrics, per-metric sample details) from one pass; times at reference speed."""
    per_metric = {"setup_s": setup}
    for mode in MODES:
        per_metric[MODE_METRIC[mode]] = samples[f"compute:{mode}"]
    per_metric["correlate_s"] = samples["correlate"]
    details = {name: describe([s.scaled for s in values]) for name, values in per_metric.items()}
    for name, values in per_metric.items():
        details[name]["wall_median"] = statistics.median(s.wall for s in values)
    for jobs in BATCH_JOBS:
        batch = samples[f"batch:j{jobs}"]
        name = f"batch_j{jobs}_subjects_per_s"
        details[name] = describe([inputs.n_subjects / s.scaled for s in batch])
        details[name]["wall_median"] = statistics.median(inputs.n_subjects / s.wall for s in batch)
    units = {name: ("1/s" if name.endswith("per_s") else "s") for name in details}
    metrics = {name: {"value": details[name]["median"], "unit": units[name]} for name in END_TO_END}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return metrics, details


def offset_rel_err(client: Client) -> float:
    """max |C(v) - C(v - offset)| / C(v - offset) over volumes, modes and scales.

    The reference ``v - offset`` is exact in float32, so any difference is the
    program's rounding, not the data's. Scales whose reference is 0 (the
    factor-1 cascade step) are skipped. Volumes without an offset give 0.
    """
    worst = 0.0
    for volume, offset in zip(client.inputs.volumes, client.inputs.offsets):
        if offset == 0.0:
            continue
        texture = client.work / f"{volume.stem}_texture.npy"
        write_f4(texture, texture_of(volume, offset))
        for mode in MODES:
            with_offset = client.complexities(volume, mode)
            reference = client.complexities(texture, mode)
            if with_offset is None or reference is None:
                continue  # already counted as a failed op
            for c, ref in zip(with_offset, reference):
                if ref > 0.0:
                    worst = max(worst, abs(c - ref) / ref)
    return worst


def traced_run(client: Client, seconds: float) -> tuple[dict, dict]:
    """Untraced then traced half-runs; per-layer metrics and tracing overhead.

    Both halves run each op once per round, so ``calls`` and ``bytes`` are per
    op of a fixed mix: three computes, one correlate and one --jobs 1 batch.
    """
    untraced = client.run_pass(seconds / 2, step_min_s=0.0)
    tracer = Tracer()
    first_op = len(client.op_kinds)
    tracer.install()
    client.tracer = tracer
    try:
        traced = client.run_pass(seconds / 2, step_min_s=0.0)
    finally:
        client.tracer = None
        tracer.uninstall()
    spans = tracer.finished()
    kinds = client.op_kinds
    layer_ops = {i for i in range(first_op, len(kinds)) if kinds[i] != "batch:j2"}
    a1_ops = {i for i in layer_ops if kinds[i] in A1_KINDS}
    stats = layer_stats(spans, layer_ops)
    stats.update({k: v for k, v in layer_stats(spans, a1_ops).items() if k.rpartition(".")[0] in FACTOR_LAYERS})

    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        key, _, stat = name.rpartition(".")
        if key in stats and stat in ("s", "calls"):
            values[name] = stats[key][stat]
    read_bytes = sum(Path(s.info).stat().st_size for s in spans if s.name == "npy_io.read_npy" and s.op in layer_ops)
    values["npy_io.read_npy.bytes"] = read_bytes / max(1, len(layer_ops))
    medians = [
        {kind: statistics.median(s.scaled for s in values) for kind, values in samples.items()}
        for samples in (untraced, traced)
    ]
    both = [k for k in medians[0] if k in medians[1]]
    base = sum(medians[0][k] for k in both)
    values["trace.overhead_pct"] = 100.0 * (sum(medians[1][k] for k in both) - base) / base
    values["offset_rel_err"] = offset_rel_err(client)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
    details = {
        "untraced_op_s": medians[0],
        "traced_op_s": medians[1],
        "spans": len(spans),
        "traced_ops": len(layer_ops),
    }
    return metrics, details


def environment(inputs: Inputs) -> dict:
    shapes = {tuple(np.load(p, mmap_mode="r").shape) for p in inputs.volumes}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "field_mb": {
            "x".join(map(str, s)): {
                "volume_f8": math.prod(s) * 8 / 1e6,
                "file_f4": math.prod(s) * 4 / 1e6,
                "summed_volume_table_f8": math.prod(d + 1 for d in s) * 8 / 1e6,
            }
            for s in sorted(shapes)
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msc3d" / "__init__.py").is_file():
        print(f"error: msc3d sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    speed = Speedometer()
    clients: list[Client] = []
    setup: list[Sample] = []

    def set_up() -> list[float]:
        """Generate inputs, import msc3d afresh and run the warm-up op."""
        start = perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        clients.append(Client(import_msc3d(), make_inputs(args.workload, args.seed, work), work, speed))
        clients[-1].batch(1, WARM_UP)
        return [perf_counter() - start]

    try:
        for _ in range(SETUPS):
            setup += speed.timed(set_up)
        client, inputs = clients[-1], clients[-1].inputs
        # Objects alive now (modules, inputs, the harness) stay put, so each
        # call's collections scan only what that call allocated.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, details = traced_run(client, args.seconds)
        else:
            samples = client.run_pass(args.seconds)
            metrics, details = end_to_end(samples, setup, inputs)
        env = environment(inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in clients)
    failures = [f for c in clients for f in c.failures]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": len(failures) / attempted,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "details": details,
        "speed_kernel_s": {k: describe(v) for k, v in speed.kernel_times.items() if v},
        "environment": env,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
