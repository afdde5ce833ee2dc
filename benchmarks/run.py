#!/usr/bin/env python3
"""Benchmark for matryoshkan: closed-form speed and accuracy on clustered and
separated spectra, a Monte Carlo cross-check, and CLI latency.

Run from the repository root:

    python3 benchmarks/run.py --workload transient_clustered --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 10 [--out FILE]
    python3 benchmarks/run.py --build-reference  # recompute reference.json (needs mpmath)

Each workload is one caller in a closed loop: one process, BLAS pinned to one
thread, the next operation starting when the previous one has completed.
A run is made of whole passes over the workload's cells, in an order
shuffled by ``--seed``, for about ``--seconds``.  Every output is checked
against the cached mpmath reference.  ``--trace 0`` measures untraced and
prints the end-to-end metrics; ``--trace 1`` adds a traced phase and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See NOTES.md.
"""

from __future__ import annotations

import os

# one caller, no extra threads: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import platform
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time
import types
import warnings
from dataclasses import dataclass
from pathlib import Path

import cells
import reference
import spans
from cells import Cell

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KNOWN_DEFECTS = HERE / "known_defects.json"

REL_TOL = 1e-8  # an entry further than this from the reference fails the check
Z_MAX = 4.0  # Monte Carlo estimates further than this many standard errors fail
TINY = 1e-200  # entries below this magnitude are not compared relatively
SMALL_GAP = 0.15  # gap * |t| below which a row counts as clustered
MC_PATHS = 3000
PROBE_PATHS = 500
EULER_STEP = 1e-3
SETUP_REPEATS = 5
AUX_REPEATS = 3
CLI_TIMEOUT_S = 60


# -- library ------------------------------------------------------------------


def load_library() -> types.SimpleNamespace:
    """Import matryoshkan from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import numpy

    import matryoshkan
    from matryoshkan import cli, core, engine, euler, mc, processes

    if Path(matryoshkan.__file__).resolve().parent != SRC / "matryoshkan":
        raise ImportError(f"matryoshkan imported from {matryoshkan.__file__}, not {SRC}")
    return types.SimpleNamespace(
        np=numpy, mk=matryoshkan, cli=cli, core=core, engine=engine,
        euler=euler, mc=mc, processes=processes,
    )


# -- checks -------------------------------------------------------------------


def rel_error(np, values, ref) -> float:
    """Worst entrywise relative error against (hi, lo) reference pairs, over
    entries with |reference| > TINY; inf for a wrong shape or non-finite value."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if ref is None or x.shape[0] != ref.shape[0] or not np.all(np.isfinite(x)):
        return math.inf
    hi, lo = ref[:, 0], ref[:, 1]
    mask = np.abs(hi) > TINY
    if not mask.any():
        return 0.0
    return float(np.max(np.abs((x[mask] - hi[mask]) - lo[mask]) / np.abs(hi[mask])))


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that still has at least
    ten samples beyond it: the eleventh largest sample, at 100 (n - 10) / n."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail percentile needs at least 11 samples, got {n}")
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


@dataclass
class Outcome:
    """One operation: its latency and how its outputs compared."""

    cell: Cell
    seconds: float
    rel_err: float | None = None  # closed-form values against the reference
    error: str | None = None  # exception raised or process exit status
    z: float | None = None  # Monte Carlo: worst |z| over the orders
    euler_err: float | None = None
    euler_steps: int = 0
    paths: int = 0
    scale: float = 1.0  # machine-speed normalisation, see Calibration

    @property
    def normalized(self) -> float:
        return self.seconds * self.scale

    @property
    def accurate(self) -> bool:
        return self.error is None and self.rel_err is not None and self.rel_err <= REL_TOL

    @property
    def ok(self) -> bool:
        return self.accurate and (self.z is None or self.z <= Z_MAX)


def unexpected(outcome: Outcome, known: dict) -> bool:
    """A deterministic failure not listed as a known defect.  A Monte Carlo
    |z| above Z_MAX counts as failed but is a statistical signal, not this."""
    return not outcome.accurate and outcome.cell.id not in known


def failure(outcome: Outcome) -> str:
    """Why an operation failed, in the words of known_defects.json."""
    if outcome.error:
        return outcome.error
    if not outcome.accurate:
        return f"rel_err {outcome.rel_err:.2e}"
    return f"|z| {outcome.z:.2f}"


# -- machine speed --------------------------------------------------------------


class Calibration:
    """Normalises latencies for the speed of a shared machine.

    On the shared 2-vCPU Xeon virtual machine where the benchmark was
    defined, the same code runs up to 2x faster or slower for stretches of 5
    to 20 s, so run-to-run spreads of raw wall time reached 30%.  A fixed
    kernel that calls no library code is timed before and after every
    operation; the operation's latency is scaled by reference / (mean of the
    two kernel times), which gives the latency at the reference speed.  The
    references are about the kernels' times in that machine's usual, slower
    state.  The "numpy" kernel calibrates
    in-process operations; it mixes the two kinds of work the library does,
    small triangular products from a Python loop and dense order-100
    products.  The "process" kernel, a bare ``python -c pass``, calibrates
    process start-up.  Raw wall-clock figures are printed alongside.
    """

    REFERENCE_S = {"numpy": 5e-4, "process": 0.075}

    def __init__(self, np, kind: str):
        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        rng = np.random.default_rng(0)
        self.small = rng.random((40, 40))
        self.dense = rng.random((100, 100))

    def measure(self) -> float:
        start = time.perf_counter()
        if self.kind == "numpy":
            A, B = self.small, self.dense
            for _ in range(2):
                for i in range(1, 40):
                    A[i, :i] @ A[:i, :i]
            for _ in range(4):
                B @ B
        else:
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=cli_env(),
                           capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
        return time.perf_counter() - start

    def scales(self, kernel_times: list[float]) -> list[float]:
        """Scale for each interval between consecutive kernel timings."""
        return [2 * self.reference_s / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]


# -- operations ---------------------------------------------------------------


class CLIFailure(Exception):
    pass


@dataclass
class MCResult:
    closed: object
    stepped: object
    means: list[float]
    paths: int
    steps: int


class Bench:
    """Runs and checks operations for one workload run."""

    def __init__(self, lib, refs: dict, seed: int, in_process_cli: bool = False):
        self.lib = lib
        self.np = lib.np
        self.seed = seed
        self.in_process_cli = in_process_cli
        self.cli_peak_rss_kb = 0  # largest peak RSS of the CLI processes run
        self.specs = {f: cells.make_spec(lib.mk, f) for f in cells.FAMILIES}
        self.refs = {
            k: None if v.get("overflow") else lib.np.array(v["values"], dtype=lib.np.float64)
            for k, v in refs.items()
        }

    def available(self, cell: Cell) -> bool:
        """False for a cell whose reference leaves the double range."""
        return all(self.refs.get(k) is not None for k in cell.ref_keys())

    def call(self, cell: Cell, paths: int = MC_PATHS):
        """The operation itself: everything inside is what a caller waits for."""
        L = self.lib
        if cell.kind == "transient":
            system, init = L.processes.build(self.specs[cell.family], cell.order)
            return L.engine.transient_vector(system, init, cell.time).values
        if cell.kind == "steady":
            system, _ = L.processes.build(self.specs[cell.family], cell.order)
            return L.engine.steady_vector(system).values
        if cell.kind == "mc":
            spec = self.specs[cell.family]
            system, init = L.processes.build(spec, cell.order)
            closed = L.engine.transient_vector(system, init, cell.time).values
            cfg = L.euler.EulerConfig(step=EULER_STEP, horizon=cell.time)
            stepped = L.euler.euler_solve(system, init, cfg).values
            sim = L.mc.SimConfig(paths=paths, horizon=cell.time, seed=self.mc_seed(cell))
            estimates = L.mc.estimate_moments(L.mc.simulate(spec, sim), cell.order)
            return MCResult(closed, stepped, [e.mean for e in estimates], paths, cfg.steps)
        if cell.kind == "cli":
            return self._cli(cli_argv(cell))
        raise ValueError(f"unknown cell kind {cell.kind!r}")

    def mc_seed(self, cell: Cell) -> int:
        return self.seed * 64 + list(cells.FAMILIES).index(cell.family)

    def _cli(self, argv: list[str]) -> str:
        if self.in_process_cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(argv)
            if code != 0:
                raise CLIFailure(f"exit {code}: {err.getvalue().strip()[-200:]}")
            return out.getvalue()
        code, out, err, rss_kb = run_cli_process(argv)
        self.cli_peak_rss_kb = max(self.cli_peak_rss_kb, rss_kb)
        if code != 0:
            raise CLIFailure(f"exit {code}: {err.strip()[-200:]}")
        return out

    def run(self, cell: Cell, tracer: spans.Tracer | None = None, paths: int = MC_PATHS) -> Outcome:
        """Time one operation, then check it; when traced, each of the two is a root span."""
        start = time.perf_counter()
        try:
            with root_span(tracer, "bench.op"):
                result = self.call(cell, paths)
        except Exception as exc:
            return Outcome(cell, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}"[:300])
        seconds = time.perf_counter() - start
        with root_span(tracer, "bench.check"):
            return self.check(cell, result, seconds)

    def check(self, cell: Cell, result, seconds: float) -> Outcome:
        np = self.np
        ref = self.refs[cell.ref_key]
        if cell.kind == "cli":
            try:
                result = parse_cli_output(result, cell.fmt)
            except (ValueError, KeyError, TypeError) as exc:
                return Outcome(cell, seconds, error=f"unparsable output: {exc}"[:300])
        if cell.kind != "mc":
            return Outcome(cell, seconds, rel_err=rel_error(np, result, ref))
        # z against the exact standard error sqrt((m_2k - m_k^2) / paths):
        # the sample standard error of heavy-tailed powers is biased low
        m = self.refs[cells.ref_key(cell.family, cells.MC_VARIANCE_ORDER, cell.time)][:, 0]
        z = max(
            abs(mean - m[k]) / math.sqrt((m[2 * k + 1] - m[k] ** 2) / result.paths)
            for k, mean in enumerate(result.means)
        )
        return Outcome(
            cell, seconds, rel_err=rel_error(np, result.closed, ref), z=z,
            euler_err=rel_error(np, result.stepped, ref), euler_steps=result.steps, paths=result.paths,
        )


def root_span(tracer: spans.Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


def run_cli_process(argv: list[str]) -> tuple[int, str, str, int]:
    """Run ``python -m matryoshkan argv``; returns its exit code, stdout,
    stderr and peak RSS in KiB.  The process is reaped with wait4, so the
    RSS is its own, not the largest of every child this benchmark ran."""
    proc = subprocess.Popen([sys.executable, "-m", "matryoshkan", *argv], cwd=ROOT, env=cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + CLI_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map() and time.monotonic() < deadline:
            for key, _ in sel.select(deadline - time.monotonic()):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        timed_out = bool(sel.get_map())
    if timed_out:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        raise CLIFailure(f"no exit within {CLI_TIMEOUT_S} s")
    out, err = (b"".join(chunks[p]).decode(errors="replace") for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss


def cli_argv(cell: Cell) -> list[str]:
    process, params = cells.CLI_ARGS[cell.family]
    argv = ["moments" if cell.time is not None else "steady", "--process", process,
            "--params", params, "--order", str(cell.order)]
    if cell.time is not None:
        argv += ["--time", repr(cell.time)]
    return argv + ["--format", cell.fmt]


def parse_cli_output(text: str, fmt: str) -> list[float]:
    if fmt == "json":
        return [float(p["value"]) for p in json.loads(text)["payload"]]
    lines = text.strip().splitlines()
    if lines[0].strip() != "order,value":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return [float(line.split(",")[1]) for line in lines[1:]]


# -- loop ---------------------------------------------------------------------


def run_passes(bench: Bench, todo: list[Cell], rng: random.Random, budget_s: float,
               calibration: Calibration, tracer: spans.Tracer | None = None,
               probe: list[Cell] = (), between=None):
    """Whole passes over ``todo`` in shuffled order, stopping at the pass
    boundary nearest to ``budget_s`` of pass time (after at least one pass),
    so that every run weighs the cells alike.  The calibration kernel runs
    between operations.  Probe operations follow each pass; ``between`` runs
    after each pass, outside the pass time.  Returns the workload's
    outcomes, the probes', the pass seconds and the number of passes."""
    outcomes, probes = [], []
    measured = 0.0
    passes = 0
    while True:
        pass_start = time.perf_counter()
        order = list(todo)
        rng.shuffle(order)
        kernel_times = []

        def kernel():
            with root_span(tracer, "bench.kernel"):
                kernel_times.append(calibration.measure())

        kernel()
        for cell in order:
            outcomes.append(bench.run(cell, tracer))
            kernel()
        for outcome, scale in zip(outcomes[-len(order):], calibration.scales(kernel_times)):
            outcome.scale = scale
        probes += [bench.run(c, tracer, PROBE_PATHS) for c in probe]
        passes += 1
        took = time.perf_counter() - pass_start
        measured += took
        if measured + took / 2 > budget_s:
            return outcomes, probes, measured, passes
        if between:
            between()


def warm_up(bench: Bench, workload: str) -> None:
    """One operation per family at the workload's smallest order."""
    seen = set()
    for cell in sorted(cells.grid(workload), key=lambda c: c.order):
        if cell.family not in seen:
            seen.add(cell.family)
            with contextlib.suppress(Exception):
                bench.call(cell)
            if cell.kind == "cli":
                return


def setup_child(workload: str) -> None:
    """Measure import plus warm-up in this fresh process and print seconds."""
    start = time.perf_counter()
    lib = load_library()
    warm_up(Bench(lib, {}, seed=0), workload)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str) -> float:
    """Import plus warm-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- metrics ------------------------------------------------------------------


def typical_latencies(outcomes: list[Outcome], raw: bool = False) -> list[float]:
    """Each cell's median latency over the run's passes: one typical pass.
    Medians keep a burst of machine noise in a minority of passes out."""
    per_cell: dict[str, list[float]] = {}
    for o in outcomes:
        per_cell.setdefault(o.cell.id, []).append(o.seconds if raw else o.normalized)
    return [statistics.median(v) for v in per_cell.values()]


def end_to_end(outcomes: list[Outcome], setup: list[float], peak_rss_kb: int,
               setup_raw: list[float] = ()) -> tuple[dict, dict]:
    lat = [o.normalized for o in outcomes]
    typical = typical_latencies(outcomes)
    pct, tail = tail_percentile(lat)
    raw = typical_latencies(outcomes, raw=True)
    failed = sum(not o.ok for o in outcomes)
    errors = [o.rel_err for o in outcomes if o.rel_err is not None and math.isfinite(o.rel_err)]
    metrics = {
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        # floored at REL_TOL: errors within the tolerance are rounding, which
        # any reordering of floating-point work moves
        "max_rel_err": (max(errors + [REL_TOL]), "ratio"),
        "pass_ratio": (1.0 - failed / len(outcomes), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    detail = {
        "latency_tail": {"percentile": pct, "samples": len(lat), "beyond": 10},
        "failed_ratio": {"failed": failed, "attempted": len(outcomes), "value": failed / len(outcomes)},
        "setup_samples_s": setup,
        "max_rel_err_raw": max(errors, default=0.0),
        "wall_clock": {
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": tail_percentile([o.seconds for o in outcomes])[1] * 1e3,
            "setup_s": statistics.median(setup_raw) if setup_raw else None,
            "mean_scale": statistics.fmean(o.scale for o in outcomes),
        },
    }
    return metrics, detail


def small_gap_row_share(bench: Bench, todo: list[Cell]) -> float:
    """Share of rows 2..n whose smallest diagonal gap times |t| is below
    SMALL_GAP, over the distinct time-dependent cells; an input property."""
    np = bench.np
    small = total = 0
    for family, order, t in {(c.family, c.order, c.time) for c in todo if c.time is not None}:
        system, _ = bench.lib.processes.build(bench.specs[family], order)
        d = system.theta.diagonal()
        for i in range(1, d.shape[0]):
            total += 1
            small += float(np.min(np.abs(d[:i] - d[i]))) * abs(t) < SMALL_GAP
    return small / total if total else 0.0


def exp_over_expm(bench: Bench, todo: list[Cell]) -> float:
    """Median exp_scaled time over median scipy.linalg.expm time on the same
    T t, over the distinct time-dependent cells (scipy is a timing reference)."""
    from scipy.linalg import expm

    L = bench.lib
    mine, dense = [], []
    for family, order, t in sorted({(c.family, c.order, c.time) for c in todo if c.time is not None}):
        system, _ = L.processes.build(bench.specs[family], order)
        start = time.perf_counter()
        try:
            L.core.exp_scaled(system.theta, t)
        except L.mk.MatryoshkanError:
            continue
        mine.append(time.perf_counter() - start)
        A = system.theta.dense() * t
        start = time.perf_counter()
        expm(A)
        dense.append(time.perf_counter() - start)
    return statistics.median(mine) / statistics.median(dense)


def time_process(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=cli_env(), capture_output=True,
                   timeout=CLI_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def per_layer(bench, tracer, passes, wall, todo, traced, untraced, probes) -> dict:
    summary = tracer.summary()
    metrics = {}
    for module, attr in spans.TRACED:
        name = f"{module}.{attr}"
        s = summary.get(name, {"calls": 0, "self_s": 0.0, "durations": [], "errors": 0})
        metrics[f"{name}.calls"] = (s["calls"] / passes, "count")
        metrics[f"{name}.self_ms"] = (s["self_s"] * 1e3 / passes, "ms")
        metrics[f"{name}.p50_ms"] = (spans.median_ms(s["durations"]), "ms")
        metrics[f"{name}.errors"] = (s["errors"] / passes, "count")
    # Monte Carlo operations that completed; 0 when none did
    mc_runs = [o for o in traced + probes if o.cell.kind == "mc" and o.error is None]
    sim_s = sum(o.paths for o in mc_runs) and sum(summary["mc.simulate"]["durations"])
    euler_s = sum(o.euler_steps for o in mc_runs) and sum(summary["euler.euler_solve"]["durations"])
    metrics["core.small_gap_row_share"] = (small_gap_row_share(bench, todo), "ratio")
    metrics["core.exp_over_expm"] = (exp_over_expm(bench, todo + list(cells.PROBE)), "ratio")
    metrics["mc.paths_per_s"] = (sim_s and sum(o.paths for o in mc_runs) / sim_s, "1/s")
    metrics["mc.max_abs_z"] = (max((o.z for o in mc_runs), default=0.0), "z")
    metrics["euler.steps_per_s"] = (euler_s and sum(o.euler_steps for o in mc_runs) / euler_s, "1/s")
    metrics["euler.rel_err"] = (max((o.euler_err for o in mc_runs), default=0.0), "ratio")
    interpreter = statistics.median(time_process(["-c", "pass"]) for _ in range(AUX_REPEATS))
    imported = statistics.median(
        time_process(["-c", "import matryoshkan.cli"]) for _ in range(AUX_REPEATS)
    )
    process = statistics.median(
        time_process(["-m", "matryoshkan", *cli_argv(cells.PROBE[-1])]) for _ in range(AUX_REPEATS)
    )
    metrics["cli.interpreter_ms"] = (interpreter * 1e3, "ms")
    metrics["cli.import_ms"] = ((imported - interpreter) * 1e3, "ms")
    metrics["cli.process_ms"] = (process * 1e3, "ms")
    # like-for-like: a typical pass of the same operations, traced over untraced
    metrics["trace.overhead"] = (sum(typical_latencies(traced)) / sum(typical_latencies(untraced)), "ratio")
    layer_self = sum(v["self_s"] for k, v in summary.items() if not k.startswith("bench."))
    metrics["trace.bench_share"] = ((wall - layer_self) / wall, "ratio")
    return metrics


# -- metadata -----------------------------------------------------------------


def metadata(lib, args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "matryoshkan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": lib.np.__version__,
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "cpu": cpu, "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- modes --------------------------------------------------------------------


def run_workload(args) -> int:
    lib = load_library()
    refs = reference.load()
    known = json.loads(KNOWN_DEFECTS.read_text())
    traced_run = args.trace == 1
    bench = Bench(lib, refs, args.seed, in_process_cli=traced_run)
    grid = cells.grid(args.workload)
    todo = [c for c in grid if bench.available(c)]
    left_out = [c.id for c in grid if not bench.available(c)]
    rng = random.Random(args.seed)
    # operations, kernels and child processes share one CPU
    available = os.sched_getaffinity(0)
    cpu = min(available)
    os.sched_setaffinity(0, {cpu})
    process_cal = Calibration(lib.np, "process")
    calibration = process_cal if args.workload == "cli_moments" and not traced_run else Calibration(lib.np, "numpy")

    setup, setup_raw = [], []

    def sample_setup():
        if len(setup) < SETUP_REPEATS:
            before = process_cal.measure()
            seconds = measure_setup(args.workload)
            (scale,) = process_cal.scales([before, process_cal.measure()])
            setup_raw.append(seconds)
            setup.append(seconds * scale)

    warm_up(bench, args.workload)
    calibration.measure()
    if traced_run:
        untraced, _, _, _ = run_passes(bench, todo, rng, args.seconds / 2, calibration)
        tracer = spans.Tracer()
        with tracer.patched():
            traced, probes, wall, passes = run_passes(
                bench, todo, rng, args.seconds / 2, calibration, tracer, list(cells.PROBE)
            )
        unaccounted = tracer.check_accounting(wall)
        outcomes = untraced + traced + probes
        metrics = per_layer(bench, tracer, passes, wall, todo, traced, untraced, probes)
        run_info = {"passes": passes, "traced_wall_s": wall, "unaccounted_share": unaccounted,
                    "ops": len(outcomes)}
        detail = {}
    else:
        # set-up samples are spread between passes, to meet varied machine states
        outcomes, _, wall, passes = run_passes(
            bench, todo, rng, args.seconds, calibration, between=sample_setup
        )
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        peak_rss_kb = (bench.cli_peak_rss_kb if args.workload == "cli_moments"
                       else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics, detail = end_to_end(outcomes, setup, peak_rss_kb, setup_raw)
        run_info = {"passes": passes, "wall_s": wall, "ops": len(outcomes)}
    run_info.update({"cpus_available": len(available), "pinned_cpu": cpu, "calibration": calibration.kind})

    failing = {o.cell.id: failure(o) for o in outcomes if not o.ok}
    surprises = sorted({o.cell.id for o in outcomes if unexpected(o, known)})
    meta = metadata(lib, args)
    meta.update(run_info)
    meta["left_out_overflow"] = left_out
    detail.update({"metadata": meta, "failing_cells": dict(sorted(failing.items())),
                   "unexpected_failures": surprises})

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  {run_info}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if "latency_tail" in detail:
        tail = detail["latency_tail"]
        fr = detail["failed_ratio"]
        print(f"  latency_tail is p{tail['percentile']:.1f} of {tail['samples']} samples;"
              f" failed_ratio {fr['value']:.4f} = {fr['failed']} of {fr['attempted']}")
    for cell_id in surprises:
        print(f"  UNEXPECTED FAILURE {cell_id}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not surprises,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, end to end and traced, each in its own process."""
    combined = {"seed": args.seed, "seconds": args.seconds, "runs": {}}
    for workload in cells.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-2]), flush=True)
            combined["runs"][f"{workload}/trace{trace}"] = {
                "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])
            }
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    results = [r["result"] for r in combined["runs"].values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{k}.{name}": m for k, r in combined["runs"].items()
                    for name, m in r["result"]["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--out", help="with --all: write the combined results here")
    parser.add_argument("--build-reference", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.build_reference:
        reference.build(load_library().mk, log=lambda m: print(m, file=sys.stderr, flush=True))
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload)
        return 0
    try:
        return run_workload(args)
    except reference.StaleReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
