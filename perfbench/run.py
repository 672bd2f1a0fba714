"""pdcfilter benchmark: one workload, one seed, closed loop with one client.

    python3 perfbench/run.py --workload run_hires --seed 1 --seconds 35 --trace 0

Operations call ``pdcfilter.cli.main([...])`` in this process on generated
config files, one after another, each writing into a fresh directory.  BLAS
runs at its library default; no other threads or processes are started.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it runs each input untraced and then as a traced
replica (order alternating), checks that both wrote the same science
artifacts, and reports per-layer metrics from spans recorded around the
package's public functions.  ``--smoke`` runs tiny grids through the same
code and skips the pinned-reference comparison.

Every operation's outputs are checked (see checks.py).  The last stdout
line is the JSON result; a fuller record, with the environment, goes to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
from inputs import SMOKE_WORKLOADS, WORKLOADS, InputStream, Workload, cli_argv, reference_params, write_config
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
N_SETUPS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Bench:
    """State of one benchmark run: the workload, its inputs and its outcomes."""

    def __init__(self, workload: Workload, seed: int, work: Path, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.cli = None
        self.inputs: InputStream | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_dbs: list[float] = []
        self.ga_gaps: list[float] = []
        self._dirs = 0

    # -- one operation ---------------------------------------------------
    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"out{self._dirs}"

    def call(self, argv: list[str]) -> tuple[int, float]:
        """Run the CLI in-process; returns (exit code, wall seconds)."""
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # an uncaught error is a failed operation, not a crashed benchmark
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - start
        if rc != 0:
            self.errors.append(f"{' '.join(argv)}: exit {rc}: {sink.getvalue().strip()[-300:]}")
        return rc, wall

    def check(self, rc: int, out: Path, config: Path) -> checks.OpOutcome:
        """Check one operation's artifacts; for GA runs, also against the svd basis."""
        wl = self.workload
        ga = wl.basis == "ga"
        if wl.verb == "sweep":
            outcome = checks.check_sweep(rc, out, wl.items_per_op)
        else:
            outcome = checks.check_run(rc, out, ga=ga)
        if ga and not outcome.failed_items:
            svd_out = self.fresh_dir()
            svd_rc, _ = self.call(cli_argv(wl, config, svd_out, basis="svd"))
            svd = checks.check_run(svd_rc, svd_out, ga=False)
            shutil.rmtree(svd_out, ignore_errors=True)
            if svd.failed_items:
                outcome.fail_all(f"svd companion run failed: {svd.errors}")
            else:
                self.ga_gaps.append(outcome.first_mode_db[0] - svd.first_mode_db[0])
                error = checks.agreement_error(outcome.first_mode_db[0], svd.first_mode_db[0])
                if error:
                    outcome.fail_all(error)
        return outcome

    def record(self, outcome: checks.OpOutcome) -> None:
        self.attempted += outcome.items
        self.failed += outcome.failed_items
        self.first_dbs.extend(outcome.first_mode_db)
        self.errors.extend(outcome.errors)

    def op(self, config: Path, tracer: Tracer | None = None) -> tuple[float, checks.OpOutcome, Path]:
        """One timed operation on one config; the caller removes the output directory."""
        out = self.fresh_dir()
        argv = cli_argv(self.workload, config, out)
        if tracer is None:
            rc, wall = self.call(argv)
        else:
            tracer.install()
            try:
                index = tracer.begin("op")
                rc, wall = self.call(argv)
                tracer.end(index)
            finally:
                tracer.uninstall()
        return wall, self.check(rc, out, config), out

    # -- set-up ----------------------------------------------------------
    def setup(self) -> tuple[float, checks.OpOutcome]:
        """Import the package, build the inputs and run one warm-up op on the reference input."""
        start = time.perf_counter()
        for name in [n for n in sys.modules if n == "pdcfilter" or n.startswith("pdcfilter.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("pdcfilter.cli")
        self.inputs = InputStream(self.workload, self.seed)
        config = write_config(reference_params(self.workload), self.work / "reference.cfg")
        out = self.fresh_dir()
        rc, _ = self.call(cli_argv(self.workload, config, out))
        elapsed = time.perf_counter() - start
        outcome = self.check(rc, out, config)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, outcome

    def setups(self) -> float:
        """Set up N_SETUPS times; pin every warm-up against the stored reference."""
        reference = None
        if not self.smoke:
            reference = json.loads((BENCH_DIR / "reference.json").read_text())["workloads"][self.workload.name]
        times = []
        for _ in range(N_SETUPS):
            elapsed, outcome = self.setup()
            times.append(elapsed)
            if outcome.failed_items:
                self.errors.append(f"warm-up on the reference input failed: {outcome.errors}")
            elif reference is not None:
                self.errors.extend(checks.reference_errors(outcome, reference))
        return statistics.median(times)

    def config_for(self, index: int) -> Path:
        return write_config(self.inputs.params(index), self.work / f"op{index}.cfg")


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Closed loop, tracing off: the end-to-end metrics."""
    walls, items = [], 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        config = bench.config_for(index)
        wall, outcome, out = bench.op(config)
        shutil.rmtree(out, ignore_errors=True)
        config.unlink()
        bench.record(outcome)
        walls.append(wall)
        items += outcome.items
        index += 1
        if time.perf_counter() >= deadline:
            break
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "items_per_s": items / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_mode_db": statistics.fmean(bench.first_dbs) if bench.first_dbs else 0.0,
    }
    samples = {"ops": len(walls), "items": items, "tail_percentile": tail_pct, "wall_s": walls}
    return metrics, samples


def _same_artifact(a: Path, b: Path, name: str) -> bool:
    return (a / name).is_file() and (a / name).read_bytes() == (b / name).read_bytes()


def traced_run(bench: Bench, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    """Untraced op and traced replica per input: the per-layer metrics."""
    artifact = "tradeoff.csv" if bench.workload.verb == "sweep" else "covariance.csv"
    plain_walls, traced_walls, overwrite = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        config = bench.config_for(index)
        tracer.op_id = index
        results = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            results[traced] = bench.op(config, tracer if traced else None)
            bench.record(results[traced][1])
        (plain_wall, _, plain_out), (traced_wall, _, traced_out) = results[False], results[True]
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        if not _same_artifact(plain_out, traced_out, artifact):
            bench.errors.append(f"traced replica of op {index} wrote a different {artifact}")
        if tracer.last_export is not None:  # rerun the export into the directory it just filled
            fn, args, kwargs = tracer.last_export
            tracer.last_export = None
            with redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                fn(*args, **kwargs)
                overwrite.append(time.perf_counter() - start)
        shutil.rmtree(plain_out, ignore_errors=True)
        shutil.rmtree(traced_out, ignore_errors=True)
        config.unlink()
        index += 1
        if time.perf_counter() >= deadline:
            break

    n_ops = len(traced_walls)
    self_times = tracer.self_times()
    metrics = {f"{layer}_s": self_times.get(layer, 0.0) / n_ops for layer in LAYERS}
    for name in (
        "spectral.schmidt_calls",
        "basis_opt.effective_svd_calls",
        "spectral.schmidt_gflop_computed",
        "filters.kernels_mb_computed",
        "covariance.asymmetry_warnings",
        "genetic.generations",
        "genetic.fitness_evals",
        "cli.export_bytes",
    ):
        metrics[name] = tracer.counts.get(name, 0.0) / n_ops
    for name in ("spectral.excited_modes", "spectral.excited_frac"):
        values = tracer.samples.get(name)
        metrics[name] = statistics.fmean(values) if values else 0.0
    search = self_times.get("genetic.search", 0.0)
    metrics["genetic.evals_per_s"] = tracer.counts.get("genetic.fitness_evals", 0.0) / search if search else 0.0
    metrics["genetic.converged_frac"] = statistics.fmean(tracer.converged) if tracer.converged else 0.0
    metrics["cli.export_overwrite_s"] = statistics.fmean(overwrite) if overwrite else 0.0
    metrics["cli.glue_s"] = (sum(traced_walls) - tracer.layer_time_under_ops()) / n_ops
    metrics["trace.overhead_frac"] = sum(traced_walls) / sum(plain_walls) - 1.0
    samples = {
        "pairs": n_ops,
        "span_coverage": tracer.layer_time_under_ops() / sum(traced_walls),
        "untraced_wall_s": plain_walls,
        "traced_wall_s": traced_walls,
    }
    return metrics, samples


# -- environment record ---------------------------------------------------
def blas_record() -> dict:
    info = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": config.get("name"), "version": config.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))  # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(bench: Bench, trace: int, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "filesystem": filesystem_type(ROOT),
        "git_sha": git_sha(ROOT),
        "workload": bench.workload.name,
        "seed": bench.seed,
        "trace": trace,
        "smoke": bench.smoke,
        "n_points": {name: wl.n_points for name, wl in (SMOKE_WORKLOADS if bench.smoke else WORKLOADS).items()},
        "load_model": "closed loop, 1 client, in-process pdcfilter.cli.main, BLAS at library default",
        "setups": N_SETUPS,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, no pinned-reference comparison")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdcfilter" / "cli.py").is_file():
        print(f"pdcfilter sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT_DIR / f"work-{stem}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(workload, args.seed, work, args.smoke)
    tracer = Tracer()
    try:
        setup_s = bench.setups()
        if args.trace:
            metrics, samples = traced_run(bench, args.seconds, tracer)
        else:
            metrics, samples = timed_run(bench, args.seconds)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not bench.errors and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in section},
    }
    samples["setup_s"] = setup_s
    samples["ga_minus_svd_db"] = bench.ga_gaps
    record = {"environment": environment(bench, args.trace, samples), "errors": bench.errors[:50], **result}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    count = samples.get("ops", samples.get("pairs"))
    print(f"{workload.name}: n_points={workload.n_points}, {count} ops, setups={N_SETUPS}", end="")
    if "tail_percentile" in samples:
        print(f", tail = p{samples['tail_percentile']:.1f} of {samples['ops']} samples", end="")
    print()
    for error in bench.errors[:10]:
        print(f"check failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
