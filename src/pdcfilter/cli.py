"""End-to-end runs: configuration, sweeps, and report export.

Verbs: ``run`` executes one configuration and writes all artifacts, ``sweep``
produces the filter-width x gain trade-off table, ``validate`` runs the
invariant suite on a configuration.  Configuration is a flat ``key = value``
text file; every key has a default, unknown keys are rejected.  Exit codes:
0 success, 1 configuration error, 2 numerical/physicality error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .basis_opt import svd_effective_basis
from .blas import calling_thread
from .covariance import CovarianceMatrix, assemble_covariance, check_physicality
from .errors import ConfigurationError, NumericsError
from .filters import (
    Filter,
    MeasurementBasis,
    ProjectionSet,
    commutator_defects,
    filtered_projections,
    make_blocking_filter,
    make_flat_filter,
    make_gauss_filter,
    make_identity_filter,
    make_rect_filter,
)
from .genetic import (
    GA_MEMORY_LIMIT,
    GaParams,
    OptimizedBasis,
    ga_optimize_basis,
    ga_working_set_bytes,
    make_state_context,
)
from .metrics import _PURITY_XCHECK_TOL, SqueezingEntry, purity, purity_routes, single_mode_character, squeezing_report
from .spectral import (
    _NOISE_FLOOR,
    _NORM_TOL,
    _PARSEVAL_TOL,
    GaussianJsa,
    GaussianJsaParams,
    SchmidtData,
    apply_gain,
    build_frequency_grid,
    build_gaussian_jsa,
    gain_for_target_db,
    schmidt_decompose,
    squeezing_db,
)

_BASIS_CHOICES = ("schmidt", "svd", "ga")
# bases that do not read the gain: a sweep selects them once per filter
_GAIN_FREE_BASES = ("schmidt", "svd")
# filter_kind -> the filter a config and a grid give
_FILTERS = {
    "rect": lambda config, grid: make_rect_filter(config.filter_center, config.filter_width, grid),
    "gauss": lambda config, grid: make_gauss_filter(config.filter_center, config.filter_width, grid),
    "identity": lambda config, grid: make_identity_filter(grid),
    "blocking": lambda config, grid: make_blocking_filter(grid),
    "flat": lambda config, grid: make_flat_filter(config.filter_amplitude, grid),
}
# amplitude samples one pass over the amplitude may read: validate reads all
# n_points^2 once against the skeleton.  On the default state (55 Mehler terms,
# one BLAS thread, 2 vCPU) that audit took 8 to 11 ns a sample at n = 1600,
# 12 to 13 ns at 8192 and 27 to 30 ns at this size, 29 to 33 s and nearly all of
# validate's time: the cost a sample grows with n, since each row block of
# 65536 / n rows is checked against the whole K x n idler table.  A Gaussian that
# takes the cross approximation reads more in its build: 1.06 n^2 samples on the
# reference state forced through it and 1.93 n^2 on sigma_a 30 / sigma_b 0.5 at
# n = 1600, 3.0 n^2 on the latter at n = 400, where the rank reaches n.  Each
# sample's residual costs a multiply-add a pivot, so a sample took 7 ns at rank
# 26 and 140 ns at rank 589: at this size some 1.1e9 to 3.2e9 samples, from
# about 8 s at a low rank to minutes at a rank in the hundreds; validate's audit
# of such a skeleton reads n^2 more at the same cost a sample
_MAX_SAMPLES = 2**30
# a float table's cell, by its code in _write_csv: formatted, +0.0 and -0.0
_CELL_TEMPLATES = ("%.17g", "0", "-0")


@dataclass(frozen=True)
class RunConfig(GaParams):
    """Complete, validated description of one run or sweep; the GA keys are inherited."""

    n_points: int = 100
    omega_min: float = -10.0
    omega_max: float = 10.0
    sigma_a: float = 6.0
    sigma_b: float = 2.0
    theta: float = -math.pi / 4
    gain_b: float | None = None
    target_db: float | None = 6.0
    n_retained: int = 10
    basis: str = "svd"
    filter_kind: str = "rect"
    filter_center: float = 0.0
    filter_width: float = 4.0
    filter_amplitude: float = 1.0
    sweep_widths: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0)
    sweep_target_dbs: tuple[float, ...] = (2.0, 4.0, 6.0)
    ga_modes: int = 5
    mass_tolerance: float = 1e-2

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in items):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
            # the size guards below divide products of the integers as floats
            if isinstance(value, int) and not -(2**63) <= value < 2**63:
                raise ConfigurationError(f"{f.name} must lie in [-2^63, 2^63)")
        if self.basis not in _BASIS_CHOICES:
            raise ConfigurationError(f"basis must be one of {_BASIS_CHOICES}, got {self.basis!r}")
        if self.filter_kind not in _FILTERS:
            raise ConfigurationError(f"filter_kind must be one of {tuple(_FILTERS)}, got {self.filter_kind!r}")
        if self.gain_b is not None and self.target_db is not None:
            raise ConfigurationError("set either gain_b or target_db, not both")
        if self.gain_b is None and self.target_db is None:
            raise ConfigurationError("one of gain_b / target_db is required")
        # checked here, not where the run uses them, since a sweep reads neither
        if any(value is not None and value < 0 for value in (self.gain_b, self.target_db)):
            raise ConfigurationError(f"gain_b and target_db must be >= 0, got {self.gain_b}, {self.target_db}")
        for name in ("sweep_widths", "sweep_target_dbs"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigurationError(f"{name} must be strictly increasing")
        if self.n_retained < 1 or self.ga_modes < 1:
            raise ConfigurationError("n_retained and ga_modes must be >= 1")
        super().__post_init__()  # the GA keys are checked whichever basis runs
        need = ga_working_set_bytes(self.population, self.n_points)
        if need > GA_MEMORY_LIMIT:
            raise ConfigurationError(
                f"population {self.population} at n_points {self.n_points} needs about "
                f"{need / 2**30:.3g} GiB for the genetic search, above its "
                f"{GA_MEMORY_LIMIT / 2**30:g} GiB limit"
            )
        if self.n_points**2 > _MAX_SAMPLES:
            raise ConfigurationError(
                f"n_points {self.n_points} gives {float(self.n_points) ** 2:.3g} amplitude samples, above the "
                f"{_MAX_SAMPLES} one pass over the amplitude may read (n_points <= {math.isqrt(_MAX_SAMPLES)})"
            )


# each RunConfig field's type, which parses its value in a configuration file
_FIELD_TYPES = typing.get_type_hints(RunConfig)


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, unknown and repeated keys error.

    Each value is parsed as the type of its ``RunConfig`` field: a
    ``tuple[float, ...]`` as a comma-separated list, ``float | None`` as a float.
    """
    values: dict = {}
    first_line: dict = {}  # key -> the line that set it
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigurationError(f"{path}:{lineno}: {key} set twice, on lines {first_line[key]} and {lineno}")
        kind = _FIELD_TYPES[key]
        try:
            if kind == tuple[float, ...]:
                values[key] = tuple(float(item) for item in value.split(",") if item.strip())
            else:
                values[key] = (float if kind == float | None else kind)(value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    # a file that sets gain_b takes over from the default squeezing target
    if "gain_b" in values and "target_db" not in values:
        values["target_db"] = None
    return values


def build_config(config_path=None, **overrides) -> RunConfig:
    values: dict = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return RunConfig(**values)


@dataclass(frozen=True)
class RunReport:
    """Everything one point of the pipeline produced: one filter width, one gain.

    ``config`` is the run's configuration with ``filter_width`` set to the
    point's width.  The gained Schmidt decomposition, basis and grid of the
    point are those of ``projections``.
    """

    config: RunConfig
    gain_b: float
    covariance: CovarianceMatrix
    squeezing: list
    purity: float
    single_mode_character: float
    jsa: GaussianJsa = field(repr=False)
    projections: ProjectionSet = field(repr=False)
    ga_result: OptimizedBasis | None = field(default=None, repr=False)


def _prepare_state(config: RunConfig) -> tuple[GaussianJsa, SchmidtData]:
    """Stage 1: the grid, the amplitude and its ungained Schmidt decomposition."""
    grid = build_frequency_grid(config.n_points, config.omega_min, config.omega_max)
    params = GaussianJsaParams(config.sigma_a, config.sigma_b, config.theta)
    jsa = build_gaussian_jsa(params, grid, max_truncated_mass=config.mass_tolerance)
    return jsa, schmidt_decompose(jsa, n_retained=config.n_retained)


def _select_basis(
    config: RunConfig, jsa: GaussianJsa, schmidt: SchmidtData, filt: Filter
) -> tuple[MeasurementBasis, OptimizedBasis | None]:
    """Stage 2: the measurement basis ``config.basis`` names for one filter.

    The schmidt and svd bases do not read the gain; the genetic search
    scores squeezing, so for it ``schmidt`` must carry a gain.
    """
    n = config.n_retained
    if config.basis == "schmidt":
        return MeasurementBasis.from_schmidt(schmidt, n), None
    if config.basis == "svd":
        return MeasurementBasis.from_schmidt(svd_effective_basis(jsa, filt, filt, n_retained=n), n), None
    ctx = make_state_context(schmidt, filt, filt)
    ga_result = ga_optimize_basis(ctx, config.ga_modes, config)
    return MeasurementBasis.from_shared(ga_result.modes, jsa.grid), ga_result


def _points(config: RunConfig, jsa: GaussianJsa, schmidt: SchmidtData, widths, gains):
    """Stages 2-3 at each (width, gain) of ``widths`` x ``gains``, widths outermost.

    Yields one ``RunReport`` a point, or the ``ConfigurationError`` /
    ``NumericsError`` that stopped it.  Each width builds its filter and
    selects a gain-free basis (schmidt, svd) once, before any gain is applied,
    so a point's filter or basis error comes before its gain error; such a
    basis is also projected onto once a width, since the overlaps do not read
    the gain.  The genetic search scores the gained state, so it runs per
    point, after the gain.
    """
    gain_free = config.basis in _GAIN_FREE_BASES
    for width in widths:
        point = dataclasses.replace(config, filter_width=width)
        try:
            filt = _FILTERS[point.filter_kind](point, jsa.grid)
            basis, ga_result = _select_basis(point, jsa, schmidt, filt) if gain_free else (None, None)
        except (ConfigurationError, NumericsError) as exc:
            yield from (exc for _ in gains)
            continue
        proj = None
        for gain in gains:
            try:
                gained = apply_gain(schmidt, gain)
                if not gain_free:
                    basis, ga_result = _select_basis(point, jsa, gained, filt)
                if gain_free and proj is not None:
                    proj = dataclasses.replace(proj, schmidt=gained)
                else:
                    proj = filtered_projections(gained, filt, filt, basis)
                cov = assemble_covariance(proj)
                entries = squeezing_report(cov)
                smc = single_mode_character(entries)
                yield RunReport(point, float(gain), cov, entries, purity(cov), smc, jsa, proj, ga_result)
            except (ConfigurationError, NumericsError) as exc:
                yield exc


def run_single(config: RunConfig) -> RunReport:
    """The one point of ``_points`` at ``config``'s filter width and gain.

    Stage 1 runs first, then the gain is resolved (``gain_b``, or the gain
    that gives ``target_db``); the point's error, if any, is raised.
    """
    jsa, schmidt = _prepare_state(config)
    gain = config.gain_b if config.gain_b is not None else gain_for_target_db(schmidt, config.target_db)
    (outcome,) = _points(config, jsa, schmidt, (config.filter_width,), (gain,))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class TradeoffRecord:
    """One point of the filter-width x gain trade-off table."""

    filter_width: float
    gain_b: float
    first_mode_squeezing_db: float
    single_mode_character: float
    purity: float
    tail_weight: float
    basis_method: str
    error: str = ""


def sweep_tradeoff(config: RunConfig) -> list[TradeoffRecord]:
    """Trade-off records over sweep_widths x sweep_target_dbs, sorted by (gain, width).

    The state is prepared once and each point is the ``run_single`` of its
    own width and target: the same points of ``_points``.  A failing point is
    recorded with its error's type and message, and the sweep continues.
    """
    jsa, schmidt = _prepare_state(config)
    gains = [gain_for_target_db(schmidt, target) for target in config.sweep_target_dbs]
    records = []
    points = _points(config, jsa, schmidt, config.sweep_widths, gains)
    for (width, gain), point in zip(itertools.product(config.sweep_widths, gains), points):
        if isinstance(point, Exception):
            numbers, error = (math.nan,) * 3, f"{type(point).__name__}: {point}"
        else:
            numbers, error = (point.squeezing[0].squeezing_db, point.single_mode_character, point.purity), ""
        records.append(TradeoffRecord(width, gain, *numbers, schmidt.tail_weight, config.basis, error))
    records.sort(key=lambda rec: (rec.gain_b, rec.filter_width))
    return records


def _write_csv(path, header, rows) -> None:
    """Write a CSV table with floats at 17 significant digits (an exact round trip).

    Every other cell is written as it is; ``header=None`` writes no header row.
    A float array is written with one format call and one write: ``"%.17g" % x``
    is ``format(x, ".17g")``, and such a cell never needs quoting, so the
    bytes are those ``csv.writer`` writes.  An exact zero, which it writes as
    ``0`` or ``-0``, is that literal in its row's template.  A template is
    built once per pattern of such cells.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == float:
            zero = rows == 0
            # 0 for a formatted cell, 1 for +0.0, 2 for -0.0
            codes = zero.view(np.uint8) + (zero & np.signbit(rows)).view(np.uint8)
            flags, width = codes.tobytes(), rows.shape[1]
            patterns = [flags[i * width : (i + 1) * width] for i in range(len(rows))]
            lines = {
                pattern: ",".join(_CELL_TEMPLATES[cell] for cell in pattern) + writer.dialect.lineterminator
                for pattern in set(patterns)
            }
            fh.write("".join(map(lines.__getitem__, patterns)) % tuple(rows[~zero].tolist()))
        else:
            writer.writerows([format(x, ".17g") if isinstance(x, float) else x for x in row] for row in rows)


def _manifest(config: RunConfig, **entries) -> dict:
    """The ``manifest.json`` of a run or sweep: library, version, full configuration."""
    return {"library": "pdcfilter", "version": __version__, "config": dataclasses.asdict(config), **entries}


def _export(out_dir, artifacts: dict) -> list[Path]:
    """Write each named artifact into ``out_dir``; the paths written, in order.

    A dict is written as strict JSON (RFC 8259: a non-finite float raises),
    a ``(header, rows)`` pair as a CSV table.
    Each goes to ``name.tmp`` first, which then replaces ``name``, so no
    artifact is ever seen half written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in artifacts.items():
        path = out / name
        tmp = path.with_name(name + ".tmp")
        if isinstance(content, dict):
            tmp.write_text(json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n")
        else:
            _write_csv(tmp, *content)
        os.replace(tmp, path)
        written.append(path)
    return written


def _record_table(cls, records) -> tuple[list[str], list[tuple]]:
    """Header and rows of a table of dataclass records, one column per field."""
    names = [f.name for f in fields(cls)]
    return names, [tuple(getattr(rec, name) for name in names) for rec in records]


def _modes_table(grid, modes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Header and rows of ``modes.csv``: omega, then one column per mode.

    Complex modes are written as interleaved re/im column pairs.
    """
    modes = np.atleast_2d(np.asarray(modes))
    labels = [f"mode_{k + 1}" for k in range(modes.shape[0])]
    if np.iscomplexobj(modes) and np.max(np.abs(np.imag(modes))) > 1e-12:
        labels = [f"{label}_{part}" for label in labels for part in ("re", "im")]
        columns = np.stack([modes.real, modes.imag], axis=1).reshape(len(labels), -1)
    else:
        columns = np.real(modes)
    return ["omega"] + labels, np.column_stack([grid.points, columns.T])


def export_report(report: RunReport, out_dir) -> list[Path]:
    """Write all artifacts of a single run; reruns with one seed are byte-identical."""
    proj = report.projections
    schmidt = proj.schmidt
    n = report.config.n_retained
    schmidt_rows = [
        (i, lam, r, squeezing_db(r))
        for i, (lam, r) in enumerate(zip(schmidt.lambdas[:n], schmidt.r_values[:n]), start=1)
    ]
    smc = report.single_mode_character
    results = {
        "basis_method": report.config.basis,
        "gain_b": report.gain_b,
        "tail_weight": schmidt.tail_weight,
        "purity": report.purity,
        # null stands for the infinite sentinel: no mode but the first squeezes
        "single_mode_character": smc if math.isfinite(smc) else None,
        "first_mode_squeezing_db": report.squeezing[0].squeezing_db,
        "min_symplectic_eigenvalue": check_physicality(report.covariance)[1],
    }
    artifacts = {
        "schmidt.csv": (["mode_index", "lambda", "r", "squeezing_db"], schmidt_rows),
        "modes.csv": _modes_table(proj.grid, proj.basis.signal_fns),
        "covariance.csv": (None, report.covariance.sigma),
        "squeezing.csv": _record_table(SqueezingEntry, report.squeezing),
        "manifest.json": _manifest(report.config, results=results),
    }
    if report.ga_result is not None:
        log = report.ga_result.convergence_log
        artifacts["ga_convergence.csv"] = (["mode", "generation", "best_db", "mean_db"], log)
    return _export(out_dir, artifacts)


def export_tradeoff(records: list[TradeoffRecord], config: RunConfig, out_dir) -> list[Path]:
    """Write the trade-off table and its manifest."""
    n_failed = sum(1 for rec in records if rec.error)
    return _export(
        out_dir,
        {
            "tradeoff.csv": _record_table(TradeoffRecord, records),
            "manifest.json": _manifest(config, n_records=len(records), n_failed=n_failed),
        },
    )


def validate(config: RunConfig, stream=None) -> bool:
    """Run the invariant suite against one configuration, one line per check.

    The pipeline runs once; every check reads the amplitude, decomposition
    and projections of that run.  Only the first two read samples, in one
    pass: the normalization, and the skeleton against every sample, whose
    largest residual must lie within the 1e-14 noise floor of the largest
    sample (for Mehler's skeleton, the a posteriori check of its a priori
    bound).
    """
    stream = stream or sys.stdout
    results: list[tuple[str, bool, str]] = []
    report = run_single(config)
    jsa, proj = report.jsa, report.projections
    schmidt = proj.schmidt

    norm, residual, largest = jsa.audit()
    norm_dev = abs(norm - 1)
    results.append(("jsa_normalization", norm_dev <= _NORM_TOL, f"|norm-1| = {norm_dev:.2e}"))
    relative = residual / largest if largest > 0 else math.inf
    detail = f"max |ut^T v - f d_omega| = {relative:.2e} of the largest sample, floor {_NOISE_FLOOR:.0e}"
    results.append(("skeleton_residual", residual <= _NOISE_FLOOR * largest, detail))
    dw = jsa.grid.d_omega
    for name, modes in (("signal", schmidt.signal_modes), ("idler", schmidt.idler_modes)):
        gram = modes @ modes.conj().T * dw
        dev = float(np.max(np.abs(gram - np.eye(modes.shape[0]))))
        results.append((f"{name}_orthonormality", dev <= 1e-10, f"max dev {dev:.2e}"))
    parseval = abs(float(np.sum(schmidt.lambdas**2)) - 1)
    results.append(("parseval", parseval <= _PARSEVAL_TOL, f"|sum-1| = {parseval:.2e}"))

    defect = float(np.max(np.abs(commutator_defects(proj))))
    results.append(
        ("commutator_preservation", defect <= 1e-8, f"max defect {defect:.2e} over both arms")
    )

    passed_phys, lowest = check_physicality(report.covariance)
    results.append(("physicality", passed_phys, f"min nu = {lowest!r}"))
    p_det, p_symp = purity_routes(report.covariance)
    gap = abs(p_det - p_symp)
    detail = f"purity = {p_det:.9f}, |det - Williamson| = {gap:.2e}"
    results.append(("purity_crosscheck", gap <= _PURITY_XCHECK_TOL, detail))
    product_ok = all(
        entry.delta2_minus * entry.delta2_plus >= 1 - 1e-9 for entry in report.squeezing
    )
    results.append(("uncertainty_products", product_ok, "min product >= 1 - 1e-9"))

    all_passed = True
    for name, ok, detail in results:
        all_passed &= ok
        print(f"[validate] {name}: {'PASS' if ok else 'FAIL'} ({detail})", file=stream)
    return all_passed


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser of ``main``, built once."""
    parser = argparse.ArgumentParser(
        prog="pdcfilter",
        description="Gaussian model of spectrally filtered two-mode squeezing",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("run", "execute one configuration and write all artifacts"),
        ("sweep", "produce the filter-width x gain trade-off table"),
        ("validate", "run the invariant suite on a configuration"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="key = value configuration file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override rng_seed")
        p.add_argument("--basis", choices=_BASIS_CHOICES, default=None, help="override basis method")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with calling_thread():
        return _dispatch(args)


def _dispatch(args) -> int:
    """Run the parsed verb; the exit code of ``main``."""
    try:
        config = build_config(
            config_path=args.config,
            rng_seed=args.seed,
            basis=args.basis,
        )
        if args.verb == "validate":
            if not validate(config):
                return 2
            print("all invariants hold")
            return 0
        if args.verb == "run":
            report = run_single(config)
            written = export_report(report, args.out)
            first = report.squeezing[0].squeezing_db
            print(
                f"run complete: first mode {first:.4f} dB, purity {report.purity:.6g}, "
                f"single-mode character {report.single_mode_character:.4f}"
            )
        else:
            records = sweep_tradeoff(config)
            written = export_tradeoff(records, config, args.out)
            print(f"sweep complete: {len(records)} points, {sum(1 for rec in records if rec.error)} failed")
        for path in written:
            print(f"  wrote {path}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
