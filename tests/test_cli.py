import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import typing
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import pdcfilter as pf
from pdcfilter.cli import (
    RunConfig,
    _modes_table,
    _write_csv,
    build_config,
    export_report,
    export_tradeoff,
    main,
    parse_config_file,
    run_single,
    sweep_tradeoff,
    validate,
)
from pdcfilter.errors import ConfigurationError

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_MAIN = "import sys; from pdcfilter.cli import main; sys.exit(main(sys.argv[1:]))"
_KEYS = [f.name for f in dataclasses.fields(RunConfig)]


def _strict_json(path):
    """``path`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _config_text(config: RunConfig) -> str:
    """Every field of ``config`` but the unset ones as a ``key = value`` line."""
    lines = []
    for key in _KEYS:
        value = getattr(config, key)
        if isinstance(value, tuple):
            value = ", ".join(map(repr, value))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


_VALUE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    st.builds("{}{}".format, st.integers(), st.integers(0, 400).map("0".__mul__)),
    st.floats().map(repr),
    st.lists(st.floats(), max_size=4).map(lambda xs: ", ".join(map(repr, xs))),
    st.sampled_from(["schmidt", "svd", "ga", "rect", "gauss", "identity", "blocking", "flat"]),
)
_CONFIG_LINE = st.builds(
    "{} = {}".format,
    st.one_of(st.sampled_from(_KEYS), st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)),
    _VALUE_TEXT,
)


class TestConfigParsing:
    def test_defaults(self):
        config = RunConfig()
        assert config.n_points == 100
        assert (config.omega_min, config.omega_max) == (-10.0, 10.0)
        assert (config.sigma_a, config.sigma_b) == (6.0, 2.0)
        assert config.target_db == 6.0 and config.gain_b is None
        assert config.basis == "svd"
        assert config.n_retained == 10 and config.ga_modes == 5
        assert config.sweep_widths == (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0)
        assert config.sweep_target_dbs == (2.0, 4.0, 6.0)
        assert config.population == 256 and config.mutation_prob == 0.02
        assert config.convergence_tol == 1e-4

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "n_points = 64\n"
            "basis = schmidt\n"
            "filter_width = 6.0  # inline comment\n"
            "sweep_widths = 2, 4, 8\n"
            "rng_seed = 42\n"
        )
        config = build_config(path)
        assert config.n_points == 64
        assert config.basis == "schmidt"
        assert config.filter_width == 6.0
        assert config.sweep_widths == (2.0, 4.0, 8.0)
        assert config.rng_seed == 42

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(),
            RunConfig(
                gain_b=0.37,
                target_db=None,
                basis="ga",
                filter_kind="flat",
                filter_amplitude=0.25,
                sweep_widths=(0.5, 1.5),
                sweep_target_dbs=(3.0,),
                mass_tolerance=1e-3,
                rng_seed=9,
            ),
        ],
    )
    def test_every_field_round_trips(self, tmp_path, config):
        path = tmp_path / "all.cfg"
        path.write_text(_config_text(config))
        assert build_config(path) == config

    def test_readme_block_is_the_default(self, tmp_path):
        readme = (_ROOT / "README.md").read_text()
        block = readme.split("Configuration files are flat", 1)[1].split("```\n", 2)[1]
        assert all(f"{key} =" in block for key in _KEYS)
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert build_config(path) == RunConfig()

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_CONFIG_LINE, max_size=6))
    def test_any_text_gives_config_or_configuration_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            config = build_config(path)
        except ConfigurationError:
            return
        assert isinstance(config, RunConfig)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"n_points = 5\xff0\n")
        with pytest.raises(ConfigurationError, match="UTF-8"):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_points 64\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_gain_and_target_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            RunConfig(gain_b=0.5, target_db=6.0)

    def test_gain_from_file_replaces_target(self, tmp_path):
        path = tmp_path / "gain.cfg"
        path.write_text("gain_b = 0.5\n")
        config = build_config(path)
        assert config.gain_b == 0.5 and config.target_db is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"filter_width": math.nan},
            {"omega_max": math.inf},
            {"target_db": -math.inf},
            {"sweep_widths": (1.0, math.nan)},
        ],
    )
    def test_non_finite_floats_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            RunConfig(**kwargs)

    def test_threads_key_removed(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("threads = 2\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_ga_working_set_guard(self):
        # the estimate is arithmetic on the config: nothing is allocated here
        from pdcfilter.genetic import _LIVE_ARRAYS, GA_MEMORY_LIMIT, ga_working_set_bytes

        assert ga_working_set_bytes(256, 100) == 256 * 100 * 8 * _LIVE_ARRAYS
        largest = GA_MEMORY_LIMIT // ga_working_set_bytes(1, 100) // 2 * 2
        assert RunConfig(n_points=100, population=largest).population == largest
        with pytest.raises(ConfigurationError, match="genetic search"):
            RunConfig(n_points=100, population=largest + 2)
        with pytest.raises(ConfigurationError, match="genetic search"):
            RunConfig(n_points=10**6, basis="svd")

    def test_gauss_run_has_no_passband_cap(self, tmp_path, monkeypatch):
        # a gauss filter transmits all 6000 samples, and the svd basis still
        # decomposes only the k x n skeleton factors
        import pdcfilter.cli as cli

        original, peaks = cli.svd_effective_basis, []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(cli, "svd_effective_basis", traced)
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text("n_points = 6000\nfilter_kind = gauss\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").is_file()
        assert len(peaks) == 1 and peaks[0] < 20e6

    def test_grid_size_guard_exits_before_any_sample(self, tmp_path):
        # every basis evaluates all n_points^2 samples once: 1e10 of them
        # would take minutes, so the config is refused before the first
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n_points = 100000\n")
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stderr(err):
            code = main(["run", "--basis", "schmidt", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1 and time.perf_counter() - start < 1.0
        assert err.getvalue().count("\n") == 1 and "amplitude samples" in err.getvalue()
        assert not (tmp_path / "out").exists()
        assert RunConfig(n_points=32768, basis="schmidt").n_points == 32768
        with pytest.raises(ConfigurationError, match="n_points <= 32768"):
            RunConfig(n_points=32769, basis="schmidt")

    def test_sweep_lists_must_increase(self):
        with pytest.raises(ConfigurationError):
            RunConfig(sweep_widths=(4.0, 2.0))
        with pytest.raises(ConfigurationError):
            RunConfig(sweep_widths=())

    def test_flag_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rng_seed = 1\nbasis = schmidt\n")
        config = build_config(path, rng_seed=9, basis="svd")
        assert config.rng_seed == 9 and config.basis == "svd"


class TestRunSingle:
    def test_unfiltered_reference_values(self):
        # window wide enough to hold the modes, so the geometric values apply
        config = RunConfig(
            n_points=200,
            omega_min=-16.0,
            omega_max=16.0,
            filter_kind="identity",
            basis="schmidt",
            n_retained=5,
        )
        report = run_single(config)
        assert report.squeezing[0].squeezing_db == pytest.approx(6.0, abs=0.01)
        assert report.purity == pytest.approx(1.0, abs=1e-6)
        assert report.single_mode_character == pytest.approx(1.067, abs=1e-3)

    def test_blocking_filter_gives_vacuum(self):
        config = RunConfig(filter_kind="blocking", basis="schmidt", n_retained=5)
        report = run_single(config)
        assert all(abs(e.squeezing_db) < 1e-9 for e in report.squeezing)
        assert report.purity == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(report.covariance.sigma - 0.5 * np.eye(20))) < 1e-12

    def test_rect_svd_tradeoff_direction(self):
        filtered = run_single(RunConfig(n_retained=5))
        unfiltered = run_single(RunConfig(filter_kind="identity", basis="schmidt", n_retained=5))
        assert 0.0 < filtered.squeezing[0].squeezing_db < 6.0
        assert filtered.single_mode_character > unfiltered.single_mode_character
        assert filtered.purity < 1.0

    def test_ga_basis_smoke(self):
        config = RunConfig(
            basis="ga",
            ga_modes=1,
            population=64,
            max_generations=600,
            convergence_window=30,
            rng_seed=3,
        )
        report = run_single(config)
        assert report.ga_result is not None
        assert report.squeezing[0].squeezing_db > 2.5

    def test_target_gain_resolution(self):
        by_target = run_single(RunConfig(filter_kind="identity", basis="schmidt", n_retained=3))
        by_gain = run_single(
            RunConfig(
                filter_kind="identity",
                basis="schmidt",
                n_retained=3,
                gain_b=by_target.gain_b,
                target_db=None,
            )
        )
        assert by_gain.squeezing[0].squeezing_db == pytest.approx(
            by_target.squeezing[0].squeezing_db, abs=1e-12
        )


class TestExport:
    def test_reruns_byte_identical(self, tmp_path):
        config = RunConfig(n_retained=4, rng_seed=7)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        export_report(run_single(config), out_a)
        export_report(run_single(config), out_b)
        for name in ("schmidt.csv", "modes.csv", "covariance.csv", "squeezing.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_covariance_roundtrip(self, tmp_path):
        config = RunConfig(n_retained=4)
        report = run_single(config)
        export_report(report, tmp_path)
        loaded = pf.read_covariance_csv(tmp_path / "covariance.csv")
        assert np.max(np.abs(loaded - report.covariance.sigma)) < 1e-15

    def test_manifest_captures_config_and_seed(self, tmp_path):
        config = RunConfig(n_retained=4, rng_seed=123)
        export_report(run_single(config), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["library"] == "pdcfilter"
        assert manifest["version"] == pf.__version__
        assert manifest["config"]["rng_seed"] == 123
        for key, value in (
            ("population", 256),
            ("mutation_prob", 0.02),
            ("mutation_sigma", 0.1),
            ("convergence_tol", 1e-4),
            ("convergence_window", 50),
            ("max_generations", 10_000),
            ("parent_fraction", 0.5),
        ):
            assert manifest["config"][key] == value
        assert 0 < manifest["results"]["purity"] <= 1

    @pytest.mark.parametrize(
        "overrides",
        [{"filter_kind": "blocking"}, {"filter_width": 0.0}, {"filter_kind": "gauss", "filter_width": 0.01}],
    )
    def test_manifest_is_strict_json(self, tmp_path, overrides):
        # a run with no squeezing beyond the first mode has an infinite
        # single-mode character, written as null rather than Infinity
        export_report(run_single(RunConfig(n_retained=4, **overrides)), tmp_path)
        manifest = _strict_json(tmp_path / "manifest.json")
        assert manifest["results"]["single_mode_character"] is None

    def test_ga_convergence_log_written(self, tmp_path):
        config = RunConfig(
            basis="ga",
            ga_modes=1,
            population=32,
            max_generations=40,
            convergence_window=50,
            rng_seed=3,
        )
        export_report(run_single(config), tmp_path)
        lines = (tmp_path / "ga_convergence.csv").read_text().splitlines()
        assert lines[0] == "mode,generation,best_db,mean_db"
        assert len(lines) == 41


@pytest.fixture(scope="module")
def records():
    return sweep_tradeoff(RunConfig(n_retained=8))


class TestSweep:
    def test_sorted_and_complete(self, records):
        assert len(records) == 24
        keys = [(rec.gain_b, rec.filter_width) for rec in records]
        assert keys == sorted(keys)
        assert not any(rec.error for rec in records)

    def test_identity_endpoint_matches_unfiltered(self, records):
        # width 20 covers the whole window: the unfiltered record
        config = RunConfig(filter_kind="identity", basis="svd", n_retained=8, target_db=6.0)
        reference = run_single(config)
        endpoint = [r for r in records if r.filter_width == 20.0][-1]
        assert endpoint.first_mode_squeezing_db == pytest.approx(
            reference.squeezing[0].squeezing_db, abs=1e-6
        )

    def test_squeezing_monotone_in_width(self, records):
        for gain in sorted({rec.gain_b for rec in records}):
            curve = [r for r in records if r.gain_b == gain]
            dbs = [r.first_mode_squeezing_db for r in curve]  # width ascending
            assert all(a <= b + 1e-9 for a, b in zip(dbs, dbs[1:]))

    def test_smc_grows_as_width_shrinks(self, records):
        for gain in sorted({rec.gain_b for rec in records}):
            curve = [r for r in records if r.gain_b == gain]
            smc = [r.single_mode_character for r in curve]
            assert all(a >= b for a, b in zip(smc, smc[1:]))

    def test_failed_point_recorded_and_sweep_continues(self, monkeypatch):
        import pdcfilter.cli as cli

        original = cli.svd_effective_basis

        def flaky(jsa, fa, fb, n_retained=10):
            if np.array_equal(fa.transmission, pf.make_rect_filter(0.0, 2.0, jsa.grid).transmission):
                raise pf.NumericsError("synthetic failure")
            return original(jsa, fa, fb, n_retained=n_retained)

        monkeypatch.setattr(cli, "svd_effective_basis", flaky)
        records = sweep_tradeoff(RunConfig(n_retained=4, sweep_target_dbs=(6.0,)))
        failed = [r for r in records if r.error]
        assert len(failed) == 1 and failed[0].filter_width == 2.0
        assert "synthetic failure" in failed[0].error
        assert math.isnan(failed[0].purity)
        assert len(records) == 8

    def test_refused_gain_fails_only_its_points(self):
        records = sweep_tradeoff(
            RunConfig(n_points=50, sweep_widths=(2.0, 4.0), sweep_target_dbs=(6.0, 1e6))
        )
        failed = [r for r in records if r.error]
        assert len(records) == 4 and len(failed) == 2
        assert all(r.error.startswith("NumericsError") for r in failed)

    def test_tradeoff_csv(self, tmp_path, records):
        config = RunConfig(n_retained=8)
        export_tradeoff(records, config, tmp_path)
        lines = (tmp_path / "tradeoff.csv").read_text().splitlines()
        assert lines[0].startswith("filter_width,gain_b,first_mode_squeezing_db")
        assert len(lines) == 25
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_records"] == 24 and manifest["n_failed"] == 0


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = RunConfig(
        n_points=50,
        basis="ga",
        ga_modes=2,
        population=16,
        max_generations=5,
        sweep_widths=(2.0, 4.0),
        sweep_target_dbs=(6.0,),
    )
    export_report(run_single(config), out / "run")
    export_tradeoff(sweep_tradeoff(config), config, out / "sweep")
    return out


@pytest.mark.parametrize(
    "name, header",
    [
        ("run/schmidt.csv", "mode_index,lambda,r,squeezing_db"),
        ("run/modes.csv", "omega,mode_1,mode_2"),
        ("run/squeezing.csv", "mode_index,delta2_minus,delta2_plus,squeezing_db,combination"),
        ("run/ga_convergence.csv", "mode,generation,best_db,mean_db"),
        (
            "sweep/tradeoff.csv",
            "filter_width,gain_b,first_mode_squeezing_db,single_mode_character,purity,"
            "tail_weight,basis_method,error",
        ),
    ],
)
def test_artifact_header(artifacts, name, header):
    assert (artifacts / name).read_text().splitlines()[0] == header


def test_float_table_writes_the_csv_writer_bytes(tmp_path):
    # a float array is written one format call per row; the same table as
    # lists of floats goes through csv.writer, and both give the same bytes
    rng = np.random.default_rng(7)
    table = rng.standard_normal((60, 7)) * np.exp(rng.uniform(-700.0, 700.0, (60, 7)))
    table[0, :6] = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308)
    table[1] = np.round(table[1] % 1e6)
    table[2] = np.arange(7.0) - 3.0
    modes = rng.standard_normal((3, 40)) * np.exp(1j * rng.uniform(0.0, 6.0, (3, 40)))
    tables = {
        "random": (None, table),
        "headed": ([f"c{k}" for k in range(7)], table),
        "modes": _modes_table(pf.build_frequency_grid(40, -3.0, 3.0), modes),
    }
    for name, (header, rows) in tables.items():
        assert isinstance(rows, np.ndarray) and rows.dtype == float
        _write_csv(tmp_path / f"{name}_array.csv", header, rows)
        _write_csv(tmp_path / f"{name}_list.csv", header, rows.tolist())
        assert (tmp_path / f"{name}_array.csv").read_bytes() == (tmp_path / f"{name}_list.csv").read_bytes()


class TestMainEntry:
    def test_run_verb(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_retained = 4\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert "run complete" in capsys.readouterr().out

    def test_sweep_verb(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_retained = 4\nsweep_widths = 4, 20\nsweep_target_dbs = 6\n")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "tradeoff.csv").exists()

    def test_validate_verb(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8 and "FAIL" not in out

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("verb", ["run", "sweep", "validate"])
    @pytest.mark.parametrize("line, got", [("gain_b = -1", "-1.0, None"), ("target_db = -5", "None, -5.0")])
    def test_negative_gain_exits_one_on_every_verb(self, tmp_path, capsys, verb, line, got):
        # a sweep takes its gains from sweep_target_dbs, yet refuses these too
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n_points = 50\n{line}\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        error = capsys.readouterr().err.splitlines()
        assert error == [f"configuration error: gain_b and target_db must be >= 0, got {got}"]
        assert not (tmp_path / "out").exists()

    def test_truncation_refusal_exit_code(self, tmp_path):
        # reference widths cannot fit this window: refused as a config error
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("omega_min = -3\nomega_max = 3\nmass_tolerance = 1e-6\n")
        assert main(["run", "--config", str(cfg)]) == 1

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch):
        import pdcfilter.cli as cli

        def boom(config):
            raise pf.NumericsError("synthetic numerical failure")

        monkeypatch.setattr(cli, "run_single", boom)
        assert main(["run", "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: covariance entries of size cosh 2r lose eps e^(4r) to round-off, "
        "so min nu reads 0.499988 (gain 8) and 0.49940 (gain 10) and the run exits 2",
    )
    @pytest.mark.parametrize("gain", [8, 10])
    def test_unfiltered_high_gain_run_is_pure(self, tmp_path, gain):
        # an unfiltered state measured in its Schmidt basis is pure by construction
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_points = 100\nfilter_kind = identity\nbasis = schmidt\ngain_b = {gain}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        results = _strict_json(tmp_path / "out" / "manifest.json")["results"]
        assert results["purity"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("crashes", [False, True])
    def test_verb_runs_openblas_on_calling_thread(self, tmp_path, monkeypatch, crashes):
        import pdcfilter.cli as cli
        from pdcfilter import blas

        before = blas.num_threads()
        if before is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        seen = []

        def spy(config):
            seen.append(blas.num_threads())
            if crashes:  # an error no exit code covers still restores the count
                raise RuntimeError("synthetic crash")
            return run_single(config)

        monkeypatch.setattr(cli, "run_single", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_points = 100\nn_retained = 3\n")
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        if crashes:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == 0
        assert seen == [1]
        assert blas.num_threads() == before

    @pytest.mark.parametrize(
        "line, code",
        [
            ("target_db = nan", 1),
            ("target_db = 1e6", 2),
            ("target_db = 200", 2),
            ("filter_width = nan", 1),
            ("mutation_sigma = -1", 1),
            ("population = 1000000000", 1),
            ("n_points = 100000", 1),
            pytest.param("n_points = " + "9" * 400, 1, id="n_points = 400 digits-1"),
            ("rng_seed = -1", 1),
            ("omega_min = -1e308\nomega_max = 1e308", 1),
            ("omega_min = -1e300\nomega_max = 1e300", 1),
            ("omega_min = 1e155\nomega_max = 1.0000000001e155", 1),
            ("sigma_a = 1e-300", 1),
            ("sigma_b = 1e200", 1),
            ("sigma_a = 0.01", 1),
            ("sigma_a = 1e-100", 1),
            ("sigma_a = 1e-100\nsigma_b = 1e-100", 1),
            ("n_points = 2\nmass_tolerance = 1\nsigma_a = 1e-100", 1),
            ("filter_kind = gauss\nfilter_width = 1e300", 1),
        ],
    )
    def test_bad_float_exits_with_one_line(self, tmp_path, line, code):
        # a real process, so stderr is exactly what a user sees
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n_points = 50\n{line}\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN, "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("configuration error:", "numerical error:"))
        assert "run complete" not in proc.stdout

    def test_io_error_exit_code(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_retained = 3\n")
        code = main(["run", "--config", str(cfg), "--out", str(target)])
        assert code == 3

    def test_seed_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rng_seed = 1\nn_retained = 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "77"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["rng_seed"] == 77


def test_validate_reports_all_checks(capsys):
    assert validate(RunConfig(n_retained=4))
    out = capsys.readouterr().out
    for name in (
        "jsa_normalization",
        "signal_orthonormality",
        "idler_orthonormality",
        "parseval",
        "filter_energy_split",
        "commutator_preservation",
        "physicality",
        "purity_crosscheck",
        "uncertainty_products",
    ):
        assert f"[validate] {name}: PASS" in out
    gap = re.search(r"purity_crosscheck: PASS \(purity = [0-9.]+, \|det - Williamson\| = (\S+)\)", out)
    assert gap and float(gap.group(1)) <= 1e-9


def test_validate_fails_on_a_purity_gap(monkeypatch):
    # the line reports the measured gap of the two routes, not a constant PASS
    import pdcfilter.cli as cli

    monkeypatch.setattr(cli, "purity_routes", lambda cov: (0.5, 0.5 + 2e-9))
    stream = io.StringIO()
    assert not validate(RunConfig(n_points=60, n_retained=4), stream=stream)
    line = "[validate] purity_crosscheck: FAIL (purity = 0.500000000, |det - Williamson| = 2.00e-09)"
    assert line in stream.getvalue()


def _count_calls(monkeypatch, names, module=None) -> dict:
    import pdcfilter.cli as cli

    module = module or cli
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


@pytest.mark.parametrize("verb, solves", [("run", 1), ("validate", 1), ("sweep", 24)])
def test_one_eigensolve_per_covariance(verb, solves, tmp_path, monkeypatch, capsys):
    # assembly, purity, export and validate all read one Williamson spectrum;
    # the default sweep measures 8 widths x 3 gains
    calls = _count_calls(monkeypatch, ("eigvals",), module=np.linalg)
    assert main([verb, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"eigvals": solves}


@pytest.mark.parametrize("basis", ["schmidt", "svd", "ga"])
def test_validate_builds_state_once(basis, monkeypatch):
    calls = _count_calls(monkeypatch, ("build_gaussian_jsa", "schmidt_decompose"))
    config = RunConfig(
        n_points=60, n_retained=4, basis=basis, ga_modes=1, population=16, max_generations=20
    )
    assert validate(config, stream=io.StringIO())
    assert calls == {"build_gaussian_jsa": 1, "schmidt_decompose": 1}


@pytest.mark.parametrize("basis", ["schmidt", "svd", "ga"])
def test_sweep_points_equal_single_runs(basis):
    # the sweep reuses the state and, for schmidt and svd, one basis per
    # width; each point must still be exactly the run of its own config.  On
    # the gauss grid a fwhm of 1e-200 is refused and 100 dB puts r_1 past
    # 9.18, so three points fail, one with both faults: the run of each must
    # fail with the error the sweep recorded, the filter's before the gain's
    grids = {"rect": ((2.0, 4.0, 8.0), (3.0, 6.0), 0), "gauss": ((1e-200, 4.0), (6.0, 100.0), 3)}
    for kind, (widths, targets, n_failed) in grids.items():
        config = RunConfig(
            n_points=60,
            n_retained=4,
            basis=basis,
            filter_kind=kind,
            sweep_widths=widths,
            sweep_target_dbs=targets,
            ga_modes=1,
            population=16,
        )
        records = sweep_tradeoff(config)
        expected = [(width, target) for target in targets for width in widths]
        assert len(records) == len(expected)
        assert sum(1 for rec in records if rec.error) == n_failed
        for rec, (width, target) in zip(records, expected):
            point = dataclasses.replace(config, filter_width=width, target_db=target)
            assert rec.filter_width == width
            if rec.error:
                with pytest.raises((ConfigurationError, pf.NumericsError)) as caught:
                    run_single(point)
                assert rec.error == f"{caught.type.__name__}: {caught.value}"
                continue
            report = run_single(point)
            assert rec.gain_b == report.gain_b
            assert rec.first_mode_squeezing_db == report.squeezing[0].squeezing_db
            assert rec.purity == report.purity
            assert rec.single_mode_character == report.single_mode_character


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_rect_filter_forms_no_n_by_n_array(verb):
    # the amplitude is sampled a row block at a time, and only the passband
    # block of the svd basis is dense: a run peaks at 3.9 MB at n = 1600,
    # against 41.3 MB when the whole amplitude was stored (20.5 MB an array)
    config = RunConfig(n_points=1600, sweep_widths=(2.0, 4.0), sweep_target_dbs=(6.0,))
    tracemalloc.start()
    try:
        run_single(config) if verb == "run" else sweep_tradeoff(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_sweep_selects_one_effective_basis_per_width(monkeypatch):
    calls = _count_calls(monkeypatch, ("schmidt_decompose", "svd_effective_basis"))
    config = RunConfig()
    assert config.basis == "svd"
    records = sweep_tradeoff(config)
    assert len(records) == len(config.sweep_widths) * len(config.sweep_target_dbs)
    assert calls == {"schmidt_decompose": 1, "svd_effective_basis": len(config.sweep_widths)}


# plausible values for each key; a drawn config may also set one float key
# to an odd value.  About one drawn grid in five has 380 to 400 points, and a
# gain_b above about 13 puts r_1 past 9.18
_FUZZ_KEYS = {
    "n_points": st.integers(0, 4).flatmap(lambda d: st.integers(380, 400) if d == 4 else st.integers(2, 70)),
    "omega_min": st.floats(-20.0, -5.0),
    "omega_max": st.floats(5.0, 20.0),
    "sigma_a": st.floats(0.3, 6.0),
    "sigma_b": st.floats(0.3, 3.0),
    "theta": st.floats(-4.0, 4.0),
    "target_db": st.floats(0.0, 30.0),
    "gain_b": st.floats(0.0, 50.0),
    "n_retained": st.integers(1, 12),
    "basis": st.sampled_from(["schmidt", "svd", "ga"]),
    "filter_kind": st.sampled_from(["rect", "gauss", "identity", "blocking", "flat"]),
    "filter_center": st.floats(-5.0, 5.0),
    "filter_width": st.floats(0.0, 25.0),
    "filter_amplitude": st.floats(0.0, 1.0),
    "mass_tolerance": st.floats(1e-6, 1.0),
    "ga_modes": st.integers(1, 2),
    "population": st.integers(1, 8).map(lambda half: 2 * half),
    "max_generations": st.integers(1, 20),
}
_FUZZ_FLOAT_KEYS = [key for key in _FUZZ_KEYS if typing.get_type_hints(RunConfig)[key] in (float, float | None)]
_ODD_FLOATS = st.sampled_from([0.0, -1.0, 1e-300, 1e-100, 0.01, 1e6, 1e300, math.nan, math.inf, -math.inf])
_FUZZ_FIXED = "n_points = 40\nsweep_widths = 2, 8\nsweep_target_dbs = 3, 6\npopulation = 8\nmax_generations = 10\n"


@settings(max_examples=300, deadline=None)
@given(
    verb=st.sampled_from(["run", "sweep", "validate"]),
    keys=st.fixed_dictionaries({}, optional=_FUZZ_KEYS),
    odd=st.none() | st.tuples(st.sampled_from(_FUZZ_FLOAT_KEYS), _ODD_FLOATS),
)
# purity 8.2e-8: the console line once printed it as 0.000000
@example(verb="run", keys={"gain_b": 8.0}, odd=None)
def test_main_fuzz_ends_in_a_documented_exit(tmp_path_factory, verb, keys, odd):
    # every input ends in exit 0-3 without a traceback or a numpy warning,
    # and a completed run reports finite squeezing and a purity in (0, 1]
    if odd:
        keys = {**keys, odd[0]: odd[1]}
    work = tmp_path_factory.mktemp("main_fuzz")
    cfg = work / "fuzz.cfg"
    cfg.write_text(_FUZZ_FIXED + "".join(f"{key} = {value}\n" for key, value in keys.items()))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([verb, "--config", str(cfg), "--out", str(work / "out")])
    event(f"{verb} exit {code} at n_points {'>= 380' if keys.get('n_points', 40) >= 380 else '<= 70'}")
    assert code in (0, 1, 2, 3)
    if any(keys.get(key, 0.0) < 0 for key in ("gain_b", "target_db")):
        assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # a failure is one stderr line, but for a failed invariant, which validate reports on stdout
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0) or (verb, code, lines) == ("validate", 2, [])
    assert "Traceback" not in err.getvalue()
    if verb == "run" and code == 0:
        done = re.search(r"first mode (\S+) dB, purity (\S+),", out.getvalue())
        assert math.isfinite(float(done.group(1)))
        assert 0.0 < float(done.group(2)) <= 1.0
        _strict_json(work / "out" / "manifest.json")
