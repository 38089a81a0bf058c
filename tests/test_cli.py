import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_schwarz import fem
from elastic_schwarz.cli import (
    _COMMANDS,
    _KEY_TYPES,
    ConfigError,
    _build_parser,
    config_header,
    load_config,
    main,
    parse_kv_lines,
)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def header_only(path):
    return [line for line in read(path).decode().splitlines() if line.startswith("#")]


def strict_json(payload):
    """JSON that holds no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(payload, parse_constant=reject)


def flagged_history(path):
    """The ``nonfinite_at`` header lines and the rows of a history table,
    after checking that every row is finite."""
    lines = read(path).decode().splitlines()
    flag = [line for line in lines if line.startswith("# nonfinite_at=")]
    body = [line for line in lines if not line.startswith(("#", "iter,"))]
    assert all(np.isfinite(float(line.split(",")[1])) for line in body)
    return flag, body


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = load_config(None, {})
        assert (cfg.rho, cfg.cp, cfg.cs) == (1.0, 1.0, 0.5)
        assert (cfg.nx, cfg.ny, cfg.overlap_cells) == (80, 40, 4)
        assert cfg.delta == 0.1 and cfg.omega == 1.0
        assert cfg.k_max == pytest.approx(3.0 * cfg.omega / cfg.cs)
        medium = cfg.medium()
        assert medium.cp == pytest.approx(cfg.cp, rel=1e-12)
        assert medium.cs == pytest.approx(cfg.cs, rel=1e-12)

    def test_lame_parametrization(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("lame_lambda = 2.0\nlame_mu = 1.0\nrho = 4.0\n")
        cfg = load_config(path, {})
        assert cfg.medium_given == "lame"
        assert cfg.cp == pytest.approx(1.0, rel=1e-12)
        assert cfg.cs == pytest.approx(0.5, rel=1e-12)

    def test_both_parametrizations_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("lame_lambda = 2.0\nlame_mu = 1.0\ncp = 1.0\n")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path, {})

    def test_speed_ordering_rejected(self):
        with pytest.raises(ConfigError, match="material"):
            load_config(None, {"cp": 0.4, "cs": 0.5})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path, {})
        with pytest.raises(ConfigError, match="unknown configuration field 'bogus'"):
            load_config(None, {"bogus": 1})

    def test_field_validation_names_field(self):
        with pytest.raises(ConfigError, match="omega"):
            load_config(None, {"omega": -1.0})
        with pytest.raises(ConfigError, match="overlap_cells"):
            load_config(None, {"overlap_cells": 3})

    def test_header_round_trips_through_parser(self):
        cfg = load_config(None, {"omega": 5.0, "seed": 99})
        parsed = parse_kv_lines(config_header(cfg, "sweep"))
        cfg2 = load_config(None, parsed)
        assert cfg2 == cfg

    @given(
        omega=st.floats(0.1, 20.0), delta=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**31), restart=st.none() | st.integers(1, 50),
        single_domain=st.booleans(), tol=st.floats(1e-12, 1e-2),
        lame=st.none() | st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        speeds=st.tuples(st.floats(0.1, 5.0), st.floats(1.5, 4.0)),
        k_count=st.integers(2, 1000), noise=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_header_round_trip_property(
        self, omega, delta, seed, restart, single_domain, tol, lame, speeds,
        k_count, noise,
    ):
        given_keys = {
            "omega": omega, "delta": delta, "seed": seed, "restart": restart,
            "single_domain": single_domain, "tol": tol, "k_count": k_count,
            "noise": noise,
        }
        if lame is None:
            cs, ratio = speeds
            given_keys.update(cp=ratio * cs, cs=cs)
        else:
            given_keys.update(lame_lambda=lame[0], lame_mu=lame[1])
        cfg = load_config(None, given_keys)
        for command in ("sweep", "gmres"):
            parsed = parse_kv_lines(f"# {line}" for line in config_header(cfg, command))
            assert load_config(None, parsed) == cfg

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--omega", "inf"], "omega"),
        (["sweep", "--k-max", "inf"], "k_max"),
        (["sweep", "--omega", "1e300"], "omega"),
        (["sweep", "--k-max", "1e300"], "k_max"),
        (["verify", "--omega", "inf"], "omega"),
        (["modesim", "--omega", "inf"], "omega"),
    ])
    def test_nonfinite_or_overflowing_value_exits_2(
        self, tmp_path, capsys, argv, field
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"field {field}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["cp", "cs", "rho"])
    def test_nonfinite_config_file_value_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "cfg"
        path.write_text(f"{key} = inf\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", str(path), "--out", out]) == 2
        assert f"field {key}: must be finite, got inf" in capsys.readouterr().err

    @given(
        key=st.sampled_from([key for key, kind in _KEY_TYPES.items() if kind is float]),
        value=st.sampled_from(["inf", "-inf", "nan", "1e300", "-1e300"]),
        command=st.sampled_from(["sweep", "verify", "modesim"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_extreme_float_value_fails_loudly_property(self, key, value, command):
        # an extreme value in one float key either runs, or exits 2 or 3
        # with a message; it never writes a non-finite value it does not flag
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "cfg"), os.path.join(tmp, "out")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{key} = {value}\n")
            assert main([command, "--config", path, "--out", out]) in (0, 2, 3)
            for name in os.listdir(out) if os.path.isdir(out) else []:
                text = read(os.path.join(out, name)).decode()
                if "nonfinite_at=" in text:
                    continue
                assert "NaN" not in text and "Infinity" not in text
                for line in text.splitlines():
                    if not line.startswith("#"):
                        assert not {"nan", "inf", "-inf"} & set(line.split(","))

    def test_comment_lines_ignored(self):
        parsed = parse_kv_lines(["# just a note", "", "omega = 2.0"])
        assert parsed == {"omega": 2.0}

    @pytest.mark.parametrize(
        "text, message",
        [("single_domain = maybe\n", "field single_domain: cannot parse value 'maybe'"),
         ("nx = abc\n", "field nx: cannot parse value 'abc'"),
         ("omega = 2.0\nnx 40\n", "line 2: expected key=value")],
        ids=["bool", "int", "no-equals"],
    )
    def test_bad_config_line_names_it(self, tmp_path, text, message):
        path = tmp_path / "cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path, {})


class TestParser:
    def test_help_lists_every_command_with_its_help_line(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (_, help_text) in _COMMANDS.items():
            assert any(line.split() == [name] + help_text.split() for line in lines)
        assert set(_COMMANDS) == {"sweep", "verify", "modesim", "schwarz", "spectrum", "gmres"}

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bogus", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_flags_are_shared_by_every_command(self, tmp_path):
        # one parser: a flag parses before the command as well as after it
        before = main(["--k-count", "7", "sweep", "--out", str(tmp_path / "a")])
        after = main(["sweep", "--k-count", "7", "--out", str(tmp_path / "b")])
        assert before == after == 0
        assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")

    def test_parser_is_built_once_and_keeps_no_values(self, tmp_path):
        # one parser per process: a flag of one call does not reach the next
        assert _build_parser() is _build_parser()
        runs = ((["--single-domain", "--k-count", "7"], "true"), ([], "false"))
        for flags, value in runs:
            out = tmp_path / value
            assert main(["sweep", "--out", str(out)] + flags) == 0
            header = header_only(out / "sweep.csv")
            assert f"# single_domain={value}" in header
            assert ("# k_count=7" in header) == bool(flags)

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        # exit 2, not the 4 of this mesh's memory budget: --out comes first
        ["spectrum", "--nx", "8", "--ny", "4000"],
    ])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_out_exits_2_before_any_work(self, tmp_path, capsys, argv, below):
        # --out names an existing file, or a directory below one
        blocker = tmp_path / "afile"
        blocker.write_bytes(b"kept\n")
        out = blocker / below
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out) in err
        assert read(blocker) == b"kept\n"


class TestGeometryValidation:
    @pytest.mark.parametrize("argv, config, field", [
        (["schwarz", "--nx", "0"], "", "nx/ny"),
        (["schwarz", "--ny", "0"], "", "nx/ny"),
        (["schwarz"], "x_min = 1.0\nx_max = 1.0\n", "x_min/x_max"),
        (["schwarz"], "y_min = 0.5\ny_max = 0.5\n", "y_min/y_max"),
        (["schwarz", "--nx", "40000", "--ny", "30000"], "", "nx/ny"),
        (["schwarz", "--nx", "21"], "", "x_range/nx"),
        (["schwarz", "--overlap-cells", "3"], "", "overlap_cells"),
        (["schwarz", "--overlap-cells", "80"], "", "overlap_cells"),
        (["schwarz", "--single-domain", "--overlap-cells", "3"], "", "overlap_cells"),
        (["sweep", "--ny", "1"], "", "nx/ny"),
        (["schwarz", "--nx", "8", "--ny", "1"], "", "nx/ny"),
        (["spectrum", "--nx", "8", "--ny", "1"], "", "nx/ny"),
        (["gmres", "--nx", "8", "--ny", "1"], "", "nx/ny"),
        (["schwarz", "--nx", "8", "--ny", "1", "--single-domain"], "", "nx/ny"),
        (["spectrum", "--nx", "8", "--ny", "1", "--single-domain"], "", "nx/ny"),
        (["gmres", "--nx", "8", "--ny", "1", "--single-domain"], "", "nx/ny"),
    ])
    def test_bad_geometry_exits_2_naming_the_field(
        self, tmp_path, capsys, argv, config, field
    ):
        path = tmp_path / "geometry.cfg"
        path.write_text(config)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: field {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["schwarz", "spectrum", "gmres"])
    @pytest.mark.parametrize("geometry", [
        ["--nx", "2", "--ny", "2", "--single-domain"],
        ["--nx", "4", "--ny", "2", "--overlap-cells", "2"],
    ])
    def test_smallest_meshes_with_an_interior_node_run(self, tmp_path, command, geometry):
        assert main([command, *geometry, "--n-iter", "2", "--out", str(tmp_path)]) == 0


class TestSweepCommand:
    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--k-count", "50"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")

    def test_header_reproduces_run(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "a"), "--omega", "5",
                     "--k-count", "40"]) == 0
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text("\n".join(header_only(tmp_path / "a" / "sweep.csv")))
        assert main(["sweep", "--config", str(cfg_file),
                     "--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")

    def test_zero_overlap_gives_flat_curves(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), "--delta", "0",
                     "--k-count", "30"]) == 0
        rows = [line.split(",") for line in
                read(tmp_path / "sweep.csv").decode().splitlines()
                if not (line.startswith("#") or line.startswith("k,"))]
        for row in rows:
            assert abs(float(row[1]) - 1.0) <= 1e-12
            assert abs(float(row[2]) - 1.0) <= 1e-12

    def test_huge_wavenumbers_are_not_degenerate(self, tmp_path):
        # k^2 - lambda1*lambda2 by subtraction gave exactly 0 at k = 1.35e8
        assert main(["sweep", "--out", str(tmp_path), "--delta", "0",
                     "--k-max", "1e9"]) == 0
        rows = [line.split(",") for line in
                read(tmp_path / "sweep.csv").decode().splitlines()
                if not (line.startswith("#") or line.startswith("k,"))]
        assert len(rows) == 601
        assert all(float(row[3]) == 1.0 for row in rows)

    def test_zone_column_is_classify_zone(self, tmp_path, medium):
        # the default grid's step of 0.01 puts both cut-offs on it at omega 1
        assert main(["sweep", "--out", str(tmp_path), "--omega", "1"]) == 0
        from elastic_schwarz.analysis import classify_zone

        rows = [line.split(",") for line in
                read(tmp_path / "sweep.csv").decode().splitlines()
                if not (line.startswith("#") or line.startswith("k,"))]
        ks = [float(row[0]) for row in rows]
        assert {1.0, 2.0} <= set(ks)
        for k, row in zip(ks, rows):
            assert row[4] == classify_zone(medium, 1.0, k).value
            assert (row[4] == "boundary") == (k in (1.0, 2.0))

    def test_bad_config_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), "--omega", "-1"]) == 2
        assert "omega" in capsys.readouterr().err


class TestVerifyCommand:
    def test_default_battery_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "verify_report.json"))
        assert report["all_passed"]
        names = {check["name"] for check in report["checks"]}
        assert "zero_overlap_stagnation" in names
        assert "closed_form_vs_oracle_eigenvalues" in names
        assert "asymptotic_slope_vs_finite_difference" in names
        for check in report["checks"]:
            assert check["max_deviation"] <= check["tolerance"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_pressure_speed_fails_only_the_finite_differences(self, tmp_path):
        # cp**4 overflowed in asymptotic_slope (exit 1); now the battery
        # runs, and only the two finite-difference checks fail: rho - 1 is
        # linear in delta only at k ~ omega/cp = 1e-150, so on the band
        # grids the first-order term reads about 1e-300
        path = tmp_path / "cfg"
        path.write_text("cp = 1e150\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 5
        report = strict_json(read(out / "verify_report.json"))
        failed = {check["name"] for check in report["checks"] if not check["passed"]}
        assert failed == {
            "asymptotic_slope_vs_finite_difference",
            "first_order_rho_vs_finite_difference",
        }

    def test_nonfinite_deviation_is_null_and_fails(self, tmp_path, monkeypatch, capsys):
        from elastic_schwarz import analysis

        monkeypatch.setattr(analysis, "first_order_coefficient",
                            lambda medium, omega, ks: np.full(ks.shape, np.nan))
        assert main(["verify", "--out", str(tmp_path)]) == 5
        report = strict_json(read(tmp_path / "verify_report.json"))
        check, = (c for c in report["checks"]
                  if c["name"] == "first_order_rho_vs_finite_difference")
        assert check["max_deviation"] is None and not check["passed"]
        assert ("FAIL first_order_rho_vs_finite_difference: max deviation not finite"
                in capsys.readouterr().out)

    def test_zero_overlap_draws_are_the_scalar_loop(self, monkeypatch):
        """The zero-overlap check draws the 100 points the former per-medium
        loop drew, and its one array call equals 100 scalar calls bit for
        bit."""
        from elastic_schwarz import analysis
        from elastic_schwarz.analysis import ElasticMedium, Zone, classify_zone
        from elastic_schwarz.cli import run_verification

        cfg = load_config(None, {"omega": 5.0})
        rng = np.random.default_rng(cfg.seed)
        loop = []
        for _ in range(100):  # the former loop's draws, in its order
            m = ElasticMedium(
                rho=float(rng.uniform(0.1, 10.0)),
                lame_lambda=float(rng.uniform(0.1, 10.0)),
                lame_mu=float(rng.uniform(0.1, 10.0)),
            )
            w = float(rng.uniform(0.1, 10.0))
            loop.append((m, w, float(rng.uniform(0.0, 3.0 * w / m.cs))))

        calls = []
        closed_form = analysis.eigenvalues_closed_form

        def spy(medium, omega, k, delta):
            calls.append((medium, omega, k, delta))
            return closed_form(medium, omega, k, delta)

        monkeypatch.setattr(analysis, "eigenvalues_closed_form", spy)
        run_verification(cfg)
        media, w, k, delta = calls[0]
        assert delta == 0.0 and w.shape == k.shape == media.cs.shape == (100,)
        plus, minus = closed_form(media, w, k, delta)
        zones = classify_zone(media, w, k)
        assert {Zone.STAGNANT, Zone.DIVERGENT, Zone.CONTRACTIVE} <= set(zones)
        for i, (m, wi, ki) in enumerate(loop):
            for name in ("rho", "lame_lambda", "lame_mu", "cp", "cs"):
                assert type(getattr(m, name)) is float
                assert getattr(media, name)[i] == getattr(m, name)
            assert (w[i], k[i]) == (wi, ki)
            r_plus, r_minus = closed_form(m, wi, ki, 0.0)
            assert type(r_plus) is complex
            assert np.asarray(r_plus).tobytes() == plus[i].tobytes()
            assert np.asarray(r_minus).tobytes() == minus[i].tobytes()
            assert classify_zone(m, wi, ki) is zones[i]

    def test_zero_overlap_config_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path), "--delta", "0"]) == 0
        report = json.loads(read(tmp_path / "verify_report.json"))
        assert report["all_passed"]
        names = {check["name"] for check in report["checks"]}
        assert "zone_degenerate_no_overlap" in names


class TestModesimCommand:
    def test_oracle_table(self, tmp_path):
        assert main(["modesim", "--out", str(tmp_path), "--k-count", "12",
                     "--k-min", "0.3", "--k-max", "5.0"]) == 0
        lines = read(tmp_path / "modesim.csv").decode().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == "k,rho_closed,rho_numeric,eig_deviation,power_growth"
        for line in body[1:]:
            fields = line.split(",")
            assert float(fields[3]) <= 1e-10
            assert float(fields[1]) == pytest.approx(float(fields[2]), rel=1e-9)


class TestErrorMapping:
    def test_degenerate_mode_exits_3(self, tmp_path, monkeypatch, capsys):
        from elastic_schwarz import analysis

        monkeypatch.setattr(analysis, "_ROOT_PRODUCT_GUARD", 1e300)
        assert main(["sweep", "--out", str(tmp_path), "--k-count", "5"]) == 3
        assert "solver error: degenerate mode" in capsys.readouterr().err

    def test_singular_basis_exits_3(self, tmp_path, monkeypatch, capsys):
        from elastic_schwarz import modesim

        monkeypatch.setattr(modesim, "_DET_GUARD", np.inf)
        assert main(["modesim", "--out", str(tmp_path), "--k-count", "5"]) == 3
        assert "numerically singular" in capsys.readouterr().err

    def test_wrong_subdomain_factor_exits_3(
        self, tmp_path, monkeypatch, capsys, wrong_factor
    ):
        from elastic_schwarz import schwarz

        monkeypatch.setattr(schwarz, "splu", wrong_factor(1e-6))
        assert main(["schwarz", "--out", str(tmp_path), "--nx", "40", "--ny", "20"]) == 3
        assert "solver error: direct solve residual" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["schwarz", "gmres"])
    def test_factor_over_budget_exits_4(
        self, tmp_path, monkeypatch, capsys, factor_calls, command
    ):
        from elastic_schwarz import schwarz

        monkeypatch.setattr(schwarz, "MEMORY_BUDGET_BYTES", 1024)
        assert main([command, "--out", str(tmp_path), "--nx", "40", "--ny", "20"]) == 4
        assert "budget exceeded: the subdomain LU factors" in capsys.readouterr().err
        assert factor_calls == []
        assert os.listdir(tmp_path) == []

    def test_other_errors_are_not_solver_errors(self, tmp_path, monkeypatch):
        from elastic_schwarz import analysis

        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(analysis, "sweep", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["sweep", "--out", str(tmp_path)])


class TestSchwarzCommand:
    def test_zero_initial_guess_stays_zero(self, tmp_path):
        assert main(["schwarz", "--out", str(tmp_path), "--nx", "20", "--ny", "10",
                     "--initial-error", "0", "--n-iter", "4"]) == 0
        lines = read(tmp_path / "schwarz_history.csv").decode().splitlines()
        body = [line for line in lines if not (line.startswith("#") or
                                               line.startswith("iter,"))]
        assert len(body) == 5
        for line in body:
            assert float(line.split(",")[1]) == 0.0
            # a zero trace has no dominant mode, as without a midline
            assert line.split(",")[3] == "0"

    def test_deterministic_artifacts(self, tmp_path):
        args = ["schwarz", "--nx", "20", "--ny", "10", "--n-iter", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("schwarz_history.csv", "schwarz_final.csv", "schwarz_final.bin"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)

    def test_off_grid_midline_exits_2(self, tmp_path, capsys):
        code = main(["schwarz", "--out", str(tmp_path), "--nx", "21", "--ny", "10"])
        assert code == 2
        assert "midline" in capsys.readouterr().err

    def test_mesh_past_int32_dofs_exits_2(self, tmp_path, capsys):
        # 2.4e9 dofs: the configuration check refuses them before any work
        out = tmp_path / "big"
        code = main(["schwarz", "--out", str(out), "--nx", "40000", "--ny", "30000"])
        assert code == 2
        assert "field nx/ny: nx=40000, ny=30000" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_iterate_exits_6(self, tmp_path, capsys):
        # at omega=5 the iterate grows ~7.7x per double sweep: from 1e300 it
        # overflows within the 25 sweeps
        assert main(["schwarz", "--out", str(tmp_path), "--nx", "40", "--ny", "20",
                     "--omega", "5", "--initial-error", "1e300"]) == 6
        assert "non-finite" in capsys.readouterr().err
        path = tmp_path / "schwarz_history.csv"
        lines = read(path).decode().splitlines()
        flag = [line for line in lines if line.startswith("# nonfinite_at=")]
        assert len(flag) == 1
        body = [line.split(",") for line in lines
                if not line.startswith(("#", "iter,"))]
        assert 0 < len(body) == int(flag[0].split("=")[1]) < 26
        values = np.array([[float(v) for v in row] for row in body])
        assert np.isfinite(values).all()
        # the flag line does not break the header round trip
        assert "nonfinite_at" not in parse_kv_lines(header_only(path))
        from elastic_schwarz.fem import read_solution_binary

        _, table = read_solution_binary(tmp_path / "schwarz_final.bin")
        assert np.isfinite(table).all()

    def test_huge_initial_error_stops_at_row_0(self, tmp_path, capsys):
        # a start of modulus 1e308 is finite, but the sine transform of its
        # midline trace overflows to inf - inf: the record is not finite, and
        # computing it warns nothing (tier-1 makes RuntimeWarning an error)
        assert main(["schwarz", "--out", str(tmp_path), "--nx", "40", "--ny", "20",
                     "--omega", "5", "--initial-error", "1e308"]) == 6
        assert capsys.readouterr().err == (
            "schwarz_history: non-finite iterate 0; history stops before it\n")
        lines = read(tmp_path / "schwarz_history.csv").decode().splitlines()
        assert lines[-2:] == ["# nonfinite_at=0", "iter,err_max,err_l2,dominant_mode_j"]

    def test_finite_run_carries_no_flag(self, tmp_path):
        assert main(["schwarz", "--out", str(tmp_path), "--nx", "20", "--ny", "10",
                     "--omega", "5", "--n-iter", "5"]) == 0
        assert "nonfinite" not in read(tmp_path / "schwarz_history.csv").decode()

    def test_writes_field_artifacts(self, tmp_path):
        assert main(["schwarz", "--out", str(tmp_path), "--nx", "20", "--ny", "10",
                     "--n-iter", "2"]) == 0
        from elastic_schwarz.fem import read_solution_binary

        meta, table = read_solution_binary(tmp_path / "schwarz_final.bin")
        assert meta["nx"] == 20 and meta["ny"] == 10
        csv_lines = read(tmp_path / "schwarz_final.csv").decode().splitlines()
        data = [line for line in csv_lines if not line.startswith(("#", "node"))]
        assert len(data) == meta["n_nodes"] == table.shape[0]


class TestSpectrumCommand:
    def test_single_domain_flag_gives_unit_spectrum(self, tmp_path):
        assert main(["spectrum", "--out", str(tmp_path), "--nx", "12", "--ny", "6",
                     "--single-domain"]) == 0
        rows = [line.split(",") for line in
                read(tmp_path / "spectrum.csv").decode().splitlines()
                if not line.startswith(("#", "re,"))]
        eigs = np.array([[float(a), float(b)] for a, b in rows])
        assert np.abs(eigs[:, 0] - 1.0).max() < 1e-8
        assert np.abs(eigs[:, 1]).max() < 1e-8

    def test_budget_exceeded_exits_4(self, tmp_path, capsys):
        # 15,996 interface unknowns: the interface eigenproblem alone needs
        # about 3.8 GiB
        assert main(["spectrum", "--out", str(tmp_path),
                     "--nx", "8", "--ny", "4000"]) == 4
        assert "coarser" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_interface_reduced_spectrum_fits_160x60(self, tmp_path):
        # 18,762 free unknowns; the dense n x n operator does not fit in memory
        assert main(["spectrum", "--out", str(tmp_path),
                     "--nx", "160", "--ny", "60"]) == 0
        lines = read(tmp_path / "spectrum.csv").decode().splitlines()
        body = [line for line in lines if not line.startswith(("#", "re,"))]
        assert len(body) == 2 * 159 * 59


class TestSolverSetup:
    @pytest.mark.parametrize("command", ["schwarz", "spectrum", "gmres"])
    @pytest.mark.parametrize("split", [[], ["--single-domain"]], ids=["two", "single"])
    def test_identity_system_assembles_nothing(self, tmp_path, monkeypatch, command, split):
        def refuse(*args, **kwargs):
            raise AssertionError("the identity system was assembled")

        built = []
        build_mesh = fem.build_mesh
        monkeypatch.setattr(fem, "assemble", refuse)
        monkeypatch.setattr(fem, "build_mesh", lambda *a: built.append(a) or build_mesh(*a))
        assert main([command, "--out", str(tmp_path), "--nx", "12", "--ny", "6",
                     "--identity-system"] + split) == 0
        assert len(built) == 1


class TestGmresCommand:
    def test_identity_flag_converges_immediately(self, tmp_path):
        assert main(["gmres", "--out", str(tmp_path), "--nx", "12", "--ny", "6",
                     "--identity-system", "--single-domain"]) == 0
        lines = read(tmp_path / "gmres_history.csv").decode().splitlines()
        assert "# converged=true" in lines
        body = [line for line in lines if not (line.startswith("#") or
                                               line.startswith("iter,"))]
        assert len(body) == 2  # start plus one iteration

    def test_nonfinite_stationary_ras_exits_6(self, tmp_path):
        # from 1e150 the RAS residual grows ~3.3x per step and passes the
        # largest double after about 300 steps; GMRES converges first
        config = tmp_path / "long.cfg"
        config.write_text("stationary_iters = 400\n")
        assert main(["gmres", "--config", str(config), "--out", str(tmp_path),
                     "--nx", "40", "--ny", "20", "--omega", "5",
                     "--initial-error", "1e150"]) == 6
        flag, body = flagged_history(tmp_path / "ras_history.csv")
        assert len(flag) == 1 and 51 < len(body) == int(flag[0].split("=")[1]) < 401
        assert "# converged=true" in read(tmp_path / "gmres_history.csv").decode()

    def test_large_finite_residuals_are_recorded(self, tmp_path):
        # residual norms near 1e180 have squares past the largest double
        assert main(["gmres", "--out", str(tmp_path), "--nx", "40", "--ny", "20",
                     "--omega", "5", "--initial-error", "1e150"]) == 0
        flag, body = flagged_history(tmp_path / "ras_history.csv")
        assert not flag and len(body) == 51

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_gmres_exits_6(self, tmp_path, capsys, monkeypatch, poisoned_solve):
        # the subdomain solves break down after the load and three Krylov steps
        from elastic_schwarz import schwarz

        monkeypatch.setattr(schwarz, "RestrictedSolve", poisoned_solve(4))
        start = time.perf_counter()
        assert main(["gmres", "--out", str(tmp_path), "--nx", "40", "--ny", "20",
                     "--omega", "5"]) == 6
        assert time.perf_counter() - start < 10.0
        assert "gmres_history: non-finite" in capsys.readouterr().err
        flag, body = flagged_history(tmp_path / "gmres_history.csv")
        assert len(flag) == 1 and 0 < len(body) == int(flag[0].split("=")[1])
        assert "# converged=false" in read(tmp_path / "gmres_history.csv").decode()

    def test_huge_finite_load_is_not_flagged(self, tmp_path):
        # the preconditioned load norm, about 4e301, is finite but its
        # squares are not; the stationary RAS residual may still overflow
        runs, codes = {}, {}
        for scale in ("1", "1e300"):
            out = tmp_path / scale
            codes[scale] = main(["gmres", "--out", str(out), "--nx", "40", "--ny", "20",
                                 "--omega", "5", "--initial-error", scale])
            runs[scale] = flagged_history(out / "gmres_history.csv")
        assert codes["1"] == 0
        flag, body = runs["1e300"]
        assert not flag and len(body) == len(runs["1"][1])
        assert "# converged=true" in read(tmp_path / "1e300" / "gmres_history.csv").decode()

    def test_nonfinite_initial_residual_flags_row_0(self, tmp_path):
        assert main(["gmres", "--out", str(tmp_path), "--nx", "40", "--ny", "20",
                     "--omega", "5", "--initial-error", "1e308"]) == 6
        for name in ("gmres_history.csv", "ras_history.csv"):
            flag, body = flagged_history(tmp_path / name)
            assert flag == ["# nonfinite_at=0"] and not body

    def test_histories_written(self, tmp_path):
        assert main(["gmres", "--out", str(tmp_path), "--nx", "20", "--ny", "10"]) == 0
        for name in ("gmres_history.csv", "ras_history.csv"):
            lines = read(tmp_path / name).decode().splitlines()
            body = [line for line in lines if not (line.startswith("#") or
                                                   line.startswith("iter,"))]
            assert float(body[0].split(",")[1]) == 1.0
