import csv
import json
import math

import numpy as np
import pytest

from swapsim import DensityMatrix, validate, validate_config
from swapsim.experiment import SpdcSource, normalized_success, spdc_input
from swapsim.metrics import concurrence_closed_form
from swapsim.protocol import MAX_ENTANGLED_PAIR, success_probability
from swapsim.recipes import RECIPES, run, run_oracle_draws

DEFAULT_GRIDS = {name: recipe.grids for name, recipe in RECIPES.items()}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestOracleDraws:
    def test_draws_pass_tolerances(self):
        result = run_oracle_draws(100, seed=5)
        assert result.ok
        assert [len(column) for column in result.columns.values()] == [100] * 7
        # plain Python values, never numpy scalars
        assert {type(x) for column in result.columns.values() for x in column} == {int, float}
        assert result.summary["max_dev_rho"] < 1e-12
        assert result.summary["max_dev_norm"] < 1e-12
        assert result.summary["max_dev_concurrence"] < 1e-10

    def test_deterministic_given_seed(self):
        a = run_oracle_draws(20, seed=9).columns
        b = run_oracle_draws(20, seed=9).columns
        assert a == b


class TestRecipeOutputs:
    def test_every_recipe_runs_and_matches_column_contract(self, tmp_path):
        docs = {
            "concurrence-surface": "t1 = 0.3, 0.9\nt2 = linspace(0.1, 1, 5)\n",
            "concurrence-slices": "t1 = 0.3, 1.0\nt2 = linspace(0, 1, 6)\n",
            "theta-fringes": "xi = 0.1\ncounts = 1000\n",
            "scaling-balanced": "t = logspace(1e-3, 1, 6)\nxi = 0.05\n",
            "imbalance-restore": "t1 = 1.0\nt2 = 0.2, 1.0\nxi = 0.05\nepsilon = 0.01\n",
            "oracle-check": "draws = 20\n",
        }
        contracts = {
            "concurrence-surface": ["t1", "t2", "concurrence"],
            "concurrence-slices": ["t1", "t2", "concurrence", "visibility",
                                   "p_success"],
            "theta-fringes": ["setting", "theta_rad", "outcome_sign",
                              "probability", "expected_counts", "counts"],
            "scaling-balanced": ["t", "t1", "p_success", "p_normalized"],
            "imbalance-restore": ["t1", "t2", "strategy", "visibility",
                                  "concurrence", "bell_fidelity", "p_success",
                                  "p_normalized"],
            "oracle-check": ["draw", "t1", "t2", "sign", "max_dev_rho",
                             "dev_norm", "dev_concurrence"],
        }
        for name in RECIPES:
            cfg = validate_config(f"experiment = {name}\nseed = 4\n" + docs[name])
            report = run(cfg, out_dir=tmp_path / name)
            assert report.ok, name
            rows = read_rows(report.csv_path)
            assert rows[0] == contracts[name], name
            assert len(rows) > 1
            # the writer does not quote, so every line splits into its fields
            for path in (report.csv_path, *report.extra_files):
                lines = path.read_text().splitlines()
                width = len(lines[0].split(","))
                assert all(len(line.split(",")) == width for line in lines), path

    def test_csv_is_byte_identical_across_runs(self, tmp_path):
        cfg = validate_config(
            "experiment = theta-fringes\nseed = 11\nxi = 0.1\ncounts = 2000\n"
        )
        r1 = run(cfg, out_dir=tmp_path / "a")
        r2 = run(cfg, out_dir=tmp_path / "b")
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        for p1, p2 in zip(r1.extra_files, r2.extra_files):
            assert p1.read_bytes() == p2.read_bytes()

    def test_default_grids_complete_within_budget(self, tmp_path):
        import time

        for name in RECIPES:
            cfg = validate_config(f"experiment = {name}\n")
            started = time.monotonic()
            report = run(cfg, out_dir=tmp_path / name)
            elapsed = time.monotonic() - started
            assert report.ok, name
            assert elapsed < 60.0, (name, elapsed)

    def test_normalize_flag_drops_column(self, tmp_path):
        cfg = validate_config(
            "experiment = scaling-balanced\nnormalize = false\n"
            "t = 0.01, 0.1\nxi = 0.05\n"
        )
        report = run(cfg, out_dir=tmp_path)
        rows = read_rows(report.csv_path)
        assert rows[0] == ["t", "t1", "p_success"]

    def test_meta_sidecar_contents(self, tmp_path):
        cfg = validate_config("experiment = oracle-check\ndraws = 10\nseed = 6\n")
        report = run(cfg, out_dir=tmp_path)
        meta = json.loads(report.meta_path.read_text())
        assert meta["experiment"] == "oracle-check"
        assert meta["config"]["seed"] == 6
        assert meta["config"]["draws"] == 10
        assert "library_version" in meta
        assert meta["wall_time_s"] >= 0.0
        assert meta["files"][0] == "oracle-check.csv"

    def test_dump_state_is_loadable_and_valid(self, tmp_path):
        cfg = validate_config("experiment = oracle-check\ndraws = 5\n")
        run(cfg, out_dir=tmp_path, dump_state=tmp_path / "state.json")
        data = json.loads((tmp_path / "state.json").read_text())
        rho = DensityMatrix.from_json_dict(data)
        assert rho.labels == ("A", "B")
        assert validate(rho).passed

    def test_out_dir_from_config(self, tmp_path):
        cfg = validate_config(
            f"experiment = oracle-check\ndraws = 5\nout = {tmp_path / 'sub'}\n"
        )
        report = run(cfg)
        assert report.csv_path.parent == tmp_path / "sub"
        assert report.csv_path.exists()


class TestRecipePhysics:
    def test_scaling_summary_slope_is_one(self, tmp_path):
        cfg = validate_config(
            "experiment = scaling-balanced\nt = logspace(1e-3, 1e-1, 12)\nxi = 0.05\n"
        )
        report = run(cfg, out_dir=tmp_path)
        assert report.summary["slope_loglog"] == pytest.approx(1.0, abs=0.02)

    def test_imbalance_restoration_rows(self, tmp_path):
        cfg = validate_config(
            "experiment = imbalance-restore\nt1 = 1.0\nt2 = 0.2\n"
            "xi = 0.05\nepsilon = 0.01\n"
        )
        report = run(cfg, out_dir=tmp_path)
        rows = read_rows(report.csv_path)
        header, data = rows[0], rows[1:]
        by_strategy = {row[header.index("strategy")]: row for row in data}
        v_equal = float(by_strategy["equal"][header.index("visibility")])
        v_opt = float(by_strategy["optimal"][header.index("visibility")])
        assert v_equal == pytest.approx(0.3846, abs=1e-3)
        assert v_opt > 0.999
        p_opt = float(by_strategy["optimal"][header.index("p_normalized")])
        assert p_opt == pytest.approx(2 * 0.04 / 1.04, abs=1e-3)

    def test_fringe_files_and_flat_z_setting(self, tmp_path):
        cfg = validate_config(
            "experiment = theta-fringes\nseed = 21\nxi = 0.1\ncounts = 50000\n"
        )
        report = run(cfg, out_dir=tmp_path)
        tags = {p.name for p in report.extra_files}
        assert tags == {f"counts_{t}_seed21.csv"
                        for t in ("Xp", "Xm", "Yp", "Ym", "Zp", "Zm")}
        fits = report.summary["fitted_visibility"]
        assert fits["Xp"]["v"] == pytest.approx(1.0, abs=0.05)
        assert abs(fits["Zp"]["v"]) <= 3.0 * fits["Zp"]["sigma"]

    def test_slices_visibility_column_tracks_formula(self, tmp_path):
        cfg = validate_config(
            "experiment = concurrence-slices\nt1 = 0.5\nt2 = 0.25, 0.5, 1.0\n"
        )
        report = run(cfg, out_dir=tmp_path)
        rows = read_rows(report.csv_path)
        for row in rows[1:]:
            t1, t2 = float(row[0]), float(row[1])
            expected = 2 * t1 * t2 / (t1 ** 2 + t2 ** 2)
            assert float(row[3]) == pytest.approx(expected, abs=1e-12)

    def test_array_recipes_match_the_per_point_closed_forms(self, tmp_path):
        # the recipes square t with x * x, the scalar closed forms with libm's
        # pow(x, 2.0), which is half an ulp off now and then (this scaling
        # grid holds one such t), so agreement is to a few ulp, not exact
        close = {"rel": 4 * np.finfo(float).eps, "abs": 0.0}
        cfg = validate_config("experiment = concurrence-surface\n"
                              "t1 = linspace(0.05, 1, 17)\nt2 = linspace(0, 1, 23)\n")
        rows = read_rows(run(cfg, out_dir=tmp_path / "surface").csv_path)[1:]
        assert len(rows) == 17 * 23
        for t1, t2, c in (map(float, row) for row in rows):
            want = concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2)
            assert c == pytest.approx(want, **close)

        cfg = validate_config("experiment = scaling-balanced\n"
                              "t = logspace(1e-9, 1, 301)\nxi = 0.2\n")
        rows = read_rows(run(cfg, out_dir=tmp_path / "scaling").csv_path)[1:]
        pair = spdc_input(SpdcSource(0.2), SpdcSource(0.2))
        assert len(rows) == 301
        for t, root, p, p_norm in (map(float, row) for row in rows):
            assert root == math.sqrt(t)
            assert p == pytest.approx(success_probability(pair, root, root), **close)
            assert p_norm == pytest.approx(normalized_success(pair, root, root), **close)


def test_default_grids_cover_every_recipe():
    assert set(DEFAULT_GRIDS) == set(RECIPES)
    for name, grids in DEFAULT_GRIDS.items():
        for key, grid in grids.items():
            assert len(grid) >= 1, (name, key)
