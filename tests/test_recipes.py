import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swapsim import protocol, recipes, validate, validate_config
from swapsim.experiment import SpdcSource, normalized_success, spdc_input, synth_counts
from swapsim.floatfmt import FLOATFMT_MIN
from swapsim.loss import LossChannel, dilate
from swapsim.metrics import (
    bell_fidelity,
    concurrence_closed_form,
    concurrence_wootters,
    visibility_analytic,
)
from swapsim.protocol import (
    MAX_ENTANGLED_PAIR,
    closed_form_rho,
    optimal_inputs,
    random_input_pair,
    success_probability,
    swap,
)
from swapsim.cli import main
from swapsim.recipes import (
    CHUNK,
    CSV_BLOCK,
    CSV_CHUNK,
    RECIPES,
    AxisColumn,
    _product,
    _write_csv,
    run,
    run_oracle_draws,
)

from oracles import X_BY_SIGN, from_json_dict, naive_values, naive_write_csv

DEFAULT_GRIDS = {name: recipe.grids for name, recipe in RECIPES.items()}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_same_columns(got, want):
    """The same header names in order, each ``got`` column a numpy array
    equal value for value to ``want``'s."""
    assert list(got) == list(want)
    for name, column in got.items():
        assert isinstance(column, np.ndarray), name
        assert np.array_equal(column, want[name]), name


class TestOracleDraws:
    def test_draws_pass_tolerances(self):
        result = run_oracle_draws(100, seed=5)
        assert result.ok
        assert [len(column) for column in result.columns.values()] == [100] * 7
        # numpy arrays, never Python lists: the writer takes no list column
        assert [column.dtype for column in result.columns.values()] == [
            np.int64, np.float64, np.float64, np.int64, np.float64, np.float64, np.float64]
        assert result.summary["max_dev_rho"] < 1e-12
        assert result.summary["max_dev_norm"] < 1e-12
        assert result.summary["max_dev_concurrence"] < 1e-10

    def test_deterministic_given_seed(self):
        a = run_oracle_draws(20, seed=9).columns
        b = run_oracle_draws(20, seed=9).columns
        assert_same_columns(a, b)

    @staticmethod
    def per_draw_reference(draws, seed):
        """The oracle's columns, one draw and one Wootters call at a time.

        Each swap gets a pair of its own, so no swap reads a ket or a
        dilation another one made.
        """
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(draws):
            pair = random_input_pair(rng)
            t1, t2 = rng.uniform(0.05, 1.0, size=2).tolist()
            sign = +1 if rng.integers(0, 2) == 0 else -1
            brute = swap(dataclasses.replace(pair), t1, t2, X_BY_SIGN[sign])
            other = swap(dataclasses.replace(pair), t1, t2, X_BY_SIGN[-sign])
            rho_cf, norm = closed_form_rho(pair, t1, t2, sign)
            rows.append((i, t1, t2, sign, float(np.max(np.abs(brute.rho_ab.entries - rho_cf))),
                         abs(brute.p_success + other.p_success - norm),
                         abs(concurrence_wootters(brute.rho_ab)
                             - concurrence_closed_form(pair, t1, t2))))
        names = ("draw", "t1", "t2", "sign", "max_dev_rho", "dev_norm", "dev_concurrence")
        return dict(zip(names, map(list, zip(*rows))))

    # exact equality: guards the per-chunk max_dev_rho and dev_concurrence
    @pytest.mark.parametrize("draws", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_chunked_draws_match_the_per_draw_reference(self, draws):
        for seed in (12, 31):
            columns = run_oracle_draws(draws, seed=seed).columns
            assert_same_columns(columns, self.per_draw_reference(draws, seed=seed))

    # every draw in blocks shorter than FLOATFMT_MIN; one block shorter than
    # CSV_CHUNK through floatfmt; one block of CSV_CHUNK + 1 rows through
    # floatfmt, written as one full chunk and one row
    @pytest.mark.parametrize("draws", [FLOATFMT_MIN - 1, 575, CSV_CHUNK + 1])
    def test_run_csv_matches_the_row_at_a_time_writer_on_the_reference(self, draws, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(f"experiment = oracle-check\ndraws = {draws}\nseed = 8\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        naive = io.StringIO()
        naive_write_csv(naive, self.per_draw_reference(draws, seed=8))
        got = (tmp_path / "out" / "oracle-check.csv").read_text(encoding="utf-8")
        _assert_same_lines(got, naive.getvalue())
        assert got.count("\n") == draws + 1

    def test_kept_kets_and_dilations_move_no_bit(self, monkeypatch):
        """A draw's second swap reuses the ket and dilations of its first;
        every outcome, and every column, has the bits of a run in which each
        swap builds its pair, channels and kets afresh."""
        outcomes = []

        def spy(pair, ch1, ch2, setting):
            outcome = swap(pair, ch1, ch2, setting)
            outcomes.append(((pair, ch1.t, ch2.t, setting), outcome))
            return outcome

        monkeypatch.setattr(recipes, "swap", spy)
        draws = 2 * CHUNK + 5
        columns = run_oracle_draws(draws, seed=16).columns
        assert len(outcomes) == 2 * draws
        for (pair, t1, t2, setting), kept in outcomes:
            fresh = swap(dataclasses.replace(pair), LossChannel(t1), LossChannel(t2), setting)
            assert kept.rho_ab.entries.tobytes() == fresh.rho_ab.entries.tobytes()
            assert kept.p_success == fresh.p_success
        assert_same_columns(columns, self.per_draw_reference(draws, seed=16))

    def test_two_swaps_and_four_dilations_per_draw(self, monkeypatch):
        per_draw = []  # one Counter per draw, opened by its random_input_pair call

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                if name == "random_input_pair":
                    per_draw.append(Counter())
                else:
                    per_draw[-1][name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(recipes, "random_input_pair")
        spy(recipes, "swap")
        spy(protocol, "dilate")
        run_oracle_draws(2 * CHUNK + 5, seed=14)
        assert per_draw == [Counter(swap=2, dilate=4)] * (2 * CHUNK + 5)

    def test_one_closed_form_call_of_each_per_chunk(self, monkeypatch):
        stacks = Counter()  # (name, stack length) -> calls

        def spy(name):
            real = getattr(recipes, name)

            def wrapper(pair, *args):
                stacks[name, len(pair) if isinstance(pair, list) else None] += 1
                return real(pair, *args)
            monkeypatch.setattr(recipes, name, wrapper)

        for name in ("closed_form_rho", "concurrence_closed_form", "swap"):
            spy(name)
        draws = 2 * CHUNK + 5
        run_oracle_draws(draws, seed=15)
        assert stacks == {("closed_form_rho", CHUNK): 2, ("closed_form_rho", 5): 1,
                          ("concurrence_closed_form", CHUNK): 2,
                          ("concurrence_closed_form", 5): 1, ("swap", None): 2 * draws}

    def test_one_stacked_wootters_call_per_chunk(self, monkeypatch):
        stacks = []

        def spy(rho):
            stacks.append(np.array(rho))
            return concurrence_wootters(rho)

        monkeypatch.setattr(recipes, "concurrence_wootters", spy)
        run_oracle_draws(2 * CHUNK + 5, seed=13)
        assert [len(stack) for stack in stacks] == [CHUNK, CHUNK, 5]
        for stack in stacks:
            assert concurrence_wootters(stack).tolist() == [
                concurrence_wootters(rho) for rho in stack]


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
        assert sorted(meta["timings_s"]) == ["compute", "format", "write"]
        for seconds in meta["timings_s"].values():
            assert isinstance(seconds, float) and seconds >= 0.0
        assert meta["timings_s"]["format"] <= meta["timings_s"]["write"]
        assert meta["files"][0] == "oracle-check.csv"

    def test_meta_sidecar_reports_the_environment(self, tmp_path):
        cfg = validate_config("experiment = concurrence-surface\nt1 = 0.5\nt2 = 0.5\n")
        meta = json.loads(run(cfg, out_dir=tmp_path).meta_path.read_text())
        env = meta["environment"]
        assert sorted(env) == ["cpu_count", "numpy", "platform", "python"]
        assert all(isinstance(env[key], str) for key in ("numpy", "platform", "python"))
        assert env["cpu_count"] is None or isinstance(env["cpu_count"], int)

    def test_dump_state_is_loadable_and_valid(self, tmp_path):
        cfg = validate_config("experiment = oracle-check\ndraws = 5\n")
        run(cfg, out_dir=tmp_path, dump_state=tmp_path / "state.json")
        data = json.loads((tmp_path / "state.json").read_text())
        rho = from_json_dict(data)
        assert rho.labels == ("A", "B")
        assert validate(rho).passed

    def test_out_dir_from_config(self, tmp_path):
        cfg = validate_config(
            f"experiment = oracle-check\ndraws = 5\nout = {tmp_path / 'sub'}\n"
        )
        report = run(cfg)
        assert report.csv_path.parent == tmp_path / "sub"
        assert report.csv_path.exists()

    def test_imbalance_makes_one_stacked_wootters_call(self, tmp_path, monkeypatch):
        calls = []

        def spy(rho):
            calls.append(np.shape(rho))
            return concurrence_wootters(rho)

        monkeypatch.setattr(recipes, "concurrence_wootters", spy)
        cfg = validate_config("experiment = imbalance-restore\nt2 = linspace(0.1, 1, 10)\n")
        run(cfg, out_dir=tmp_path)
        assert calls == [(20, 4, 4)]


    def test_slices_make_one_closed_form_call(self, tmp_path, monkeypatch):
        calls = []

        def spy(pair, t1, t2, sign=+1):
            calls.append((np.shape(t1), np.shape(t2)))
            return closed_form_rho(pair, t1, t2, sign)

        monkeypatch.setattr(recipes, "closed_form_rho", spy)
        cfg = validate_config("experiment = concurrence-slices\nt1 = 0.3, 0.6, 1.0\n"
                              "t2 = linspace(0, 1, 11)\n")
        run(cfg, out_dir=tmp_path)
        assert calls == [((3, 1), (11,))]

    def test_imbalance_makes_one_stacked_visibility_call(self, tmp_path, monkeypatch):
        calls = []

        def spy(rho):
            calls.append(np.shape(rho))
            return visibility_analytic(rho)

        monkeypatch.setattr(recipes, "visibility_analytic", spy)
        cfg = validate_config("experiment = imbalance-restore\nt2 = linspace(0.1, 1, 10)\n")
        run(cfg, out_dir=tmp_path)
        assert calls == [(20, 4, 4)]

    def test_imbalance_makes_one_call_of_each_closed_form(self, tmp_path, monkeypatch):
        calls = Counter()  # (name, stack length, shape of t2) -> calls

        def spy(name):
            real = getattr(recipes, name)

            def wrapper(pair, t1, t2, *args, **kwargs):
                calls[name, len(pair), np.shape(t2)] += 1
                return real(pair, t1, t2, *args, **kwargs)
            monkeypatch.setattr(recipes, name, wrapper)

        for name in ("closed_form_rho", "normalized_success"):
            spy(name)
        cfg = validate_config("experiment = imbalance-restore\nt2 = linspace(0.1, 1, 10)\n")
        run(cfg, out_dir=tmp_path)
        assert calls == {("closed_form_rho", 20, (20,)): 1, ("normalized_success", 20, (20,)): 1}

    def test_meta_sidecar_reports_points_per_second(self, tmp_path):
        cfg = validate_config("experiment = concurrence-slices\nt1 = 0.5\nt2 = 0.5\n")
        meta = json.loads(run(cfg, out_dir=tmp_path).meta_path.read_text())
        assert isinstance(meta["points_per_s"], float) and meta["points_per_s"] > 0.0

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

    @pytest.mark.parametrize("counts, seed", [
        *((c, seed) for c in (0.001, 0.1) for seed in range(4)), (1, 1)])
    def test_an_empty_fringe_scan_reports_a_null_fit(self, counts, seed, tmp_path, capsys):
        """Too few counts for any in one setting's ``+`` scan: the run still
        exits 0, and that setting's visibility and sigma are null."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"experiment = theta-fringes\ncounts = {counts}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((out / "theta-fringes.meta.json").read_text())
        fits = meta["summary"]["fitted_visibility"]
        empty = set()
        for tag in fits:
            rows = read_rows(out / f"counts_{tag}_seed{seed}.csv")[1:]
            if all(row[2] == "0" for row in rows if row[1] == "+"):
                empty.add(tag)
        assert empty
        assert {tag for tag, fit in fits.items() if fit["v"] is None} == empty
        assert {tag for tag, fit in fits.items() if fit["sigma"] is None} == empty

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


def _lines(report):
    return report.csv_path.read_text(encoding="utf-8").splitlines()[1:]


def _joined(*values):
    return ",".join(map(repr, values))


class TestByteIdentity:
    """Each line is the repr of the raw grid floats and of the library's values."""

    def test_surface(self, tmp_path):
        cfg = validate_config("experiment = concurrence-surface\n"
                              "t1 = linspace(0.01, 1, 97)\nt2 = logspace(1e-9, 1, 61)\n")
        conc = concurrence_closed_form(MAX_ENTANGLED_PAIR, np.array(cfg.t1)[:, None],
                                       np.array(cfg.t2))
        want = [_joined(t1, t2, float(conc[i, j]))
                for i, t1 in enumerate(cfg.t1) for j, t2 in enumerate(cfg.t2)]
        assert _lines(run(cfg, out_dir=tmp_path)) == want

    def test_slices(self, tmp_path):
        cfg = validate_config("experiment = concurrence-slices\n"
                              "t1 = 0.3, 0.6, 1.0\nt2 = linspace(0, 1, 11)\n")
        want = []
        for t1 in cfg.t1:
            for t2 in cfg.t2:
                rho, norm = closed_form_rho(MAX_ENTANGLED_PAIR, t1, t2, sign=+1)
                want.append(_joined(t1, t2, concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, t2),
                                    visibility_analytic(rho), norm))
        assert _lines(run(cfg, out_dir=tmp_path)) == want

    def test_imbalance(self, tmp_path):
        cfg = validate_config("experiment = imbalance-restore\n"
                              "t1 = 0.7\nt2 = logspace(0.1, 1, 5)\nxi = 0.05\nepsilon = 0.01\n")
        (t1,), (xi,), (epsilon,) = cfg.t1, cfg.xi, cfg.epsilon
        want = []
        for t2 in cfg.t2:
            for strategy in ("equal", "optimal"):
                pair = (spdc_input(SpdcSource(xi), SpdcSource(xi)) if strategy == "equal"
                        else optimal_inputs(t1, t2, epsilon))
                rho, norm = closed_form_rho(pair, t1, t2, sign=+1)
                want.append(_joined(t1, t2) + f",{strategy}," + _joined(
                    visibility_analytic(rho), concurrence_wootters(rho),
                    bell_fidelity(rho, sign=+1, phase=0.0), norm,
                    normalized_success(pair, t1, t2)))
        assert _lines(run(cfg, out_dir=tmp_path)) == want


def test_write_csv_writes_str_of_every_field():
    x = [-0.0, 5e-324, 1e16, 1e-05, 0.1, 2.5]
    n = [0, -3, 2 ** 62, 7, 1, 10 ** 16]
    tags = ["Xp", "+", "-", "equal", "0.1", "1e-05"]
    fh = io.StringIO()
    _write_csv(fh, {"x": np.array(x), "n": np.array(n), "tag": _axis(tags, 1, len(tags))})
    lines = fh.getvalue().split("\n")
    assert lines[0] == "x,n,tag" and lines[-1] == ""
    assert lines[1:-1] == [",".join(map(str, row)) for row in zip(x, n, tags)]
    assert lines[1:4] == ["-0.0,0,Xp", "5e-324,-3,+", f"1e+16,{2 ** 62},-"]


# values whose text is easy to get wrong: signed zero, subnormal, exponent
# form, the int64 extremes, tags that look like numbers; the floats also
# cover both routes of floatfmt.write_values' kernel, its fast path (0.1, 1e-05,
# -1234.5678, 1/3) and each kind it hands to repr (zero, subnormal,
# non-finite, |x| >= 2**54, short mantissas)
_FLOATS = [-0.0, 5e-324, 1e16, 0.1, 1e-05, 2.5, -7.0, math.inf, -math.inf, math.nan, 0.5,
           1.0, 2.0 ** 60, 1e22, 123456789012345680.0, -1234.5678, 1 / 3]
_INTS = [0, -3, 2 ** 63 - 1, 7, 10 ** 16, -2 ** 63]
_TAGS = ["Xp", "+", "-", "equal", "0.1"]


def _assert_same_lines(got, want):
    """``got == want`` for two CSV texts, reported by the first line that
    differs: pytest's diff of two texts this long would take minutes."""
    got, want = got.split("\n"), want.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)


def _axis(values, inner, rows):
    return AxisColumn(np.array([str(x) for x in values], dtype=np.bytes_), inner, rows)


def _cycle(values, rows):
    return [values[i % len(values)] for i in range(rows)]


@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
                                  2 * CSV_CHUNK + 1])
def test_write_csv_matches_the_row_at_a_time_writer(rows):
    columns = {"tag": _axis(_TAGS, 1, rows), "x": np.array(_cycle(_FLOATS, rows)),
               "n": np.array(_cycle(_INTS, rows), dtype=np.int64),
               "axis": _axis(_FLOATS[::-1], 1, rows)}
    fast, naive = io.StringIO(), io.StringIO()
    _write_csv(fast, columns)
    naive_write_csv(naive, columns)
    _assert_same_lines(fast.getvalue(), naive.getvalue())
    assert fast.getvalue().count("\n") == rows + 1


# the longest text of any float64, 24 characters
_LONGEST = -2.2250738585072014e-308


@pytest.mark.parametrize("rows", [FLOATFMT_MIN - 1, FLOATFMT_MIN, 575, 576, CSV_CHUNK - 1,
                                  CSV_CHUNK + 1, 2 * CSV_CHUNK + 1, CSV_BLOCK - 1, CSV_BLOCK,
                                  CSV_BLOCK + 1, CSV_BLOCK + CSV_CHUNK + 7])
def test_write_csv_column_kinds_match_the_row_at_a_time_writer(rows):
    """float64 arrays (whole blocks through floatfmt or, when short, str per
    value), axis columns whose runs of one text cross the chunk and block
    edges, and an int64 array, side by side."""
    floats = _FLOATS + [_LONGEST]
    columns = {"x": np.array(_cycle(floats, rows)), "long": np.full(rows, _LONGEST),
               "n": np.array(_cycle(_INTS, rows), dtype=np.int64),
               # runs of 1000 and 3000 rows, so one text spans the edge at CSV_CHUNK
               "a1": _axis(floats, 1000, rows), "a2": _axis((0.5, _LONGEST), 3000, rows),
               "a3": _axis(floats[::-1], 1, rows), "a4": _axis(("+", "-", "equal"), 7, rows),
               "y": np.array(_cycle(floats[::-1], rows))}
    fast, naive = io.StringIO(), io.StringIO()
    _write_csv(fast, columns)
    naive_write_csv(naive, columns)
    _assert_same_lines(fast.getvalue(), naive.getvalue())
    assert fast.getvalue().count("\n") == rows + 1
    assert f"{_LONGEST},-,{_LONGEST}" in fast.getvalue()


def _decimals_of_every_length(rng):
    """One float per text length, form (fixed or exponent) and sign found
    among 5000 random decimals ``m * 10**e``: lengths 3 (``0.5``) to 23."""
    found = {}
    for _ in range(5000):
        digits, exponent = int(rng.integers(1, 18)), int(rng.integers(-25, 25))
        x = float(rng.integers(1, 10 ** digits)) * 10.0 ** exponent * (-1.0) ** int(rng.integers(2))
        found.setdefault((len(repr(x)), "e" in repr(x), x < 0), x)
    return list(found.values())


def test_write_csv_random_bit_patterns_match_the_row_at_a_time_writer():
    """Random float64 bit patterns, decimals of every text length, and the
    values floatfmt hands to repr (zeros, subnormals, infinities, NaNs), over
    two full chunks and a short one, then over a full block and a short one
    (through repr), beside an axis column and an int64 column whose texts
    have every length from 1 to 20."""
    for rows in (2 * CSV_CHUNK + 7, CSV_BLOCK + 7):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 2 ** 64, size=rows, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, math.inf, -math.inf,
                   math.nan, -math.nan, _LONGEST, 1e16, 1e-05, 0.0001, 9999999999999998.0]
        picked = _decimals_of_every_length(rng) + special
        x[:len(picked)] = picked
        rng.shuffle(x)
        n = rng.integers(-2 ** 63, 2 ** 63 - 1, size=rows, dtype=np.int64, endpoint=True)
        n[:38] = [sign * 10 ** k for k in range(19) for sign in (1, -1)]
        texts = [repr(value) for value in x.tolist()]
        assert {len(text) for text in texts} == set(range(3, 25))
        assert {len(str(value)) for value in n.tolist()} == set(range(1, 21))
        for form in (lambda t: "e" in t, lambda t: "e" not in t and "." in t):
            assert {t[0] == "-" for t in texts if form(t)} == {True, False}
        columns = {"x": x, "tag": _axis(_TAGS, 3, rows), "n": n}
        fast, naive = io.StringIO(), io.StringIO()
        _write_csv(fast, columns)
        naive_write_csv(naive, columns)
        _assert_same_lines(fast.getvalue(), naive.getvalue())


def test_write_csv_axis_columns_from_product_match_the_repetition_rule():
    # 3 * 17 * 97 = 4947 rows: the first axis changes every 1649 rows and the
    # second every 97, neither at the chunk edge
    axes = {"a": (0.1, 2.0, 1e-05), "b": tuple(range(17)), "c": tuple(np.linspace(0, 1, 97))}
    columns = _product(**axes)
    want = [list(map(str, row)) for row in itertools.product(*axes.values())]
    assert [len(column) for column in columns.values()] == [len(want)] * 3
    assert list(zip(*map(naive_values, columns.values()))) == list(map(tuple, want))
    fast = io.StringIO()
    _write_csv(fast, columns)
    _assert_same_lines(fast.getvalue(), "a,b,c\n" + "".join(",".join(row) + "\n" for row in want))


def test_write_csv_writes_bounded_chunks():
    lines_per_write = []

    class Recorder(io.StringIO):
        def write(self, text):
            lines_per_write.append(text.count("\n"))
            return super().write(text)

    rows = 2 * CSV_CHUNK + 1
    _write_csv(Recorder(), {"x": np.arange(rows), "y": np.full(rows, 0.25),
                            "t": _axis((0.1, 0.2), CSV_CHUNK + 3, rows)})
    assert lines_per_write == [1, CSV_CHUNK, CSV_CHUNK, 1]

    # across a block edge: each block is squeezed and written a chunk at a
    # time, so no write holds more than CSV_CHUNK lines
    lines_per_write.clear()
    rows = CSV_BLOCK + CSV_CHUNK + 7
    _write_csv(Recorder(), {"x": np.arange(rows), "y": np.full(rows, 0.25),
                            "t": _axis((0.1, 0.2), CSV_CHUNK + 3, rows)})
    assert max(lines_per_write) <= CSV_CHUNK
    assert lines_per_write == [1] + [CSV_CHUNK] * (CSV_BLOCK // CSV_CHUNK + 1) + [7]


def test_write_csv_writes_every_byte_of_a_dirty_block(monkeypatch):
    """The block matrix of ``_csv_rows`` starts as 0xFF bytes, and every
    recipe's default columns and every column kind across a block edge
    still give the row-at-a-time text: each byte of each slot is written.
    Only that matrix is dirtied."""
    empty, dirtied = np.empty, []

    def dirty_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if sys._getframe(1).f_code is recipes._csv_rows.__code__:
            out.fill(0xFF)
            dirtied.append(out.shape)
        return out

    rows = CSV_BLOCK + CSV_CHUNK + 7
    floats = _FLOATS + [_LONGEST]
    tables = [RECIPES[name].runner(validate_config(f"experiment = {name}")).columns
              for name in RECIPES]
    tables.append({"x": np.array(_cycle(floats, rows)), "tag": _axis(_TAGS, 3, rows),
                   "n": np.array(_cycle(_INTS, rows), dtype=np.int64),
                   "a": _axis((0.5, _LONGEST), 3000, rows)})
    monkeypatch.setattr(np, "empty", dirty_empty)
    for columns in tables:
        fast, naive = io.StringIO(), io.StringIO()
        _write_csv(fast, columns)
        naive_write_csv(naive, columns)
        _assert_same_lines(fast.getvalue(), naive.getvalue())
    assert len(dirtied) == len(RECIPES) + 2


def test_surface_run_matches_the_row_at_a_time_writer(tmp_path):
    cfg = validate_config("experiment = concurrence-surface\n"
                          "t1 = linspace(0.01, 1, 300)\nt2 = linspace(0.01, 1, 300)\n")
    columns = RECIPES[cfg.experiment].runner(cfg).columns
    naive = io.StringIO()
    naive_write_csv(naive, columns)
    report = run(cfg, out_dir=tmp_path)
    assert report.csv_path.read_bytes() == naive.getvalue().encode()
    assert json.loads(report.meta_path.read_text())["rows"] == 90_000


# the writer thread runs only where a second CPU is free; these force the
# choice either way, so both paths run on any machine, one CPU too
_OVERLAP = {"overlap": True, "serial": False}


def _force_overlap(monkeypatch, overlap=True):
    monkeypatch.setattr(recipes, "_spare_cpu", lambda elsewhere, seconds: overlap)


def _multi_block_columns(rows):
    return {"tag": _axis(_TAGS, 5, rows), "x": np.array(_cycle(_FLOATS + [_LONGEST], rows)),
            "n": np.array(_cycle(_INTS, rows), dtype=np.int64),
            "a": _axis((0.5, _LONGEST), 3000, rows)}


def _writer_threads():
    return [t for t in threading.enumerate() if t.name == "swapsim-csv-writer"]


@pytest.fixture
def writers(monkeypatch):
    """For each block squeezed and written, in order: whether the calling
    thread wrote it."""
    write_block, on_caller = recipes._write_block, []

    def recording(fh, text):
        on_caller.append(threading.current_thread() is threading.main_thread())
        return write_block(fh, text)

    monkeypatch.setattr(recipes, "_write_block", recording)
    return on_caller


@pytest.mark.parametrize("overlap", _OVERLAP.values(), ids=_OVERLAP)
def test_write_csv_multi_block_matches_the_row_at_a_time_writer(overlap, monkeypatch, writers):
    """3.5 blocks: with a CPU to spare the first three are squeezed and
    written on the writer thread and the last on the calling thread, and the
    bytes are the row-at-a-time writer's either way."""
    _force_overlap(monkeypatch, overlap)
    rows = 7 * CSV_BLOCK // 2
    columns = _multi_block_columns(rows)
    fast, naive = io.StringIO(), io.StringIO()
    _write_csv(fast, columns)
    naive_write_csv(naive, columns)
    _assert_same_lines(fast.getvalue(), naive.getvalue())
    assert writers == ([False] * 3 if overlap else [True] * 3) + [True]
    assert not _writer_threads()


def test_write_csv_callers_on_many_threads_under_fast_switching(monkeypatch):
    """Four threads each write 2.5 blocks three times, each call with its own
    writer thread (eight threads on two CPUs or fewer), while the interpreter
    switches threads every microsecond: every file has the reference bytes."""
    _force_overlap(monkeypatch)
    columns = _multi_block_columns(5 * CSV_BLOCK // 2)
    want = io.StringIO()
    naive_write_csv(want, columns)
    got = []

    def caller():
        for _ in range(3):
            fh = io.StringIO()
            _write_csv(fh, columns)
            got.append(fh.getvalue())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert len(got) == 12
    for text in got:
        _assert_same_lines(text, want.getvalue())
    assert not _writer_threads()


class _FailingWrites(io.StringIO):
    """A text file whose first write past ``lines`` lines raises ``error``;
    it records every write it is asked for after that."""

    def __init__(self, lines):
        super().__init__()
        self.lines, self.error, self.after = lines, OSError(errno.ENOSPC, "disk full"), []

    def write(self, text):
        if self.after or self.getvalue().count("\n") >= self.lines:
            self.after.append(text)
            raise self.error
        return super().write(text)


@pytest.mark.parametrize("overlap", _OVERLAP.values(), ids=_OVERLAP)
def test_write_csv_raises_the_error_of_a_failed_write_and_writes_no_more(overlap, monkeypatch):
    _force_overlap(monkeypatch, overlap)
    fh = _FailingWrites(1 + CSV_BLOCK)  # the header and block 1, then block 2 fails
    with pytest.raises(OSError) as raised:
        _write_csv(fh, _multi_block_columns(7 * CSV_BLOCK // 2))
    assert raised.value is fh.error
    assert len(fh.after) == 1  # the failed write, then none
    assert fh.getvalue().count("\n") == 1 + CSV_BLOCK
    assert not _writer_threads()


def test_write_csv_finishes_the_write_in_flight_before_a_build_error(monkeypatch):
    """Block 3 fails to build while the writer thread is writing block 2: the
    error propagates only once block 2 is written in full."""
    _force_overlap(monkeypatch)
    writing = threading.Event()

    class SlowWrites(io.StringIO):
        def write(self, text):
            if self.getvalue().count("\n") >= 1 + CSV_BLOCK and not writing.is_set():
                writing.set()  # block 2's first chunk
                time.sleep(0.05)
            return super().write(text)

    csv_rows = recipes._csv_rows

    def failing(fields, start, stop):
        if start == 2 * CSV_BLOCK:
            assert writing.wait(30)
            raise RuntimeError("block 3 failed")
        return csv_rows(fields, start, stop)

    monkeypatch.setattr(recipes, "_csv_rows", failing)
    fh = SlowWrites()
    with pytest.raises(RuntimeError, match="block 3 failed"):
        _write_csv(fh, _multi_block_columns(7 * CSV_BLOCK // 2))
    assert fh.getvalue().count("\n") == 1 + 2 * CSV_BLOCK
    assert not _writer_threads()


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started while the test runs."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def test_write_csv_of_one_block_starts_no_thread(thread_starts, monkeypatch):
    _force_overlap(monkeypatch)
    for rows in (0, 1, CSV_BLOCK):
        _write_csv(io.StringIO(), _multi_block_columns(rows))
    assert thread_starts == []
    _write_csv(io.StringIO(), _multi_block_columns(CSV_BLOCK + 1))
    assert thread_starts == ["swapsim-csv-writer"]


def test_write_csv_spare_cpu_needs_two_cpus_and_no_busy_thread(monkeypatch):
    monkeypatch.setattr(recipes, "_cpus", lambda: 2)
    assert recipes._spare_cpu(0.0, 0.004)
    assert not recipes._spare_cpu(0.002, 0.004)  # another thread used half a CPU
    monkeypatch.setattr(recipes, "_cpus", lambda: 1)
    assert not recipes._spare_cpu(0.0, 0.004)


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_cpus_fall_back_to_cpu_count_without_affinity(monkeypatch, count, cpus):
    """Where ``os.sched_getaffinity`` is missing (macOS), the CPU count is
    ``os.cpu_count()``, and 1 when that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert recipes._cpus() == cpus


def test_write_csv_starts_the_writer_once_a_cpu_is_free(monkeypatch, writers):
    """No CPU is free while blocks 1 and 2 are built, one is by block 3:
    blocks 1 and 2 are written on the calling thread, 3 and 4 on the writer
    thread, 5 (the last) on the calling thread, and the bytes hold."""
    answers = iter([False, False, True])
    monkeypatch.setattr(recipes, "_spare_cpu", lambda elsewhere, seconds: next(answers))
    columns = _multi_block_columns(4 * CSV_BLOCK + 5)
    fast, naive = io.StringIO(), io.StringIO()
    _write_csv(fast, columns)
    naive_write_csv(naive, columns)
    _assert_same_lines(fast.getvalue(), naive.getvalue())
    assert writers == [True, True, False, False, True]
    assert not _writer_threads()


def test_write_csv_starts_no_thread_while_another_thread_is_busy(thread_starts, monkeypatch):
    """Another thread of the process keeps a CPU busy (as numpy's BLAS
    threads do for a while after import): two blocks whose first takes
    ~20 ms to build are written on the calling thread alone."""
    monkeypatch.setattr(recipes, "_cpus", lambda: 2)
    done = threading.Event()

    def busy():
        x = np.random.default_rng(5).random(1 << 18)
        while not done.is_set():
            np.sort(x)  # outside the interpreter lock

    spinner = threading.Thread(target=busy)
    spinner.start()
    try:
        time.sleep(0.05)
        rows = CSV_BLOCK + 1
        x = np.random.default_rng(6).random(rows)
        _write_csv(io.StringIO(), {f"x{k}": x for k in range(8)})
    finally:
        done.set()
        spinner.join(30)
    assert not spinner.is_alive()
    assert "swapsim-csv-writer" not in thread_starts


def test_write_csv_bundled_configs_start_no_thread(thread_starts, monkeypatch, tmp_path):
    """Every CSV of every bundled config, counts files and the oracle's
    included, is one block."""
    _force_overlap(monkeypatch)
    configs = sorted((Path(__file__).resolve().parent.parent / "scripts" / "configs").glob("*.cfg"))
    assert len(configs) == 6
    for path in configs:
        run(validate_config(path.read_text()), out_dir=tmp_path / path.stem)
    assert thread_starts == []


def test_write_csv_failure_in_a_multi_block_run_exits_3_and_leaves_nothing(monkeypatch, tmp_path,
                                                                          capsys):
    """A 200 x 200 surface is three blocks; block 2, on the writer thread,
    fails to write. The run exits 3 and removes its staged files and the
    directories it made."""
    _force_overlap(monkeypatch)
    lines, refused = [0], []

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name.startswith(".concurrence-surface.csv."):
            write = fh.write

            def failing_write(text):
                if lines[0] >= 1 + CSV_BLOCK:  # the header and block 1, then block 2 fails
                    refused.append(text)
                    raise OSError(errno.ENOSPC, "disk full")
                lines[0] += text.count("\n")
                return write(text)

            fh.write = failing_write
        return fh

    monkeypatch.setattr(recipes, "open", failing_open, raising=False)
    cfg = tmp_path / "surface.cfg"
    cfg.write_text("experiment = concurrence-surface\n"
                   "t1 = linspace(0.01, 1, 200)\nt2 = linspace(0.01, 1, 200)\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "new" / "out")]) == 3
    assert "disk full" in capsys.readouterr().err
    assert len(refused) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surface.cfg"]
    assert not _writer_threads()


def test_meta_config_is_the_config_as_json(tmp_path):
    cfg = validate_config("experiment = imbalance-restore\nseed = 4\nt1 = 0.7\n"
                          "t2 = 0.2, 0.5\nnormalize = false\n")
    meta = json.loads(run(cfg, out_dir=tmp_path).meta_path.read_text())
    assert meta["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert list(meta["config"]) == [f.name for f in dataclasses.fields(cfg)]


def test_default_grids_cover_every_recipe():
    assert set(DEFAULT_GRIDS) == set(RECIPES)
    for name, grids in DEFAULT_GRIDS.items():
        for key, grid in grids.items():
            assert len(grid) >= 1, (name, key)


def _plain(value):
    """True when ``value`` is built of dicts, lists and tuples of plain Python
    scalars only: no numpy scalar, whose repr reads ``np.float64(...)``."""
    if isinstance(value, dict):
        return all(type(key) is str and _plain(v) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(_plain, value))
    return type(value) in (int, float, str, bool, type(None))


@pytest.mark.parametrize("name", list(RECIPES))
def test_summary_holds_plain_python_scalars(name, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"experiment = {name}\nseed = 4\ndraws = 50\n"
                        if name == "oracle-check" else f"experiment = {name}\nseed = 4\n")
    summary = RECIPES[name].runner(validate_config(cfg_path.read_text())).summary
    assert _plain(summary), summary
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out
    assert all(f"\n  {key}: " in stdout for key in summary)
    assert "np." not in stdout
    meta_text = (tmp_path / "out" / f"{name}.meta.json").read_text()
    assert "np." not in meta_text
    assert json.loads(meta_text)["summary"] == json.loads(json.dumps(summary))


def test_recipes_hand_the_writer_axis_columns_and_float64_arrays():
    """Grid axes are ``AxisColumn``s, computed float columns float64 arrays
    and every other column an int64 array, in every file a recipe writes, so
    no value becomes a Python object before the writer."""
    floats = {
        "concurrence-surface": {"concurrence"},
        "concurrence-slices": {"concurrence", "visibility", "p_success"},
        "theta-fringes": {"probability", "expected_counts"},
        "scaling-balanced": {"t1", "p_success", "p_normalized"},
        "imbalance-restore": {"visibility", "concurrence", "bell_fidelity", "p_success",
                              "p_normalized"},
        "oracle-check": {"t1", "t2", "max_dev_rho", "dev_norm", "dev_concurrence"},
    }
    axes = {"concurrence-surface": {"t1", "t2"}, "concurrence-slices": {"t1", "t2"},
            "theta-fringes": {"setting", "theta_rad", "outcome_sign"},
            "scaling-balanced": {"t"}, "imbalance-restore": {"t1", "t2", "strategy"},
            "oracle-check": set()}
    ints = {"theta-fringes": {"counts"}, "oracle-check": {"draw", "sign"}}

    def kinds(columns):
        return {k: "axis" if isinstance(c, AxisColumn) else (c.dtype, c.ndim)
                for k, c in columns.items()}

    assert set(floats) == set(RECIPES)
    for name in floats:
        result = RECIPES[name].runner(validate_config(f"experiment = {name}\n"))
        columns = result.columns
        assert kinds(columns) == {k: "axis" if k in axes[name] else
                                  (np.int64, 1) if k in ints.get(name, ()) else (np.float64, 1)
                                  for k in columns}, name
        assert set(columns) == axes[name] | floats[name] | ints.get(name, set()), name
        for _, extra in result.extra:
            assert kinds(extra) == {"theta_rad": "axis", "outcome_sign": "axis",
                                    "counts": (np.int64, 1)}
        assert len({len(column) for column in columns.values()}) == 1, name


def test_fringes_every_setting_scans_one_grid(monkeypatch):
    """The axis columns are built once, from one setting's scan: every
    setting's scan must cover the same phases, and each counts file holds
    its setting's rows of the main file."""
    grids = []

    def recording(*args):
        counts = synth_counts(*args)
        grids.append(counts.scan.thetas.tolist())
        return counts

    monkeypatch.setattr(recipes, "synth_counts", recording)
    cfg = validate_config("experiment = theta-fringes\nseed = 3\ntheta = linspace(0, 6, 9)\n")
    result = RECIPES[cfg.experiment].runner(cfg)
    assert grids == [list(cfg.theta)] * len(protocol.SETTINGS)
    columns = {k: naive_values(c) for k, c in result.columns.items()}
    tags = ("Xp", "Xm", "Yp", "Ym", "Zp", "Zm")
    assert columns["setting"] == [tag for tag in tags for _ in range(2 * len(cfg.theta))]
    for tag, (filename, extra) in zip(tags, result.extra):
        assert filename == f"counts_{tag}_seed3.csv"
        rows = [i for i, setting in enumerate(columns["setting"]) if setting == tag]
        assert naive_values(extra["theta_rad"])[::2] == [str(x) for x in cfg.theta]
        for key in ("theta_rad", "outcome_sign", "counts"):
            assert naive_values(extra[key]) == [columns[key][i] for i in rows]


def test_fringes_dilate_the_pair_once_for_all_six_settings(monkeypatch):
    """One pair and one channel object per arm serve every setting: of the
    run's twelve dilations only the first swap's two are computed, and the
    other ten return those kept objects."""
    outs = []

    def recording(*args):
        outs.append(dilate(*args))
        return outs[-1]

    monkeypatch.setattr(protocol, "dilate", recording)
    cfg = validate_config("experiment = theta-fringes\nseed = 3\nt1 = 0.9\nt2 = 0.4\n")
    RECIPES[cfg.experiment].runner(cfg)
    assert [id(out) for out in outs] == [id(outs[0]), id(outs[1])] * len(protocol.SETTINGS)
