import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swapsim import __version__
from swapsim import recipes
from swapsim.cli import _build_parser, main
from swapsim.config import MAX_DRAWS
from swapsim.experiment import MAX_MEAN_COUNTS

from oracles import from_json_dict


@pytest.fixture
def oracle_cfg(tmp_path):
    path = tmp_path / "oracle.cfg"
    path.write_text("experiment = oracle-check\ndraws = 20\nseed = 3\n")
    return path


class TestRun:
    def test_success_exit_zero(self, oracle_cfg, tmp_path, capsys):
        code = main(["run", str(oracle_cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "oracle-check.csv").exists()
        assert (tmp_path / "out" / "oracle-check.meta.json").exists()
        assert "oracle-check" in capsys.readouterr().out

    def test_seed_override_lands_in_meta(self, oracle_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(oracle_cfg), "--out", str(out), "--seed", "77"]) == 0
        meta = json.loads((out / "oracle-check.meta.json").read_text())
        assert meta["config"]["seed"] == 77

    def test_dump_state_writes_loadable_json(self, oracle_cfg, tmp_path):
        dump = tmp_path / "state.json"
        code = main(["run", str(oracle_cfg), "--out", str(tmp_path / "out"),
                     "--dump-state", str(dump)])
        assert code == 0
        rho = from_json_dict(json.loads(dump.read_text()))
        assert rho.labels == ("A", "B")

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment = concurrence-slices\nt1 = 1.2\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "t1" in err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 3

    def test_unwritable_out_exits_3(self, oracle_cfg, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        assert main(["run", str(oracle_cfg), "--out", str(blocker / "sub")]) == 3

    def test_unwritable_dump_state_exits_3(self, oracle_cfg, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        code = main(["run", str(oracle_cfg), "--out", str(tmp_path / "out"),
                     "--dump-state", str(blocker / "state.json")])
        assert code == 3

    def test_failed_run_leaves_the_output_directory_as_it_was(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "theta_fringes.cfg"
        out = tmp_path / "out"
        out.mkdir()
        (out / "theta-fringes.csv").write_text("an earlier run\n")
        dump = tmp_path / "missing" / "state.json"
        code = main(["run", str(cfg), "--out", str(out), "--dump-state", str(dump)])
        assert code == 3
        assert [p.name for p in out.iterdir()] == ["theta-fringes.csv"]
        assert (out / "theta-fringes.csv").read_text() == "an earlier run\n"
        assert str(dump) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, dump, code",
        [
            ("experiment = theta-fringes\ntheta = 0.1\n", None, 2),  # too few phase points
            ("experiment = theta-fringes\n", "missing/state.json", 3),
        ],
        ids=["runner-fails", "dump-unwritable"],
    )
    def test_failed_run_leaves_no_directory_behind(self, doc, dump, code, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(doc)
        argv = ["run", str(cfg), "--out", str(tmp_path / "new" / "out")]
        if dump is not None:
            argv += ["--dump-state", str(tmp_path / dump)]
        assert main(argv) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]

    @pytest.mark.parametrize("name", ["oracle-check.csv", "oracle-check.meta.json"])
    def test_dump_state_onto_an_output_exits_2(self, oracle_cfg, name, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("an earlier run\n")
        # the clash is found through a path spelled differently
        dump = out / ".." / "out" / name
        code = main(["run", str(oracle_cfg), "--out", str(out), "--dump-state", str(dump)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_text() == "an earlier run\n"
        err = capsys.readouterr().err
        assert err.startswith("error: --dump-state ") and name in err
        assert err.count("\n") == 1

    def test_dump_state_onto_the_target_of_an_output_symlink_runs(self, oracle_cfg, tmp_path):
        # the run replaces the link out/oracle-check.csv itself, so the file
        # the link points at is the dump's alone
        out = tmp_path / "out"
        out.mkdir()
        (out / "oracle-check.csv").symlink_to(Path("..") / "target.json")
        dump = tmp_path / "target.json"
        code = main(["run", str(oracle_cfg), "--out", str(out), "--dump-state", str(dump)])
        assert code == 0
        assert not (out / "oracle-check.csv").is_symlink()
        assert (out / "oracle-check.csv").read_text().startswith("draw,t1,t2,")
        assert from_json_dict(json.loads(dump.read_text())).labels == ("A", "B")

    def test_negative_seed_exits_2(self, oracle_cfg, tmp_path):
        assert main(["run", str(oracle_cfg), "--out", str(tmp_path),
                     "--seed", "-1"]) == 2


# the form a check line must keep: benchmarks parse the status, the
# deviation and the printed tolerance out of it
CHECK_LINE = re.compile(r"^(PASS|FAIL) .*: max deviation (\S+) \(tolerance (\S+)\)$")


@pytest.fixture
def perturbed_closed_form(monkeypatch):
    """Shift one entry of the closed-form state by 1e-9, past its 1e-12 tolerance."""
    exact = recipes.closed_form_rho

    def perturbed(*args, **kwargs):
        rho, norm = exact(*args, **kwargs)
        rho = rho.copy()
        rho[1, 1] += 1e-9
        return rho, norm

    monkeypatch.setattr(recipes, "closed_form_rho", perturbed)


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check", "--draws", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_check_lines_keep_their_form(self, capsys):
        assert main(["check", "--draws", "50", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        matches = [CHECK_LINE.match(line) for line in lines[:3]]
        assert all(matches), lines
        assert [m.group(1) for m in matches] == ["PASS"] * 3
        assert [m.group(3) for m in matches] == ["1e-12", "1e-12", "1e-10"]
        assert all(float(m.group(2)) <= float(m.group(3)) for m in matches)
        assert lines[3:] == ["50 random draws, seed 1"]

    def test_invariant_violation_exits_4(self, perturbed_closed_form, capsys):
        assert main(["check", "--draws", "20", "--seed", "1"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert [m.group(1) for m in map(CHECK_LINE.match, lines[:3])] == ["FAIL", "PASS", "PASS"]
        assert sum(line.startswith("FAIL state entries vs closed form") for line in lines) == 1

    def test_run_reports_invariant_violation(self, perturbed_closed_form, oracle_cfg,
                                             tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(oracle_cfg), "--out", str(out)]) == 4
        assert "invariant violation detected" in capsys.readouterr().err
        assert (out / "oracle-check.csv").is_file()
        meta = json.loads((out / "oracle-check.meta.json").read_text())
        assert meta["summary"]["passed"] is False

    def test_bad_draws_exit_2(self):
        assert main(["check", "--draws", "0"]) == 2

    @pytest.fixture
    def failing_draw_2(self, monkeypatch):
        """``swap`` raises a ``ValueError`` on draw 2 (its fifth call: two per draw)."""
        exact, calls = recipes.swap, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise ValueError("ket is not normalized")
            return exact(*args, **kwargs)

        monkeypatch.setattr(recipes, "swap", failing)

    def test_error_inside_a_draw_exits_4_naming_draw_and_seed(self, failing_draw_2, capsys):
        """``check`` validates its inputs before any draw, so an error raised
        inside one is an invariant violation, not a usage error."""
        assert main(["check", "--draws", "20", "--seed", "5"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invariant violation: draw 2 of seed 5: ket is not normalized\n"

    def test_run_of_an_error_inside_a_draw_exits_4_and_writes_nothing(self, failing_draw_2,
                                                                     oracle_cfg, tmp_path,
                                                                     capsys):
        assert main(["run", str(oracle_cfg), "--out", str(tmp_path / "out")]) == 4
        assert "draw 2 of seed 3" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle.cfg"]


class TestRecipesListing:
    def test_lists_every_experiment(self, capsys):
        assert main(["recipes"]) == 0
        out = capsys.readouterr().out
        for name in ("concurrence-surface", "concurrence-slices", "theta-fringes",
                     "scaling-balanced", "imbalance-restore", "oracle-check"):
            assert name in out


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestReusedParser:
    """``main`` called again and again in one process, as perfbench does."""

    @staticmethod
    def run_seed(cfg, out, *extra):
        assert main(["run", str(cfg), "--out", str(out), *extra]) == 0
        return json.loads((out / "oracle-check.meta.json").read_text())["config"]["seed"]

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_seed_override_does_not_stick(self, oracle_cfg, tmp_path):
        assert self.run_seed(oracle_cfg, tmp_path / "a", "--seed", "5") == 5
        assert self.run_seed(oracle_cfg, tmp_path / "b") == 3

    @pytest.mark.parametrize("bad", [["run"], ["run", "x.cfg", "--seed", "five"],
                                     ["check", "--draws"], ["bogus"]])
    def test_usage_error_leaves_later_calls_unchanged(self, bad, oracle_cfg, tmp_path,
                                                      capsys):
        assert self.run_seed(oracle_cfg, tmp_path / "before") == 3
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert self.run_seed(oracle_cfg, tmp_path / "after") == 3
        before, after = (tmp_path / d / "oracle-check.csv" for d in ("before", "after"))
        assert after.read_bytes() == before.read_bytes()

    def test_version_exits_0_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.strip() == __version__

    def test_check_defaults_do_not_leak(self, capsys):
        assert main(["check", "--draws", "7", "--seed", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "7 random draws, seed 2"
        assert main(["check"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1000 random draws, seed 0"


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("experiment = oracle-check\ndraws = 10\n")
    proc = subprocess.run(
        [sys.executable, "-m", "swapsim", "run", str(cfg), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "oracle-check.csv").exists()


ADDRESS_SPACE = 1_500_000 * 1024  # bytes: numpy imports, no grid below fits


def _limit_address_space():
    # make the allocation fail inside the child instead of using real memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize(
    "doc, err",
    [
        ("experiment = concurrence-surface\nt1 = linspace(0.1, 1, 1000000000)\n",
         "configuration error:\nkey 't1': cannot allocate a grid of 1000000000 points ("),
        ("experiment = concurrence-surface\n"
         "t1 = linspace(0.1, 1, 100000)\nt2 = linspace(0.1, 1, 100000)\n",
         "error: out of memory: "),
    ],
    ids=["grid-count", "product-grid"],
)
def test_unallocatable_grid_exits_2_without_a_traceback(doc, err, tmp_path):
    pytest.importorskip("resource")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(doc)
    # OpenBLAS reserves address space per thread; one thread keeps the
    # import well under the limit on a machine with many cores
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "swapsim", "run", str(cfg), "--out", str(tmp_path / "new" / "out")],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(err), proc.stderr
    assert proc.stderr.count("\n") == err.count("\n") + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("command", ["check", "run"])
def test_draws_beyond_what_numpy_can_index_exit_2_at_once(command, tmp_path):
    """A ``draws`` no numpy column can hold is refused before the first
    draw, as a configuration error naming the flag or key and the value,
    not a run that goes on until it is killed."""
    pytest.importorskip("resource")
    draws = "100000000000000000000"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"experiment = oracle-check\ndraws = {draws}\n")
    argv = (["check", "--draws", draws] if command == "check"
            else ["run", str(cfg), "--out", str(tmp_path / "new" / "out")])
    # the child runs in tmp_path, so it finds the package by absolute path
    src = str(Path(recipes.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "swapsim", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60,
                          preexec_fn=_limit_address_space)
    name = "--draws" if command == "check" else "key 'draws'"
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"configuration error:\n{name}: {draws} draws do not fit in a "
                           f"numpy array (at most {MAX_DRAWS})\n"), proc.stderr
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("draws", [MAX_DRAWS, MAX_DRAWS - 63])
def test_largest_accepted_draws_exit_2_out_of_memory_at_once(draws, tmp_path):
    """A ``draws`` the validator accepts but no memory holds fails on its
    first column, a MemoryError naming the shape ``(draws,)``, before any
    draw runs."""
    pytest.importorskip("resource")
    src = str(Path(recipes.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "swapsim", "check", "--draws", str(draws)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory: "), proc.stderr
    assert f"shape ({draws},)" in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


def test_largest_accepted_counts_run_theta_fringes(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"experiment = theta-fringes\ncounts = {MAX_MEAN_COUNTS!r}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "theta-fringes.meta.json").read_text())
    fits = meta["summary"]["fitted_visibility"]
    assert all(fit["sigma"] > 0.0 for fit in fits.values())
    assert fits["Xp"]["v"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "doc",
    [
        "experiment = theta-fringes\nratio = 0\n",
        "experiment = theta-fringes\nratio = 1\n",
        "experiment = theta-fringes\nt1 = 0\n",
        "experiment = theta-fringes\nt2 = 0\n",
        "experiment = theta-fringes\ncounts = 0\n",
        "experiment = scaling-balanced\nxi = 0\n",
        "experiment = scaling-balanced\nxi = 0\nnormalize = false\n",
        "experiment = imbalance-restore\nxi = 0\n",
    ],
)
def test_domain_rule_breaks_exit_2(doc, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:\n")
    assert "this experiment needs" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        "experiment = theta-fringes\ncounts = 0.001\n",
        "experiment = theta-fringes\nxi = 1e-200\n",
        "experiment = scaling-balanced\nxi = 1e-200\nnormalize = false\n",
        "experiment = imbalance-restore\nxi = 1e-200\n",
        "experiment = concurrence-slices\nt1 = 1e-300\nt2 = 1e-300\n",
        # t1^2 + t2^2 underflows to 0 in optimal_inputs' pair scale
        "experiment = imbalance-restore\nt1 = 5e-324\nt2 = 5e-324\n",
        "experiment = imbalance-restore\nt1 = 1e-200\nt2 = 1e-200\n",
    ],
)
def test_vanishing_signal_exits_2_with_one_line(doc, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_surface_accepts_a_zero_t1_like_a_zero_t2(tmp_path, capsys):
    rows = {}
    for name, grids in (("t1_zero", "t1 = 0, 0.5\nt2 = 0.5\n"),
                        ("t2_zero", "t1 = 0.5\nt2 = 0, 0.5\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("experiment = concurrence-surface\n" + grids)
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "concurrence-surface.csv").read_text().splitlines()
        rows[name] = [line.split(",") for line in lines[1:]]
    assert capsys.readouterr().err == ""
    assert rows["t1_zero"] == [["0.0", "0.5", "0.0"], ["0.5", "0.5", "0.5714285714285713"]]
    assert rows["t2_zero"] == [[t2, t1, c] for t1, t2, c in rows["t1_zero"]]


def test_surface_with_both_t_zero_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = concurrence-surface\nt1 = 0, 0.5\nt2 = 0, 0.5\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: degenerate inputs: heralding probability is zero\n"
    assert not (tmp_path / "out").exists()


def test_tiny_xi_scaling_fails_alike_with_and_without_normalize(tmp_path, capsys):
    errors = []
    for normalize in ("true", "false"):
        cfg = tmp_path / f"sweep_{normalize}.cfg"
        cfg.write_text(f"experiment = scaling-balanced\nxi = 2.5e-8\nnormalize = {normalize}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: degenerate inputs: heralding probability is zero\n"


def test_single_t_scaling_has_no_slope(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = scaling-balanced\nt = 1.0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "scaling-balanced.meta.json").read_text())
    assert meta["summary"]["slope_loglog"] is None


def test_overflowing_ratio_exits_2_without_a_warning(tmp_path):
    # t2 / t1 overflows for t1 = 5e-324; the pair scale underflows first.
    # A subprocess, because pytest would record a warning, not print it.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = imbalance-restore\nt1 = 5e-324\n")
    proc = subprocess.run(
        [sys.executable, "-m", "swapsim", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: degenerate inputs: photon-pair scale underflows to zero\n"


def test_unresolvable_scaling_slope_is_null_without_a_warning(tmp_path):
    # the two t are one ulp apart: polyfit cannot resolve a slope from them
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = scaling-balanced\nt = 0.5, 0.5000000000000001\n")
    proc = subprocess.run(
        [sys.executable, "-m", "swapsim", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    meta = json.loads((tmp_path / "out" / "scaling-balanced.meta.json").read_text())
    assert meta["summary"]["slope_loglog"] is None


@pytest.mark.parametrize(
    "doc",
    [
        # each sign has probability 7.6e-16, both together 1.5e-15
        "experiment = concurrence-slices\nt1 = 3.9e-8\nt2 = 3.9e-8\n",
        "experiment = concurrence-surface\nt1 = 5e-8\nt2 = 0\n",
        "experiment = scaling-balanced\nt = 1e-13, 0.5\n",
    ],
)
def test_dump_state_does_not_change_the_exit_code(doc, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(doc)
    plain = main(["run", str(cfg), "--out", str(tmp_path / "plain")])
    dumped = main(["run", str(cfg), "--out", str(tmp_path / "dumped"),
                   "--dump-state", str(tmp_path / "state.json")])
    assert plain == dumped
