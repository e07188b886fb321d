import json
import subprocess
import sys

import pytest

from swapsim import DensityMatrix
from swapsim.cli import main


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
        rho = DensityMatrix.from_json_dict(json.loads(dump.read_text()))
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

    def test_negative_seed_exits_2(self, oracle_cfg, tmp_path):
        assert main(["run", str(oracle_cfg), "--out", str(tmp_path),
                     "--seed", "-1"]) == 2


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check", "--draws", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_bad_draws_exit_2(self):
        assert main(["check", "--draws", "0"]) == 2


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
    ],
)
def test_vanishing_signal_exits_2_with_one_line(doc, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


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
