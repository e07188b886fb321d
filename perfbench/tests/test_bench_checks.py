import contextlib
import io

import pytest

import swapsim.cli
import workloads
from workloads import BundledConfigs, check_oracle, check_surface, surface_grid

ROOT = workloads.Path(__file__).resolve().parents[2]


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = swapsim.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def oracle_stdout():
    code, out = _main(["check", "--draws", "5", "--seed", "1"])
    assert code == 0
    return out


def test_oracle_output_passes(oracle_stdout):
    assert check_oracle([0], oracle_stdout) == []


def test_oracle_rejects_nonzero_exit(oracle_stdout):
    assert check_oracle([4], oracle_stdout) == ["run 0 exited with code 4"]


@pytest.mark.parametrize("old, new", [
    ("PASS state", "FAIL state"),
    ("(tolerance 1e-10)", "(tolerance 1e-08)"),
])
def test_oracle_rejects_a_failed_or_loosened_check(oracle_stdout, old, new):
    assert old in oracle_stdout
    assert check_oracle([0], oracle_stdout.replace(old, new))


def test_oracle_rejects_a_missing_check_line(oracle_stdout):
    lines = oracle_stdout.splitlines()
    assert check_oracle([0], "\n".join(lines[1:]))


@pytest.fixture()
def surface(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("experiment = concurrence-surface\n"
                   "t1 = linspace(0.01, 1, 4)\nt2 = linspace(0.01, 1, 4)\n")
    code, _ = _main(["run", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    return tmp_path / "concurrence-surface.csv", surface_grid(4)


def test_surface_output_passes(surface):
    assert check_surface([0], *surface) == []


def test_surface_rejects_nonzero_exit(surface):
    assert check_surface([3], *surface) == ["run 0 exited with code 3"]


def test_surface_rejects_a_corrupted_concurrence(surface):
    path, grid = surface
    lines = path.read_text().splitlines()
    t1, t2, c = lines[5].split(",")
    lines[5] = f"{t1},{t2},{float(c) + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n")
    problems = check_surface([0], path, grid)
    assert len(problems) == 1 and "concurrence" in problems[0]


@pytest.mark.parametrize("corrupt", [
    lambda lines: ["t1,t2,C"] + lines[1:],
    lambda lines: lines[:-1],
    lambda lines: lines[:3] + ["0.01,x,0.5"] + lines[4:],
])
def test_surface_rejects_a_bad_header_or_row_count_or_row(surface, corrupt):
    path, grid = surface
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    assert check_surface([0], path, grid)


@pytest.fixture()
def bundled(tmp_path):
    wl = BundledConfigs(ROOT, tmp_path, seed=7)
    wl.prepare()
    codes = [_main(argv)[0] for argv in wl.argvs(1)]
    assert codes == [0] * wl.items_per_pass
    return wl, codes


def test_bundled_outputs_pass(bundled):
    wl, codes = bundled
    problems, hashes = wl.check(1, codes, "")
    assert problems == []
    assert "theta_fringes/counts_Zm_seed8.csv" in hashes


def test_bundled_rejects_nonzero_exit(bundled):
    wl, codes = bundled
    problems, _ = wl.check(1, [0, 2] + codes[2:], "")
    assert problems == ["run 1 exited with code 2"]


def test_bundled_rejects_a_corrupted_csv_header(bundled):
    wl, codes = bundled
    path = wl.work_dir / "out" / "scaling_balanced" / "scaling-balanced.csv"
    path.write_text(path.read_text().replace("p_normalized", "p_norm", 1))
    problems, _ = wl.check(1, codes, "")
    assert problems == ["scaling-balanced: scaling-balanced.csv has header "
                        "'t,t1,p_success,p_norm'"]


@pytest.mark.parametrize("name", [
    "theta_fringes/counts_Yp_seed8.csv",
    "imbalance_restore/imbalance-restore.meta.json",
    "concurrence_slices.state.json",
])
def test_bundled_rejects_a_missing_file(bundled, name):
    wl, codes = bundled
    (wl.work_dir / "out" / name).unlink()
    problems, _ = wl.check(1, codes, "")
    assert len(problems) == 1
