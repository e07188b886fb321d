"""Acceptance suite: every release-gating criterion at its fixed tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). Tolerances are pinned here and must not be loosened.
"""

import time

import numpy as np
import pytest

from swapsim import (
    MAX_ENTANGLED_PAIR,
    CountModel,
    SpdcSource,
    bell_fidelity,
    closed_form_rho,
    concurrence_closed_form,
    concurrence_wootters,
    estimate_visibility,
    normalized_success,
    optimal_inputs,
    random_input_pair,
    spdc_input,
    swap,
    synth_counts,
    visibility_analytic,
)

from oracles import X_BY_SIGN, optimal_t2

GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)

N_DRAWS = 1000
RHO_TOL = 1e-12
NORM_TOL = 1e-12
CONC_TOL = 1e-10
RUNTIME_BUDGET_S = 10.0


def report(number: int, name: str, passed: bool, detail: str):
    line = f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def oracle_draws():
    """1000 seeded random draws through both pipelines, timed."""
    rng = np.random.default_rng(20260809)
    dev_rho, dev_norm, dev_conc = 0.0, 0.0, 0.0
    started = time.monotonic()
    for _ in range(N_DRAWS):
        pair = random_input_pair(rng)
        t1, t2 = rng.uniform(0.05, 1.0, size=2)
        sign = +1 if rng.integers(0, 2) == 0 else -1
        brute = swap(pair, t1, t2, X_BY_SIGN[sign])
        other = swap(pair, t1, t2, X_BY_SIGN[-sign])
        rho_cf, norm = closed_form_rho(pair, t1, t2, sign)
        dev_rho = max(dev_rho, float(np.max(np.abs(brute.rho_ab.entries - rho_cf))))
        dev_norm = max(dev_norm, abs(brute.p_success + other.p_success - norm))
        dev_conc = max(
            dev_conc,
            abs(concurrence_wootters(brute.rho_ab)
                - concurrence_closed_form(pair, t1, t2)),
        )
    elapsed = time.monotonic() - started
    return {"rho": dev_rho, "norm": dev_norm, "conc": dev_conc, "time": elapsed}


def test_criterion_1_oracle_equivalence(oracle_draws):
    ok = (
        oracle_draws["rho"] <= RHO_TOL
        and oracle_draws["norm"] <= NORM_TOL
        and oracle_draws["time"] < RUNTIME_BUDGET_S
    )
    report(
        1,
        "closed form vs brute force over 1000 draws",
        ok,
        f"max dev rho {oracle_draws['rho']:.2e}, "
        f"max dev norm {oracle_draws['norm']:.2e}, "
        f"runtime {oracle_draws['time']:.2f} s",
    )


def test_criterion_2_concurrence_cross_check(oracle_draws):
    report(
        2,
        "closed-form vs spin-flip concurrence over 1000 draws",
        oracle_draws["conc"] <= CONC_TOL,
        f"max dev {oracle_draws['conc']:.2e}",
    )


def test_criterion_3_concurrence_features():
    # lossless endpoint: exact up to double-precision product reordering
    c_ideal = concurrence_closed_form(MAX_ENTANGLED_PAIR, 1.0, 1.0)
    ok = abs(c_ideal - 1.0) <= 1e-12
    worst = 0.0
    for tau in (0.1, 0.3, 0.6, 0.9):
        got = concurrence_closed_form(MAX_ENTANGLED_PAIR, tau, tau)
        worst = max(worst, abs(got - 1.0 / (2.0 - tau ** 2)))
    ok = ok and worst <= 1e-12
    balanced = concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.3, 0.3)
    lossless_arm = concurrence_closed_form(MAX_ENTANGLED_PAIR, 0.3, 1.0)
    ok = ok and abs(balanced - 0.5236) <= 1e-3
    ok = ok and abs(lossless_arm - 0.3000) <= 1e-3
    ok = ok and balanced > lossless_arm
    report(
        3,
        "concurrence endpoints, balanced closed form, loss-beats-less pair",
        ok,
        f"C(1,1)={c_ideal:.12f}, max balanced dev {worst:.2e}, "
        f"C(.3,.3)={balanced:.4f} > C(.3,1)={lossless_arm:.4f}",
    )


def grid_argmax_t2(t1):
    """Argmax of the closed-form concurrence over t2: a coarse grid, then a fine one."""
    coarse = np.linspace(1e-4, 1.0, 10001)
    best = coarse[np.argmax(concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, coarse))]
    fine = np.linspace(best - 1e-4, best + 1e-4, 20001)
    return float(fine[np.argmax(concurrence_closed_form(MAX_ENTANGLED_PAIR, t1, fine))])


def test_criterion_4_optimum_location():
    worst = 0.0
    for t1 in (0.1, 0.3, 0.5, 0.7):
        worst = max(worst, abs(optimal_t2(t1) - grid_argmax_t2(t1)))
    report(
        4,
        "argmax of concurrence sits at t1/sqrt(1-t1^2)",
        worst <= 1e-5,
        f"max |t2* - grid argmax| = {worst:.2e}",
    )


def test_criterion_5_linear_scaling():
    pair = spdc_input(SpdcSource(0.05), SpdcSource(0.05))
    ts = np.geomspace(1e-3, 1e-1, 25)
    swap_scaling = [normalized_success(pair, np.sqrt(t), np.sqrt(t)) for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(swap_scaling), 1)[0])
    direct_reference = float(np.polyfit(np.log(ts), np.log(ts ** 2), 1)[0])
    ok = abs(slope - 1.0) <= 0.02 and direct_reference == pytest.approx(2.0)
    report(
        5,
        "heralding probability scales linearly in t (direct reference is t^2)",
        ok,
        f"fitted slope {slope:.4f} vs direct-transmission slope {direct_reference:.1f}",
    )


def test_criterion_6_imbalance_restoration():
    t1, t2 = 1.0, 0.2
    equal_pair = spdc_input(SpdcSource(0.05), SpdcSource(0.05))
    rho_eq, _ = closed_form_rho(equal_pair, t1, t2)
    v_equal = visibility_analytic(rho_eq)
    ok = abs(v_equal - 0.3846) <= 1e-3

    pair = optimal_inputs(t1, t2, 0.01)
    rho_opt, _ = closed_form_rho(pair, t1, t2)
    v_opt = visibility_analytic(rho_opt)
    f_opt = bell_fidelity(rho_opt, +1, 0.0)
    ok = ok and v_opt >= 0.999 and f_opt >= 0.999

    shape = 2.0 * t1 ** 2 * t2 ** 2 / (t1 ** 2 + t2 ** 2)
    p_norm = normalized_success(pair, t1, t2)
    ok = ok and abs(p_norm - shape) <= 1e-3
    report(
        6,
        "unbalanced-loss visibility and its restoration by matched inputs",
        ok,
        f"V_equal={v_equal:.4f} (2 t2/(1+t2^2)={2 * t2 / (1 + t2 ** 2):.4f}), "
        f"V_opt={v_opt:.6f}, F_opt={f_opt:.6f}, "
        f"p_norm={p_norm:.6f} vs shape {shape:.6f}",
    )


def test_criterion_7_separable_setting_null():
    pair = spdc_input(SpdcSource(0.1), SpdcSource(0.1))
    coherences = []
    for name in ("Z+", "Z-"):
        out = swap(pair, 0.9, 0.7, name)
        coherences.append(abs(out.rho_ab.entries[1, 2]))
    ok = max(coherences) < 1e-14

    counts = synth_counts(pair, 1.0, 1.0, "Z+", GRID16,
                          CountModel(1e5, seed=20260809))
    fit = estimate_visibility(GRID16, counts.counts_plus)
    ok = ok and abs(fit.v) <= 3.0 * fit.sigma
    report(
        7,
        "separable middle-station setting heralds no interference",
        ok,
        f"max |rho23| = {max(coherences):.2e}, fitted V = {fit.v:.4f} "
        f"+/- {fit.sigma:.4f}",
    )


def test_criterion_8_estimator_calibration():
    rho, _ = closed_form_rho(MAX_ENTANGLED_PAIR, 1.0, 0.5)
    v_true = visibility_analytic(rho)
    pulls = []
    for seed in range(100):
        counts = synth_counts(MAX_ENTANGLED_PAIR, 1.0, 0.5, "X+",
                              GRID16, CountModel(1e5, seed=seed))
        fit = estimate_visibility(GRID16, counts.counts_plus)
        pulls.append((fit.v - v_true) / fit.sigma)
    pulls = np.asarray(pulls)
    mean, width = float(pulls.mean()), float(pulls.std(ddof=1))
    ok = abs(mean) < 0.3 and 0.7 <= width <= 1.3
    report(
        8,
        "visibility-estimator pulls over 100 seeds",
        ok,
        f"mean {mean:+.3f} (|mean| < 0.3), width {width:.3f} (in [0.7, 1.3])",
    )


def test_criterion_9_ideal_model_bounds():
    # hardware-limited laboratory numbers are out of reach by construction;
    # the ideal model must instead saturate V = F = 1 for lossless and for
    # balanced channels
    out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, "X+")
    v_lossless = visibility_analytic(out.rho_ab)
    f_lossless = bell_fidelity(out.rho_ab, +1, 0.0)
    ok = abs(v_lossless - 1.0) <= 1e-12 and abs(f_lossless - 1.0) <= 1e-12
    worst_balanced = 0.0
    for tau in (0.3, 0.7):
        rho, _ = closed_form_rho(MAX_ENTANGLED_PAIR, tau, tau)
        worst_balanced = max(worst_balanced,
                             abs(visibility_analytic(rho) - 1.0))
    ok = ok and worst_balanced <= 1e-12
    y_out = swap(MAX_ENTANGLED_PAIR, 1.0, 1.0, "Y+")
    f_y = bell_fidelity(y_out.rho_ab, +1, -np.pi / 2.0)
    ok = ok and abs(f_y - 1.0) <= 1e-12
    report(
        9,
        "ideal-model bound V = F = 1 for lossless/balanced settings",
        ok,
        f"V={v_lossless:.12f}, F={f_lossless:.12f}, "
        f"max balanced dev {worst_balanced:.2e}, F_Y={f_y:.12f}",
    )
