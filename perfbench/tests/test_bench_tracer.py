import pytest

import swapsim.cli
import swapsim.protocol
import swapsim.recipes
from tracer import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", -1, 0, 100],
        ["a", 0, 10, 40],
        ["leaf", 1, 15, 25],
        ["b", 0, 50, 90],
        ["leaf", 3, 60, 65],
    ]
    calls, self_ns = self_times(spans)
    assert calls == {"root": 1, "a": 1, "leaf": 2, "b": 1}
    assert self_ns == {"root": 30, "a": 20, "leaf": 15, "b": 35}
    assert sum(self_ns.values()) == 100


def test_self_time_of_siblings_at_top_level():
    calls, self_ns = self_times([["x", -1, 0, 5], ["x", -1, 7, 10]])
    assert calls == {"x": 2} and self_ns == {"x": 8}


def test_traced_calls_reach_every_binding_and_are_undone():
    original = swapsim.protocol.swap
    tr = Tracer()
    assert tr.problems == set()
    tr.install()
    try:
        assert swapsim.recipes.swap is not original
        assert swapsim.recipes.swap is swapsim.protocol.swap
        swapsim.recipes.run_oracle_draws(3, seed=0)
    finally:
        tr.uninstall()
    assert swapsim.recipes.swap is original and swapsim.protocol.swap is original
    calls, self_ns = tr.take()
    assert calls["recipes.run_oracle_draws"] == 1
    assert calls["protocol.swap"] == 6
    assert calls["loss.dilate"] == 12
    assert all(ns >= 0 for ns in self_ns.values())
    assert tr.problems == set()


def test_a_function_held_in_a_container_is_reported(monkeypatch):
    monkeypatch.setattr(swapsim.recipes, "HELD", {"s": swapsim.protocol.swap},
                        raising=False)
    problems = Tracer().problems
    assert any("swapsim.recipes.HELD holds swapsim.protocol.swap" in p for p in problems)


def test_a_binding_made_after_wrapping_is_reported(monkeypatch):
    original = swapsim.protocol.bsm
    tr = Tracer()
    tr.install()
    monkeypatch.setattr(swapsim.cli, "late_bsm", original, raising=False)
    tr.uninstall()
    assert "swapsim.cli.late_bsm was not wrapped" in tr.problems


def test_a_listed_function_that_is_gone_is_reported(monkeypatch):
    monkeypatch.delattr(swapsim.protocol, "optimal_inputs")
    assert "swapsim.protocol.optimal_inputs is missing" in Tracer().problems


def test_a_call_that_raises_still_closes_its_span():
    tr = Tracer()
    tr.install()
    try:
        with pytest.raises(ValueError):
            swapsim.protocol.closed_form_rho(swapsim.protocol.MAX_ENTANGLED_PAIR,
                                             1.0, 1.0, sign=0)
    finally:
        tr.uninstall()
    calls, _ = tr.take()
    assert calls == {"protocol.closed_form_rho": 1}
