import math

import numpy as np
import pytest

from swapsim import ConfigError, SweepConfig, validate_config
from swapsim.experiment import MAX_MEAN_COUNTS, SpdcSource
from swapsim.protocol import optimal_inputs

from oracles import to_text


class TestDefaults:
    def test_empty_document(self):
        cfg = validate_config("")
        assert cfg.experiment == "oracle-check"
        assert cfg.seed == 0
        assert cfg.normalize is True
        assert cfg.t1 is None

    def test_comments_and_blank_lines_ignored(self):
        cfg = validate_config("# a comment\n\n  \nseed = 5\n")
        assert cfg.seed == 5


class TestParsing:
    def test_full_document(self):
        cfg = validate_config(
            """
            experiment = imbalance-restore
            seed = 42
            normalize = false
            out = results
            t1 = 1.0
            t2 = 0.2, 0.5, 1.0
            xi = 0.05
            epsilon = 0.01
            """
        )
        assert cfg.experiment == "imbalance-restore"
        assert cfg.seed == 42
        assert cfg.normalize is False
        assert cfg.out == "results"
        assert cfg.t2 == (0.2, 0.5, 1.0)

    def test_linspace_grid(self):
        cfg = validate_config("experiment = concurrence-slices\nt2 = linspace(0, 1, 5)\n")
        assert cfg.t2 == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_logspace_grid(self):
        cfg = validate_config("experiment = scaling-balanced\nt = logspace(1e-3, 1, 4)\n")
        np.testing.assert_allclose(cfg.t, (1e-3, 1e-2, 1e-1, 1.0), rtol=1e-12)

    def test_singleton_grid(self):
        cfg = validate_config("experiment = scaling-balanced\nxi = 0.05\n")
        assert cfg.xi == (0.05,)


class TestViolations:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            validate_config("bogus = 1\n")

    def test_out_of_range_names_the_key(self):
        with pytest.raises(ConfigError, match="'t1'"):
            validate_config("experiment = concurrence-slices\nt1 = 1.2\n")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="malformed number"):
            validate_config("experiment = concurrence-slices\nt1 = zero\n")

    @pytest.mark.parametrize("grid, message", [
        ("linspace(a, 1, 3)", "malformed number in 'linspace(a, 1, 3)'"),
        ("linspace(0, 1, 0)", "grid needs at least one point"),
        ("0.1,,0.2", "empty entry in '0.1,,0.2'"),
        ("nan", "value nan is not finite"),
        ("inf", "value inf is not finite"),
    ])
    def test_grid_errors_name_the_key(self, grid, message):
        with pytest.raises(ConfigError) as info:
            validate_config(f"t1 = {grid}\n")
        assert str(info.value) == f"key 't1': {message}"

    def test_every_violation_is_listed(self):
        try:
            validate_config("t1 = 1.2\nbogus = 3\nseed = -1\n")
        except ConfigError as exc:
            message = str(exc)
        assert "'t1'" in message
        assert "'bogus'" in message
        assert "'seed'" in message

    def test_bad_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config("experiment = nope\n")

    def test_bad_seed_draws_counts_normalize(self):
        for doc, match in [
            ("seed = 1.5\n", "seed"),
            ("draws = 0\n", "draws"),
            ("counts = -1\n", "counts"),
            ("normalize = maybe\n", "normalize"),
        ]:
            with pytest.raises(ConfigError, match=match):
                validate_config(doc)

    @pytest.mark.parametrize("value", ["1e19", repr(np.nextafter(MAX_MEAN_COUNTS, np.inf))])
    def test_counts_beyond_the_poisson_limit_rejected(self, value):
        with pytest.raises(ConfigError) as exc:
            validate_config(f"experiment = theta-fringes\ncounts = {value}\n")
        assert str(exc.value) == (f"key 'counts': need a number in [0, {MAX_MEAN_COUNTS!r}], "
                                  f"got {value!r}")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            validate_config("seed = 1\nseed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            validate_config("seed 1\n")

    def test_theta_domain_is_half_open(self):
        with pytest.raises(ConfigError, match="theta"):
            validate_config(
                f"experiment = theta-fringes\ntheta = 0, {2 * np.pi}\n"
            )

    def test_epsilon_domain_excludes_zero(self):
        with pytest.raises(ConfigError, match="epsilon"):
            validate_config("experiment = imbalance-restore\nepsilon = 0\n")

    def test_xi_magnitude_bound(self):
        with pytest.raises(ConfigError, match="xi"):
            validate_config("experiment = scaling-balanced\nxi = 0.6\n")

    def test_xi_and_epsilon_maxima_are_the_library_bounds(self):
        """0.5 is accepted for xi and epsilon by the config and by
        ``SpdcSource`` and ``optimal_inputs`` alike; the next float up is
        refused by all three, each with its own message."""
        doc = "experiment = imbalance-restore\nxi = {0!r}\nepsilon = {0!r}\n"
        cfg = validate_config(doc.format(0.5))
        assert cfg.xi == cfg.epsilon == (0.5,)
        assert SpdcSource(0.5).xi == 0.5
        assert optimal_inputs(1.0, 1.0, 0.5).delta == 0.5
        past = math.nextafter(0.5, 1.0)
        with pytest.raises(ConfigError) as info:
            validate_config(doc.format(past))
        assert str(info.value) == (f"key 'xi': value {past!r} outside [-0.5, 0.5]\n"
                                   f"key 'epsilon': value {past!r} outside (0, 0.5]")
        with pytest.raises(ValueError) as info:
            SpdcSource(past)
        assert str(info.value) == "|xi| = 0.500 > 0.5: single-pair truncation not valid"
        with pytest.raises(ValueError) as info:
            optimal_inputs(1.0, 1.0, past)
        assert str(info.value) == f"epsilon must lie in (0, 0.5], got {past}"

    def test_logspace_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="logspace"):
            validate_config("experiment = scaling-balanced\nt = logspace(0, 1, 5)\n")

    @pytest.mark.parametrize("grid, n", [
        ("linspace(0.1, 1, 100000000000000000000)", 10 ** 20),
        ("logspace(0.1, 1, 100000000000000000000)", 10 ** 20),
        ("linspace(0.1, 1, 9223372036854775807)", 2 ** 63 - 1),
    ])
    def test_unallocatable_count_names_the_key(self, grid, n):
        # numpy rejects these counts before allocating anything
        with pytest.raises(ConfigError, match=f"^key 't2': cannot allocate a grid of {n} points"):
            validate_config(f"experiment = concurrence-surface\nt2 = {grid}\n")

    def test_key_unused_by_experiment(self):
        with pytest.raises(ConfigError, match="not used"):
            validate_config("experiment = scaling-balanced\nt1 = 0.5\n")

    def test_fringes_require_singletons(self):
        with pytest.raises(ConfigError, match="single value"):
            validate_config("experiment = theta-fringes\nxi = 0.1, 0.2\n")

    def test_imbalance_takes_a_single_t1(self):
        with pytest.raises(ConfigError, match="'t1': this experiment takes a single value"):
            validate_config("experiment = imbalance-restore\nt1 = 1.0, 0.2\n")

    def test_scaling_takes_a_single_xi(self):
        with pytest.raises(ConfigError, match="'xi': this experiment takes a single value"):
            validate_config("experiment = scaling-balanced\nxi = 0.05, 0.4\n")

    def test_fringes_reject_vacuum(self):
        with pytest.raises(ConfigError, match="xi != 0"):
            validate_config("experiment = theta-fringes\nxi = 0\n")

    def test_slices_reject_dead_t1(self):
        with pytest.raises(ConfigError, match="t1 > 0"):
            validate_config("experiment = concurrence-slices\nt1 = 0, 0.5\n")

    def test_imbalance_rejects_dead_t2(self):
        with pytest.raises(ConfigError, match="t2 > 0"):
            validate_config("experiment = imbalance-restore\nt2 = 0, 0.5\n")

    def test_scaling_rejects_dead_t(self):
        with pytest.raises(ConfigError, match="t > 0"):
            validate_config("experiment = scaling-balanced\nt = 0, 0.5\n")

    @pytest.mark.parametrize("theta, needs", [
        ("0.5, 0.1, 1, 2, 3, 4, 5, 6", ["strictly increasing phases"]),
        ("0.1, 1, 2", ["at least 8 phases", "phases spanning a full period"]),
        ("linspace(0, 0.7, 8)", ["phases spanning a full period"]),
        # max - min is 5, but every phase lies on an arc of 1.28 rad
        ("0, 1e-10, 2e-10, 3e-10, 4e-10, 5e-10, 6e-10, 5", ["phases spanning a full period"]),
    ])
    def test_fringes_check_the_phase_grid(self, theta, needs):
        with pytest.raises(ConfigError) as info:
            validate_config(f"experiment = theta-fringes\ntheta = {theta}\n")
        assert str(info.value) == "\n".join(f"key 'theta': this experiment needs {need}"
                                            for need in needs)

    @pytest.mark.parametrize("theta", ["linspace(0, 5.5, 8)", "0.5, 1, 2, 3, 4, 5, 6, 6.28"])
    def test_fringes_accept_a_phase_grid_the_fit_takes(self, theta):
        assert len(validate_config(f"experiment = theta-fringes\ntheta = {theta}\n").theta) == 8

    def test_errors_come_key_by_key_in_document_order(self):
        # an unused key sits between the rule errors of the keys around it,
        # and a key's single-value error comes before its other rule errors
        with pytest.raises(ConfigError) as info:
            validate_config("experiment = theta-fringes\nxi = 0, 0\nt = 0.5\nt1 = 0\n"
                            "epsilon = 0.1\n")
        assert str(info.value).splitlines() == [
            "key 't1': this experiment needs t1 > 0",
            "key 't' is not used by experiment 'theta-fringes'",
            "key 'epsilon' is not used by experiment 'theta-fringes'",
            "key 'xi': this experiment takes a single value",
            "key 'xi': this experiment needs xi != 0",
        ]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            "",
            "experiment = concurrence-slices\nt1 = 0.3, 0.6\nt2 = linspace(0, 1, 11)\n",
            "experiment = scaling-balanced\nseed = 9\nxi = 0.05\nt = logspace(1e-3, 1, 7)\n",
            "experiment = imbalance-restore\nt1 = 1.0\nt2 = 0.2, 0.4\nxi = 0.05\n"
            "epsilon = 0.01\nnormalize = false\nout = some/dir\n",
            "experiment = theta-fringes\nxi = 0.1\ncounts = 5000\nseed = 3\n",
            "experiment = oracle-check\ndraws = 123\n",
        ],
    )
    def test_parse_print_parse_identity(self, doc):
        cfg = validate_config(doc)
        text = to_text(cfg)
        again = validate_config(text)
        assert again == cfg
        assert to_text(again) == text

    def test_grid_values_survive_exactly(self):
        cfg = validate_config(
            "experiment = concurrence-slices\nt2 = linspace(0, 1, 101)\n"
        )
        again = validate_config(to_text(cfg))
        assert again.t2 == cfg.t2


def test_sweepconfig_is_hashable_and_frozen():
    cfg = SweepConfig()
    hash(cfg)
    with pytest.raises(AttributeError):
        cfg.seed = 3
