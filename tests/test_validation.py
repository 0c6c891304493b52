"""Tests for the internal validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    require_bool,
    require_in_range,
    require_nonnegative_int,
    require_positive,
    require_positive_int,
    require_probability,
)
from repro.sim.options import SimulatorOptions


class TestRequirePositiveInt:
    def test_accepts_python_int(self):
        assert require_positive_int(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert require_positive_int(np.int64(7), "x") == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            require_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive_int(-1, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="must be an integer"):
            require_positive_int(1.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive_int(True, "x")


class TestRequireNonnegativeInt:
    def test_accepts_zero(self):
        assert require_nonnegative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            require_nonnegative_int(-3, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            require_nonnegative_int("1", "x")


class TestRequirePositive:
    def test_accepts_float(self):
        assert require_positive(0.5, "x") == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive(0.0, "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_positive(float("inf"), "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_positive(float("nan"), "x")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert require_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match="p must lie in"):
            require_probability(value, "p")


class TestRequireInRange:
    def test_accepts_bounds(self):
        assert require_in_range(2, "x", 2, 4) == 2.0
        assert require_in_range(4, "x", 2, 4) == 4.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(5, "x", 2, 4)


class TestRequireBool:
    def test_accepts_python_and_numpy_bools(self):
        assert require_bool(True, "x") is True
        assert require_bool(np.bool_(False), "x") is False

    @pytest.mark.parametrize("value", ["false", 1, 0, None, 1.0])
    def test_rejects_truthy_stand_ins(self, value):
        with pytest.raises(TypeError, match="x must be a bool"):
            require_bool(value, "x")


class TestSimulatorOptionsSwitches:
    """The three on/off switches reject non-bools at construction: a string
    ``"false"`` is truthy and would silently switch the feature *on*."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replication", "false"),
            ("audit", 1),
            ("proactive", "no"),
            ("replication", None),
        ],
    )
    def test_non_bool_switch_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a bool"):
            SimulatorOptions(**{field: value})

    def test_bool_switches_accepted(self):
        options = SimulatorOptions(
            replication=np.bool_(False), proactive=True, audit=False
        )
        assert not options.replication and options.proactive
