"""The exception hierarchy: everything catchable as ReproError."""

import math

import numpy as np
import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GeometryError,
            errors.AdjacencyError,
            errors.MappingError,
            errors.AllocationError,
            errors.QueryError,
            errors.DatasetError,
        ],
    )
    def test_derives_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")

    def test_library_raises_catchable_errors(self, small_model):
        """A few real failure paths, all caught by the base class."""
        from repro.core import MultiMapMapper, plan_basic_cube
        from repro.lvm import LogicalVolume

        with pytest.raises(errors.ReproError):
            plan_basic_cube((), 100, 100, 8)
        vol = LogicalVolume([small_model])
        with pytest.raises(errors.ReproError):
            MultiMapMapper((10**6, 10**3), vol)
        with pytest.raises(errors.ReproError):
            vol.allocate_blocks(0, -5)
        with pytest.raises(errors.ReproError):
            small_model.geometry.check_lbn(-1)


class TestIntegerCheck:
    """``_check_int`` returns a plain int at once and checks anything
    else in full, raising the caller's error type."""

    @pytest.mark.parametrize("value", [3, -3, np.int64(3), np.uint8(3),
                                       np.int32(-3)])
    def test_integers_come_back_as_python_ints(self, value):
        out = errors._check_int("x", value, errors.GeometryError)
        assert type(out) is int and out == int(value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0,
                                       np.float64(3.0), math.nan, "3",
                                       None])
    def test_everything_else_raises_the_given_error(self, value):
        with pytest.raises(errors.GeometryError, match="x must be an int"):
            errors._check_int("x", value, errors.GeometryError)
