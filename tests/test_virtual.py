import numpy as np
import pytest

from imufresh.errors import BadParameters, DuplicateKind, NoPairsFound, UnknownKind
from imufresh.timeseries import Recording
from imufresh.virtual import VirtualSensorSpec, apply_virtual_sensors, default_pairing


def _rec(channels, rate=500.0):
    return Recording(sample_rate_hz=rate, channels=channels)


class TestSpecs:
    def test_abs_diff_needs_two_distinct_inputs(self):
        with pytest.raises(BadParameters):
            VirtualSensorSpec("abs_diff", ("a", "a"), "out")
        with pytest.raises(BadParameters):
            VirtualSensorSpec("abs_diff", ("a",), "out")

    def test_derivative_needs_one_input(self):
        with pytest.raises(BadParameters):
            VirtualSensorSpec("derivative", ("a", "b"), "out")

    def test_unknown_op(self):
        with pytest.raises(BadParameters):
            VirtualSensorSpec("product", ("a", "b"), "out")

    def test_line_roundtrip(self):
        spec = VirtualSensorSpec("abs_diff", ("accel_x_l", "accel_x_r"), "accel_x_diff")
        assert VirtualSensorSpec.from_line(spec.to_line()) == spec


class TestApply:
    def test_abs_diff_definition(self):
        rec = _rec({"a": [1.0, 4.0], "b": [3.0, 1.0]})
        out = apply_virtual_sensors(rec, [VirtualSensorSpec("abs_diff", ("a", "b"), "c")])
        assert np.array_equal(out.channels["c"], [2.0, 3.0])

    def test_abs_diff_identical_inputs_is_zero(self):
        rec = _rec({"a": [1.0, 4.0, -2.0], "b": [1.0, 4.0, -2.0]})
        out = apply_virtual_sensors(rec, [VirtualSensorSpec("abs_diff", ("a", "b"), "c")])
        assert np.array_equal(out.channels["c"], [0.0, 0.0, 0.0])

    def test_diff_definition(self):
        rec = _rec({"a": [1.0, 4.0], "b": [3.0, 1.0]})
        out = apply_virtual_sensors(rec, [VirtualSensorSpec("diff", ("a", "b"), "c")])
        assert np.array_equal(out.channels["c"], [-2.0, 3.0])

    def test_derivative_forward_difference(self):
        rec = _rec({"x": [0.0, 1.0, 3.0]}, rate=500.0)
        out = apply_virtual_sensors(rec, [VirtualSensorSpec("derivative", ("x",), "dx")])
        assert np.array_equal(out.channels["dx"], [0.0, 500.0, 1000.0])

    def test_input_not_mutated_and_channel_count(self):
        rec = _rec({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        out = apply_virtual_sensors(rec, [VirtualSensorSpec("diff", ("a", "b"), "c")])
        assert rec.kinds == ("a", "b")
        assert len(out.channels) == len(rec.channels) + 1

    def test_base_channels_share_memory_with_input(self):
        rec = _rec({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        out = apply_virtual_sensors(rec, [VirtualSensorSpec("diff", ("a", "b"), "c")])
        assert np.shares_memory(out.channels["a"], rec.channels["a"])
        assert not out.channels["c"].flags.writeable

    def test_missing_input(self):
        rec = _rec({"a": [1.0, 2.0]})
        with pytest.raises(UnknownKind):
            apply_virtual_sensors(rec, [VirtualSensorSpec("abs_diff", ("a", "zz"), "c")])

    def test_duplicate_output(self):
        rec = _rec({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        with pytest.raises(DuplicateKind):
            apply_virtual_sensors(rec, [VirtualSensorSpec("diff", ("a", "b"), "a")])

    def test_chained_specs(self):
        rec = _rec({"a": [1.0, 5.0], "b": [4.0, 2.0]})
        out = apply_virtual_sensors(
            rec,
            [
                VirtualSensorSpec("diff", ("a", "b"), "c"),
                VirtualSensorSpec("abs_diff", ("c", "a"), "d"),
            ],
        )
        assert np.array_equal(out.channels["d"], np.abs(out.channels["c"] - rec.channels["a"]))

    def test_abs_diff_symmetric_nonnegative(self):
        rng = np.random.default_rng(5)
        rec = _rec({"a": rng.standard_normal(64), "b": rng.standard_normal(64)})
        ab = apply_virtual_sensors(rec, [VirtualSensorSpec("abs_diff", ("a", "b"), "x")])
        ba = apply_virtual_sensors(rec, [VirtualSensorSpec("abs_diff", ("b", "a"), "x")])
        assert np.array_equal(ab.channels["x"], ba.channels["x"])
        assert np.all(ab.channels["x"] >= 0.0)


class TestDefaultPairing:
    def test_two_bases(self):
        rec = _rec(
            {k: [0.0, 1.0] for k in ("accel_x_l", "accel_x_r", "gyro_y_l", "gyro_y_r")}
        )
        specs = default_pairing(rec, "_l", "_r")
        assert [s.output for s in specs] == ["accel_x_diff", "gyro_y_diff"]
        assert all(s.op == "abs_diff" for s in specs)

    def test_full_two_sensor_set_gives_six(self):
        kinds = [
            f"{sensor}_{axis}_{side}"
            for sensor in ("accel", "gyro")
            for axis in ("x", "y", "z")
            for side in ("l", "r")
        ]
        rec = _rec({k: [0.0, 1.0] for k in kinds})
        specs = default_pairing(rec, "_l", "_r")
        assert len(specs) == 6
        assert {s.output for s in specs} == {
            "accel_x_diff", "accel_y_diff", "accel_z_diff",
            "gyro_x_diff", "gyro_y_diff", "gyro_z_diff",
        }

    def test_compass_channels_not_paired(self):
        rec = _rec({"compass_x_l": [0.0, 1.0], "compass_x_r": [0.0, 1.0]})
        with pytest.raises(NoPairsFound):
            default_pairing(rec, "_l", "_r")

    def test_one_sided_base_skipped(self):
        rec = _rec(
            {"accel_x_l": [0.0, 1.0], "accel_x_r": [0.0, 1.0], "gyro_y_l": [0.0, 1.0]}
        )
        specs = default_pairing(rec, "_l", "_r")
        assert [s.output for s in specs] == ["accel_x_diff"]

    def test_deterministic_order(self):
        kinds = ["gyro_z_l", "gyro_z_r", "accel_a_l", "accel_a_r", "gyro_b_l", "gyro_b_r"]
        rec = _rec({k: [0.0, 1.0] for k in kinds})
        outputs = [s.output for s in default_pairing(rec, "_l", "_r")]
        assert outputs == ["accel_a_diff", "gyro_b_diff", "gyro_z_diff"]
