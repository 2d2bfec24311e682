import io

import numpy as np
import pytest

from imufresh.errors import (
    InconsistentChannels,
    InvalidKindName,
    InvalidValue,
    NonUniformSampling,
    OverlappingLabels,
    UnknownKind,
    WindowTooShort,
)
from imufresh.calculators import settings_from_feature_names
from imufresh.extraction import extract
from imufresh.timeseries import (
    Recording,
    Window,
    WindowSet,
    load_labels_csv,
    load_recording_csv,
    save_recording_csv,
    segment_fixed,
    validate_kind,
)


def _csv(rows):
    return io.BytesIO(("time,kind,value\n" + "\n".join(rows) + "\n").encode())


def _long_csv(kinds, n, dt=0.002, value=lambda k, i: float(i)):
    rows = []
    for kind in kinds:
        for i in range(n):
            rows.append(f"{i * dt},{kind},{value(kind, i)}")
    return _csv(rows)


class TestIngestion:
    def test_three_kinds_2000_rows_at_500hz(self):
        rec = load_recording_csv(_long_csv(["a", "b", "c"], 2000))
        assert rec.length == 2000
        assert rec.kinds == ("a", "b", "c")
        assert rec.sample_rate_hz == pytest.approx(500.0, rel=1e-9)

    def test_single_kind_identity_ingestion(self):
        rec = load_recording_csv(_csv(["0.0,k,1.0", "0.002,k,2.0"]))
        assert np.array_equal(rec.channels["k"], [1.0, 2.0])
        assert rec.t0 == 0.0

    def test_reserved_separator_in_kind(self):
        with pytest.raises(InvalidKindName):
            load_recording_csv(_csv(["0.0,accel__y,1.0", "0.002,accel__y,2.0"]))

    def test_ragged_channels(self):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(_csv(["0.0,a,1.0", "0.002,a,2.0", "0.0,b,1.0"]))

    def test_mismatched_time_grids(self):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(
                _csv(["0.0,a,1.0", "0.002,a,2.0", "0.001,b,1.0", "0.003,b,2.0"])
            )

    def test_non_uniform_step(self):
        with pytest.raises(NonUniformSampling):
            load_recording_csv(_csv(["0.0,a,1.0", "0.002,a,2.0", "0.005,a,3.0"]))

    def test_nan_value_rejected(self):
        with pytest.raises(InvalidValue):
            load_recording_csv(_csv(["0.0,a,nan", "0.002,a,2.0"]))

    def test_inf_value_rejected(self):
        with pytest.raises(InvalidValue):
            load_recording_csv(_csv(["0.0,a,inf", "0.002,a,2.0"]))

    def test_bad_header(self):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(io.BytesIO(b"t,k,v\n0.0,a,1.0\n"))

    def test_channels_read_only(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError):
            rec.channels["k"][0] = 99.0

    def test_nonzero_t0(self):
        rec = load_recording_csv(_csv(["10.0,a,1.0", "10.002,a,2.0"]))
        assert rec.t0 == 10.0

    def test_roundtrip_values_exact(self):
        rng = np.random.default_rng(42)
        rec = Recording(
            sample_rate_hz=100.0,
            channels={"a": rng.standard_normal(50), "b_2": rng.standard_normal(50)},
        )
        buf = io.StringIO()
        save_recording_csv(rec, buf)
        back = load_recording_csv(io.StringIO(buf.getvalue()))
        assert back.kinds == rec.kinds
        for kind in rec.kinds:
            assert back.channels[kind].tobytes() == rec.channels[kind].tobytes()
        assert back.t0 == rec.t0
        assert back.sample_rate_hz == pytest.approx(rec.sample_rate_hz, rel=1e-9)

    def test_serialization_stable_after_ingest(self):
        # ingest -> serialize reproduces the exact value fields
        text = "time,kind,value\n0.0,a,0.1\n0.01,a,-2.5\n0.02,a,3.0\n"
        rec = load_recording_csv(io.StringIO(text))
        buf = io.StringIO()
        save_recording_csv(rec, buf)
        values = [line.split(",")[2] for line in buf.getvalue().splitlines()[1:]]
        assert values == ["0.1", "-2.5", "3.0"]


class TestKindValidation:
    @pytest.mark.parametrize("name", ["accel_y_r", "gyro_z_l", "a1", "x_2_y"])
    def test_valid(self, name):
        assert validate_kind(name) == name

    @pytest.mark.parametrize("name", ["", "a__b", "_a", "a_", "a b", "a,b", "a-b"])
    def test_invalid(self, name):
        with pytest.raises(InvalidKindName):
            validate_kind(name)


def _recording(n, rate=500.0, kinds=("a",)):
    return Recording(
        sample_rate_hz=rate,
        channels={k: np.arange(n, dtype=float) for k in kinds},
    )


class TestSegmentation:
    def test_560s_at_500hz_gives_140_windows(self):
        rec = _recording(280000)
        ws = segment_fixed(rec, 4.0, [(0.0, 560.0, "walk")])
        assert len(ws.windows) == 140
        assert all(w.length == 2000 for w in ws.windows)

    def test_exact_tiling_with_two_labels(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 4.0, "walk"), (4.0, 8.0, "run")])
        assert [w.label for w in ws.windows] == ["walk", "run"]
        assert ws.label_domain == {"walk", "run"}

    def test_boundary_truncation(self):
        rec = _recording(6 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 6.0, "walk")])
        assert len(ws.windows) == 1
        assert ws.windows[0].start_index == 0

    def test_straddling_window_goes_unlabeled(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 3.0, "walk"), (3.0, 8.0, "run")])
        # first window [0, 4) crosses the boundary at 3 s
        assert [w.label for w in ws.windows] == ["run"]
        assert [w.window_id for w in ws.unlabeled] == [0]

    def test_unlabeled_time_dropped(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(4.0, 8.0, "run")])
        assert [w.label for w in ws.windows] == ["run"]
        assert len(ws.unlabeled) == 1

    def test_prediction_mode_keeps_all_windows(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, labels=None)
        assert len(ws.windows) == 2
        assert ws.labels is None
        assert ws.label_domain == frozenset()

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            segment_fixed(_recording(100, rate=100.0), 0.001, None)

    def test_overlapping_labels(self):
        rec = _recording(8 * 500)
        with pytest.raises(OverlappingLabels):
            segment_fixed(rec, 4.0, [(0.0, 5.0, "walk"), (4.0, 8.0, "run")])

    def test_touching_intervals_are_fine(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 4.0, "a"), (4.0, 8.0, "b")])
        assert len(ws.windows) == 2

    def test_deterministic(self):
        rec = _recording(8 * 500)
        labels = [(0.0, 4.0, "walk"), (4.0, 8.0, "run")]
        assert segment_fixed(rec, 4.0, labels) == segment_fixed(rec, 4.0, labels)

    def test_windows_disjoint_and_within_bounds(self):
        rec = _recording(1234, rate=10.0)
        ws = segment_fixed(rec, 3.0, None)
        spans = [(w.start_index, w.start_index + w.length) for w in ws.windows]
        assert sum(b - a for a, b in spans) <= rec.length
        for (a0, b0), (a1, b1) in zip(spans, spans[1:]):
            assert b0 <= a1

    def test_window_ids_unique_ascending(self):
        rec = _recording(20 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 9.0, "a"), (9.0, 20.0, "b")])
        ids = [w.window_id for w in ws.windows] + [w.window_id for w in ws.unlabeled]
        assert len(set(ids)) == len(ids)
        assert [w.window_id for w in ws.windows] == sorted(w.window_id for w in ws.windows)


class TestSliceWindow:
    """A window's samples are cut from the recording by `extract`."""

    def test_direct_slice(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0, 4.0]})
        ws = WindowSet(rec, (Window(0, 1, 2),))
        settings = settings_from_feature_names(["k__minimum", "k__maximum", "k__mean_change"])
        matrix = extract(ws, rec, settings)
        got = {f.calculator: v for f, v in zip(matrix.feature_names, matrix.values[0])}
        # minimum, maximum and the signed step pin the slice to [2.0, 3.0] in order
        assert got == {"minimum": 2.0, "maximum": 3.0, "mean_change": 1.0}

    def test_unknown_kind(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0]})
        ws = WindowSet(rec, (Window(0, 0, 2),))
        with pytest.raises(UnknownKind):
            extract(ws, rec, settings_from_feature_names(["missing__minimum"]))


class TestLabelsCsv:
    def test_parse(self):
        stream = io.StringIO("start_s,end_s,label\n0.0,4.0,walk\n4.0,8.0,run\n")
        assert load_labels_csv(stream) == [(0.0, 4.0, "walk"), (4.0, 8.0, "run")]

    def test_bad_header(self):
        with pytest.raises(InconsistentChannels):
            load_labels_csv(io.StringIO("begin,end,label\n"))

    def test_bad_interval(self):
        with pytest.raises(InvalidValue):
            load_labels_csv(io.StringIO("start_s,end_s,label\n4.0,4.0,walk\n"))
