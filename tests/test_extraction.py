import dataclasses
import io
import math
import multiprocessing.process
from collections import Counter

import numpy as np
import pytest

from imufresh.calculators import (
    CALCULATORS,
    ExtractionSettings,
    compute_feature,
    default_settings,
    settings_from_feature_names,
)
import imufresh.extraction
import oracles
from imufresh.errors import (
    BadParameters,
    DataError,
    MalformedFeatureName,
    UnknownKind,
    WindowOutOfRange,
)
from imufresh.extraction import (
    FeatureMatrix,
    extract,
    save_matrix_csv,
)
from imufresh.names import FeatureName
from imufresh.timeseries import Recording, WindowSet, segment_fixed


def parse_matrix_csv(text):
    """(canonical names, window ids, labels or None, values) of a written
    feature-matrix CSV."""
    header, *lines = text.splitlines()
    columns = header.split(",")
    start = 2 if columns[1:2] == ["label"] else 1
    rows = [line.split(",") for line in lines]
    values = np.array([[float(c) for c in row[start:]] for row in rows], dtype=np.float64)
    return (
        columns[start:],
        [int(row[0]) for row in rows],
        tuple(row[1] for row in rows) if start == 2 else None,
        values.reshape(len(rows), len(columns) - start),
    )


# Window 2 of accel_x_l (samples 200-299) is constant, so the documented NaN
# and zero cases occur inside a batch; gyro_y_l has one decimal, so ties.
CONSTANT_WINDOW = 2


@pytest.fixture(scope="module")
def recording():
    rng = np.random.default_rng(123)
    accel_x_l = rng.standard_normal(1000)
    accel_x_l[200:300] = 0.5
    return Recording(
        sample_rate_hz=50.0,
        channels={
            "accel_x_l": accel_x_l,
            "accel_x_r": rng.standard_normal(1000),
            "gyro_y_l": np.round(rng.standard_normal(1000), 1),
        },
    )


@pytest.fixture(scope="module")
def windows(recording):
    return segment_fixed(recording, 2.0, [(0.0, 20.0, "walk")])


class TestExtract:
    def test_shape_full_grid(self, recording, windows):
        settings = default_settings(recording.channels)
        matrix = extract(windows, recording, settings)
        assert matrix.values.shape == (10, 3 * 135)
        assert matrix.labels == ("walk",) * 10

    def test_shape_restricted(self, recording, windows):
        settings = settings_from_feature_names(
            ["accel_x_l__minimum", "gyro_y_l__variance"]
        )
        matrix = extract(windows, recording, settings)
        assert matrix.values.shape == (10, 2)

    def test_empty_settings(self, recording, windows):
        matrix = extract(windows, recording, settings_from_feature_names([]))
        assert matrix.values.shape == (10, 0)

    def test_cells_match_direct_compute(self, recording, windows):
        matrix = extract(windows, recording, default_settings(recording.channels))
        w = windows.length
        for r, i in enumerate(windows.window_ids):
            for c, feature in enumerate(matrix.feature_names):
                x = recording.channels[feature.kind][i * w : (i + 1) * w]
                want = compute_feature(x, feature.calculator, feature.param_dict())
                assert matrix.values[r, c].tobytes() == np.float64(want).tobytes(), (
                    r, feature.canonical()
                )
        nan_calcs = {
            matrix.feature_names[c].calculator
            for c in np.flatnonzero(np.isnan(matrix.values[CONSTANT_WINDOW]))
        }
        assert nan_calcs == {"skewness", "kurtosis", "autocorrelation"}

    def test_unknown_kind(self, recording, windows):
        settings = settings_from_feature_names(["zz__minimum"])
        with pytest.raises(UnknownKind):
            extract(windows, recording, settings)

    def test_window_reaching_the_recording_end(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0, 4.0]})
        ws = WindowSet(rec, 4)
        matrix = extract(ws, rec, settings_from_feature_names(["k__maximum", "k__minimum"]))
        assert matrix.values.tolist() == [[4.0, 1.0]]

    def test_recording_shorter_than_the_grid_rejected(self):
        # Channels are read from the recording argument, which here ends
        # inside the grid's second window.
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0, 4.0, 5.0]})
        short = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0]})
        settings = settings_from_feature_names(["k__minimum"])
        with pytest.raises(WindowOutOfRange, match="reach sample 4, past the recording's 3"):
            extract(WindowSet(rec, 2), short, settings)

    @pytest.mark.parametrize("labels", [None, [(0.0, 2.0, "walk")]], ids=["predict", "train"])
    def test_recording_shorter_than_one_window(self, labels):
        rec = Recording(sample_rate_hz=50.0, channels={"k": np.arange(100.0)})
        ws = segment_fixed(rec, 4.0, labels)
        assert ws.n_windows == 0
        settings = default_settings(rec.channels)
        matrix = extract(ws, rec, settings)
        assert matrix.values.shape == (0, len(settings.features))
        assert matrix.window_ids.tolist() == []

    def test_columns_sorted_canonically(self, recording, windows):
        settings = settings_from_feature_names(
            ["gyro_y_l__minimum", "accel_x_l__minimum", "accel_x_l__maximum"]
        )
        matrix = extract(windows, recording, settings)
        names = matrix.canonical_names()
        assert list(names) == sorted(names)

    def test_worker_count_does_not_change_bits(self, recording, windows):
        settings = default_settings(recording.channels)
        one = extract(windows, recording, settings, workers=1)
        many = extract(windows, recording, settings, workers=3)
        assert one.values.tobytes() == many.values.tobytes()
        assert one.canonical_names() == many.canonical_names()

    @pytest.mark.parametrize(
        "intervals, names",
        [
            ([(0.0, 20.0, "walk")], []),
            ([(0.3, 1.5, "walk")], ["accel_x_l__minimum"]),
            ([(0.0, 2.0, "walk")], ["accel_x_l__minimum", "gyro_y_l__variance"]),
        ],
        ids=["zero-columns", "zero-rows", "one-row"],
    )
    def test_small_inputs_match_across_workers(self, recording, intervals, names):
        ws = segment_fixed(recording, 2.0, intervals)
        settings = settings_from_feature_names(names)
        one = extract(ws, recording, settings, workers=1)
        two = extract(ws, recording, settings, workers=2)
        assert two.values.shape == one.values.shape == (len(ws.window_ids), len(names))
        assert one.values.tobytes() == two.values.tobytes()
        assert list(one.window_ids) == list(two.window_ids)

    def test_row_ids_follow_window_ids(self, recording):
        ws = segment_fixed(recording, 2.0, [(4.0, 12.0, "a")])
        matrix = extract(ws, recording, settings_from_feature_names(["accel_x_l__mean"]))
        assert matrix.window_ids.tolist() == ws.window_ids.tolist() == [2, 3, 4, 5]


class TestInProcess:
    """``extract`` computes every window in the calling process at any worker
    count and size, and still rejects a worker count below 1."""

    def test_no_pool_at_any_size(self, recording, windows, monkeypatch):
        started = []
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", lambda self: started.append(self)
        )
        settings = default_settings(recording.channels)
        two = extract(windows, recording, settings, workers=2)
        assert started == []
        assert two.values.tobytes() == extract(windows, recording, settings).values.tobytes()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected_before_any_work(
        self, recording, windows, monkeypatch, workers
    ):
        # With no calculators registered, any kernel lookup would raise KeyError.
        monkeypatch.setattr(imufresh.extraction, "CALCULATORS", {})
        settings = settings_from_feature_names(["accel_x_l__minimum"])
        with pytest.raises(BadParameters, match=f"workers must be >= 1, got {workers}"):
            extract(windows, recording, settings, workers=workers)


class TestFamilyCalls:
    """``extract`` runs each calculator's family kernel once per kind, on the
    whole batch of windows, with every requested parameter set."""

    def _spy(self, monkeypatch):
        calls = []
        for name, calc in list(CALCULATORS.items()):
            def spy(X, params_list, _name=name, _family=calc.family):
                calls.append((_name, X.copy(), list(params_list)))
                return _family(X, params_list)

            monkeypatch.setitem(CALCULATORS, name, dataclasses.replace(calc, family=spy))
        return calls

    def _kind_of(self, recording, windows, X):
        w = windows.length
        kinds = [
            kind for kind, values in recording.channels.items()
            if np.array_equal(X, np.stack([values[i * w : (i + 1) * w] for i in windows.window_ids]))
        ]
        assert len(kinds) == 1
        return kinds[0]

    def test_once_per_kind(self, recording, windows, monkeypatch):
        settings = default_settings(recording.channels)
        want = extract(windows, recording, settings)
        calls = self._spy(monkeypatch)
        got = extract(windows, recording, settings)
        assert got.values.tobytes() == want.values.tobytes()

        grid = Counter(f.calculator for f in settings.features)
        seen = Counter()
        for name, X, params_list in calls:
            seen[name, self._kind_of(recording, windows, X)] += 1
            assert len(params_list) == grid[name] // len(settings.kinds)
        assert seen == Counter({(name, kind): 1 for name in grid for kind in settings.kinds})

    def test_restricted_settings_call_only_their_families(self, recording, windows, monkeypatch):
        calls = self._spy(monkeypatch)
        names = [
            "accel_x_l__quantile__q_0.1",
            "accel_x_l__quantile__q_0.9",
            "gyro_y_l__median",
            'gyro_y_l__change_quantiles__f_agg_"var"__isabs_True__qh_1.0__ql_0.0',
        ]
        extract(windows, recording, settings_from_feature_names(names))
        assert sorted((name, len(p)) for name, _, p in calls) == [
            ("change_quantiles", 1), ("median", 1), ("quantile", 2),
        ]


class TestRestriction:
    """Criterion 7 feature by feature: extracting any part of the grid gives
    the full grid's columns bit for bit."""

    @pytest.fixture(scope="class")
    def tied(self):
        rng = np.random.default_rng(321)
        steady = rng.standard_normal(1200)
        steady[150:460] = -0.25  # holds a whole window at each length below
        return Recording(
            sample_rate_hz=50.0,
            channels={
                "steady": steady,
                "tied": np.round(rng.standard_normal(1200), 1),
                "steps": np.round(np.cumsum(rng.standard_normal(1200))),
            },
        )

    # 99 samples (odd, under 2 x chunk_len 50), 100 (even), 151 (odd)
    @pytest.mark.parametrize("seconds", [1.98, 2.0, 3.02], ids=["w99", "w100", "w151"])
    def test_any_subset_equals_the_full_grid(self, tied, seconds):
        ws = segment_fixed(tied, seconds, None)
        w = ws.length
        full = extract(ws, tied, default_settings(tied.channels))
        constant = [
            i for i in ws.window_ids if np.ptp(tied.channels["steady"][i * w : (i + 1) * w]) == 0.0
        ]
        assert constant
        chunk_50 = [
            c for c, f in enumerate(full.feature_names)
            if f.calculator == "agg_linear_trend" and f.param_dict()["chunk_len"] == 50
        ]
        assert np.isnan(full.values[:, chunk_50]).all() == (w < 100)

        for feature in full.feature_names:
            alone = extract(ws, tied, ExtractionSettings(features=(feature,)))
            assert alone.values.tobytes() == full.column(feature).tobytes(), feature.canonical()

        rng = np.random.default_rng(int(seconds * 100))
        for _ in range(20):
            size = int(rng.integers(2, full.n_cols))
            pick = rng.choice(full.n_cols, size=size, replace=False)
            subset = ExtractionSettings(features=tuple(full.feature_names[i] for i in pick))
            restricted = extract(ws, tied, subset)
            want = full.subset(subset.features)
            assert restricted.canonical_names() == want.canonical_names()
            assert restricted.values.tobytes() == want.values.tobytes()


class TestFeatureMatrix:
    def _tiny(self):
        names = (FeatureName("a", "minimum"), FeatureName("b", "minimum"))
        return FeatureMatrix(
            feature_names=names,
            values=np.asarray([[1.0, 2.0], [3.0, float("nan")]]),
            window_ids=np.asarray([0, 1]),
            labels=("x", "y"),
        )

    def test_rejects_unsorted_columns(self):
        names = (FeatureName("b", "minimum"), FeatureName("a", "minimum"))
        with pytest.raises(DataError):
            FeatureMatrix(names, np.zeros((1, 2)), np.asarray([0]), None)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError):
            FeatureMatrix(
                (FeatureName("a", "minimum"),), np.zeros((2, 2)), np.asarray([0, 1]), None
            )

    def test_rejects_duplicate_columns(self):
        names = (FeatureName("a", "minimum"), FeatureName("a", "minimum"))
        with pytest.raises(DataError):
            FeatureMatrix(names, np.zeros((1, 2)), np.asarray([0]), None)

    def test_column_index(self):
        m = self._tiny()
        assert m.column_index("b__minimum") == 1
        assert m.column_index(FeatureName("a", "minimum")) == 0
        with pytest.raises(KeyError):
            m.column_index("c__minimum")

    def test_subset_is_bitwise(self):
        m = self._tiny()
        sub = m.subset(["b__minimum"])
        assert sub.canonical_names() == ("b__minimum",)
        assert sub.values[:, 0].tobytes() == m.values[:, 1].tobytes()

    def test_values_frozen(self):
        m = self._tiny()
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_csv_roundtrip_bitwise(self):
        m = self._tiny()
        buf = io.StringIO()
        save_matrix_csv(m, buf)
        names, ids, labels, values = parse_matrix_csv(buf.getvalue())
        assert tuple(names) == m.canonical_names()
        assert values.tobytes() == m.values.tobytes()  # NaN payload included
        assert labels == m.labels
        assert ids == m.window_ids.tolist()

    def test_csv_roundtrip_unlabeled(self):
        m = FeatureMatrix(
            (FeatureName("a", "minimum"),),
            np.asarray([[0.1], [0.2]]),
            np.asarray([3, 9]),
            labels=None,
        )
        buf = io.StringIO()
        save_matrix_csv(m, buf)
        names, ids, labels, values = parse_matrix_csv(buf.getvalue())
        assert labels is None
        assert ids == [3, 9]
        assert values.tobytes() == m.values.tobytes()

    def test_header_contains_exact_canonical_names(self):
        name = 'a__change_quantiles__f_agg_"var"__isabs_True__qh_1.0__ql_0.0'
        m = FeatureMatrix(
            settings_from_feature_names([name]).features,
            np.asarray([[1.0]]),
            np.asarray([0]),
            None,
        )
        buf = io.StringIO()
        save_matrix_csv(m, buf)
        assert buf.getvalue().splitlines()[0] == f"window_id,{name}"


class TestMatrixCsv:
    @staticmethod
    def _matrix(n_rows, n_cols, labels):
        rng = np.random.default_rng(n_rows * 100 + n_cols)
        special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e300, 2.0**60, 0.5]
        values = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-12, 12, (n_rows, n_cols))
        values.ravel()[: len(special)] = special[: values.size]
        names = tuple(FeatureName(f"k{j:04d}", "minimum") for j in range(n_cols))
        ids = np.arange(n_rows) * 3 + 1
        return FeatureMatrix(names, values, ids, tuple(f"l{r % 3}" for r in range(n_rows)) if labels else None)

    # Blocks of one row, of two rows with a shorter last one, and the default.
    @pytest.mark.parametrize("block", [1, 12, imufresh.extraction._BLOCK_VALUES])
    @pytest.mark.parametrize("shape", [(11, 5), (3, 0), (0, 4), (4, 700)])
    @pytest.mark.parametrize("labels", [True, False])
    def test_bytes_match_the_cell_loop(self, monkeypatch, block, shape, labels):
        monkeypatch.setattr(imufresh.extraction, "_BLOCK_VALUES", block)
        m = self._matrix(*shape, labels)
        new, old = io.StringIO(), io.StringIO()
        save_matrix_csv(m, new)
        oracles.save_matrix_csv(m, old)
        assert new.getvalue() == old.getvalue()
        assert parse_matrix_csv(new.getvalue())[3].tobytes() == m.values.tobytes()


class TestSettingsFile:
    def test_one_name_per_line_roundtrip(self):
        from imufresh.calculators import read_settings_file, write_settings_file

        settings = settings_from_feature_names(
            ["a__minimum", 'b__change_quantiles__f_agg_"var"__isabs_True__qh_1.0__ql_0.0']
        )
        buf = io.StringIO()
        write_settings_file(settings, buf)
        back = read_settings_file(io.StringIO(buf.getvalue()))
        assert back.canonical_names() == settings.canonical_names()

    def test_default_line_is_a_malformed_name(self):
        from imufresh.calculators import read_settings_file

        with pytest.raises(MalformedFeatureName, match="'DEFAULT a b'"):
            read_settings_file(io.StringIO("DEFAULT a b\n"))

    def test_comments_and_blanks_ignored(self):
        from imufresh.calculators import read_settings_file

        back = read_settings_file(io.StringIO("# comment\n\na__minimum\n"))
        assert back.canonical_names() == ("a__minimum",)
