import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from imufresh import timeseries
from imufresh.errors import (
    DataError,
    ImufreshError,
    InconsistentChannels,
    InvalidKindName,
    InvalidValue,
    NonUniformSampling,
    OverlappingLabels,
    UnknownKind,
    WindowTooShort,
)
from imufresh.calculators import default_settings, settings_from_feature_names
from imufresh.extraction import extract
from imufresh.synth import synth_walk_run
from imufresh.timeseries import (
    Recording,
    WindowSet,
    load_labels_csv,
    load_recording,
    load_recording_csv,
    save_recording_csv,
    segment_fixed,
    validate_kind,
)


def _csv(rows, kinds=("a",)):
    """A wide recording CSV: the header ``time,<kind>,...`` and *rows*, each
    one line of text."""
    header = ",".join(("time",) + kinds)
    return io.BytesIO((header + "\n" + "\n".join(rows) + "\n").encode())


class TestIngestion:
    def test_three_kinds_2000_rows_at_500hz(self):
        rows = [f"{i * 0.002},{i},{-i},{i / 8}" for i in range(2000)]
        rec = load_recording_csv(_csv(rows, kinds=("a", "b", "c")))
        assert rec.length == 2000
        assert rec.kinds == ("a", "b", "c")
        assert rec.channels["b"].tolist() == [-float(i) for i in range(2000)]
        assert rec.sample_rate_hz == pytest.approx(500.0, rel=1e-9)

    def test_single_kind_identity_ingestion(self):
        rec = load_recording_csv(_csv(["0.0,1.0", "0.002,2.0"], kinds=("k",)))
        assert np.array_equal(rec.channels["k"], [1.0, 2.0])
        assert rec.t0 == 0.0

    def test_reserved_separator_in_kind(self):
        with pytest.raises(InvalidKindName):
            load_recording_csv(_csv(["0.0,1.0", "0.002,2.0"], kinds=("accel__y",)))

    def test_ragged_channels(self):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(_csv(["0.0,1.0,2.0", "0.002,1.0"], kinds=("a", "b")))

    def test_non_uniform_step(self):
        with pytest.raises(NonUniformSampling):
            load_recording_csv(_csv(["0.0,1.0", "0.002,2.0", "0.005,3.0"]))

    def test_nan_value_rejected(self):
        with pytest.raises(InvalidValue):
            load_recording_csv(_csv(["0.0,nan", "0.002,2.0"]))

    def test_inf_value_rejected(self):
        with pytest.raises(InvalidValue):
            load_recording_csv(_csv(["0.0,inf", "0.002,2.0"]))

    def test_bad_header(self):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(io.BytesIO(b"t,k,v\n0.0,a,1.0\n"))

    def test_channels_read_only(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError):
            rec.channels["k"][0] = 99.0

    def test_read_only_view_of_writable_array_is_copied(self):
        owner = np.array([1.0, 2.0, 3.0])
        view = owner[:]
        view.setflags(write=False)
        rec = Recording(sample_rate_hz=1.0, channels={"k": view})
        owner[0] = 99.0
        assert not np.shares_memory(rec.channels["k"], owner)
        assert rec.channels["k"][0] == 1.0

    def test_read_only_array_made_writable_again_is_copied(self):
        a = np.arange(5.0)
        a.setflags(write=False)
        rec = Recording(1.0, {"x": a})
        a.setflags(write=True)
        a[0] = 9
        assert rec.channels["x"][0] == 0.0

    def test_nonzero_t0(self):
        rec = load_recording_csv(_csv(["10.0,1.0", "10.002,2.0"]))
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
        # ingest -> serialize reproduces the exact time and value fields
        text = "time,a\n0.0,0.1\n0.01,-2.5\n0.02,3.0\n"
        rec = load_recording_csv(io.StringIO(text))
        buf = io.StringIO()
        save_recording_csv(rec, buf)
        assert buf.getvalue() == text

    @pytest.mark.parametrize("bad", ["0.002", "0.002,a", "0.002,2.0,9,9", "0.002,a,2.0,9"])
    def test_wrong_field_count_names_the_file_line(self, bad):
        # header is line 1; the blank line 3 still counts, and a bad field
        # count wins over a bad value on the same line
        text = f"time,a,b\n0.0,1.0,2.0\n\n{bad}\n0.004,3.0,4.0\n"
        with pytest.raises(InconsistentChannels, match="line 4"):
            load_recording_csv(io.BytesIO(text.encode()))

    @pytest.mark.parametrize(
        "rows",
        [["0.0,1.0", "0.002,abc"], ["0.0,1.0", "x,2.0"], ["0.0,1.0", "0.002,"]],
    )
    def test_non_numeric_field_rejected(self, rows):
        with pytest.raises(InvalidValue):
            load_recording_csv(_csv(rows))

    def test_crlf_and_blank_lines_accepted(self):
        text = "time,a\r\n0.0,1.0\r\n\r\n0.002,2.0\r\n\n0.004,3.0"
        for stream in (io.BytesIO(text.encode()), io.StringIO(text)):
            rec = load_recording_csv(stream)
            assert rec.channels["a"].tolist() == [1.0, 2.0, 3.0]
            assert rec.sample_rate_hz == pytest.approx(500.0, rel=1e-9)

    @pytest.mark.parametrize(
        "text",
        ["time,a\n", "time,a", "time,a\n\n\n"]
        + ["time,kind,value\n", "time,kind,value", "time,kind,value\n\n\n"],
    )
    def test_header_only_rejected(self, text):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(io.BytesIO(text.encode()))

    def test_one_sample_per_kind_rejected(self):
        with pytest.raises(InconsistentChannels):
            load_recording_csv(_csv(["0.0,1.0,2.0"], kinds=("a", "b")))


_LONG = "time,kind,value\n"
# The long layout, one row per sample, which no writer emits and the reader
# refuses by its header, whatever follows it: bad fields, kinds, values or
# time grids under that header never reach a parse.
LONG_CASES = {
    "blocks": _LONG + "0.0,a,1.0\n0.01,a,2.0\n0.0,b,3.0\n0.01,b,4.0\n",
    "interleaved": _LONG + "5.0,b,1\n5.0,a,2\n5.5,b,3\n5.5,a,4\n",
    "header-only": _LONG,
    "header-and-blanks": _LONG + "\n\n",
    "crlf": _LONG.replace("\n", "\r\n") + "0.0,a,1.0\r\n0.01,a,2.0\r\n",
    "blank-lines": _LONG + "\n0.0,a,1.0\n\n\n0.01,a,2.0\n\n",
    "no-final-newline": _LONG + "0.0,a,1.0\n0.01,a,2.0",
    "prefix-kinds": _LONG + "".join(
        f"{t},{k},{t * 3}\n" for k in ("acc", "acc_x", "a", "gyro_" + "y" * 30) for t in (1, 2)
    ),
    "number-forms": _LONG + "0,a, 1e-310\n1,a,-0.0 \n2,a,+.5\n3,a,5.\n4,a,1.7976931348623157e308\n",
    "two-fields": _LONG + "0.0,a,1.0\n0.01,a\n",
    "four-fields": _LONG + "0.0,a,1.0\n0.01,a,2.0,3.0\n",
    "spaces-only-line": _LONG + "0.0,a,1.0\n   \n0.01,a,2.0\n",
    "non-numeric-value": _LONG + "0.0,a,1.0\n0.01,a,one\n",
    "non-numeric-time": _LONG + "0.0,a,1.0\nsoon,a,2.0\n",
    "empty-value": _LONG + "0.0,a,1.0\n0.01,a,\n",
    "nan-value": _LONG + "0.0,a,nan\n0.01,a,2.0\n",
    "overflowing-value": _LONG + "0.0,a,1e400\n0.01,a,2.0\n",
    "inf-time": _LONG + "0.0,a,1.0\ninf,a,2.0\n",
    "reserved-separator": _LONG + "0.0,a__b,1.0\n0.01,a__b,2.0\n",
    "padded-kind": _LONG + "0.0,a ,1.0\n0.01,a ,2.0\n",
    "empty-kind": _LONG + "0.0,,1.0\n0.01,,2.0\n",
    "nul-after-kind": _LONG + "0.0,a\0,1.0\n0.01,a\0,2.0\n",
    "non-latin-1-kind": _LONG + "0.0,\u20ac,1.0\n0.01,\u20ac,2.0\n",
    "bad-kind-then-bad-value": _LONG + "0.0,a-b,1.0\n0.01,a-b,two\n",
    "bad-kind-then-bad-line": _LONG + "0.0,a-b,1.0\n0.01,a-b\n",
    "ragged": _LONG + "0.0,a,1.0\n0.01,a,2.0\n0.0,b,1.0\n",
    "shifted-grid": _LONG + "0.0,a,1.0\n0.01,a,2.0\n0.005,b,1.0\n0.015,b,2.0\n",
    "non-uniform": _LONG + "0.0,a,1.0\n0.01,a,2.0\n0.03,a,3.0\n",
    "decreasing": _LONG + "0.02,a,1.0\n0.01,a,2.0\n0.0,a,3.0\n",
    "one-sample": _LONG + "0.0,a,1.0\n0.0,b,2.0\n",
    "ragged-then-bad-value": _LONG + "0,a,1\n1,a,2\n0,b,1\n0,c,1\n1,c,two\n",
    "bad-value-then-ragged": _LONG + "0,a,1\n1,a,two\n0,b,1\n",
    "shifted-grid-then-bad-time": _LONG + "0,a,1\n1,a,2\n0.5,b,1\n1.5,b,2\n0,c,1\nlater,c,2\n",
    "nan-then-bad-value": _LONG + "0,a,nan\n1,a,2\n0,b,1\n1,b,two\n",
    "ragged-then-digit-separator": _LONG + "0,a,1\n1,a,2\n0,b,1\n0,c,1_000\n1,c,2\n",
    "interleaved-ragged-then-bad-value": _LONG + "0,a,1\n0,b,1\n1,a,2\n0,c,x\n2,a,3\n1,b,2\n",
}


@pytest.mark.parametrize("name", sorted(LONG_CASES))
def test_long_layout_refused(name, tmp_path):
    text = LONG_CASES[name]
    for read in _readers(text, tmp_path) + [
        lambda: oracles.load_recording_csv(io.BytesIO(text.encode()))
    ]:
        with pytest.raises(InconsistentChannels, match="only the wide layout"):
            read()


# Valid and malformed recordings: a header of ``time`` and distinct kinds,
# one row per time step.  A bad field count anywhere wins, in line order;
# then the time column, then each kind's column in header order.
READER_CASES = {
    "bad-header": "time,kind,val\n0.0,a,1.0\n0.01,a,2.0\n",
    "empty-file": "",
    "wide": "time,b,a\n0.0,1.0,-1.0\n0.01,2.0,-2.0\n0.02,3.0,-3.0\n",
    "wide-one-kind": "time,a\n5.0,1\n5.5,2\n",
    "wide-kinds-named-kind-and-value": "time,value,kind\n0,1,2\n1,3,4\n",
    "wide-long-header-and-more": "time,kind,value,x\n0,1,2,3\n1,4,5,6\n",
    "wide-crlf": "time,a,b\r\n0.0,1.0,2.0\r\n\r\n0.01,3.0,4.0\r\n",
    "wide-lone-cr": "time,a,b\r0.0,1.0,2.0\r\r0.01,3.0,4.0\r",
    "wide-blank-lines": "time,a\n\n0.0,1.0\n\n\n0.01,2.0\n\n",
    "wide-no-final-newline": "time,a,b\n0.0,1.0,2.0\n0.01,3.0,4.0",
    "wide-number-forms": "time,a\n0, 1e-310\n1,-0.0 \n2,+.5\n3,5.\n4,1.7976931348623157e308\n",
    "wide-nul-in-value": "time,a\n0.0,1.0\0\n0.01,2.0\n",
    "wide-nul-line": "time,a\n0.0,1.0\n\0\n0.01,2.0\n",
    "wide-nul-in-header": "time,a\0\n0.0,1.0\n0.01,2.0\n",
    # str.splitlines would end a line at the form feed; numpy's reader does not
    "wide-form-feed-in-value": "time,a\n0.0,1.0\x0c2\n0.01,2.0\n",
    "wide-ragged": "time,a,b\n0.0,1.0,2.0\n0.01,3.0\n0.02,5.0,6.0\n",
    "wide-extra-field": "time,a,b\n0.0,1.0,2.0\n0.01,3.0,4.0,5.0\n",
    "wide-every-row-too-long": "time,a\n0.0,1.0,2.0\n0.01,3.0,4.0\n",
    "wide-spaces-only-line": "time,a\n0.0,1.0\n   \n0.01,2.0\n",
    "wide-non-numeric-value": "time,a,b\n0.0,1.0,2.0\n0.01,3.0,four\n",
    "wide-non-numeric-time": "time,a\n0.0,1.0\nsoon,2.0\n",
    "wide-empty-value": "time,a,b\n0.0,1.0,2.0\n0.01,,4.0\n",
    "wide-nan-value": "time,a,b\n0.0,1.0,nan\n0.01,3.0,4.0\n",
    "wide-inf-value": "time,a\n0.0,inf\n0.01,2.0\n",
    "wide-overflowing-value": "time,a\n0.0,1e400\n0.01,2.0\n",
    "wide-inf-time": "time,a\n0.0,1.0\ninf,2.0\n",
    "wide-non-uniform": "time,a\n0.0,1.0\n0.01,2.0\n0.03,3.0\n",
    "wide-decreasing": "time,a\n0.02,1.0\n0.01,2.0\n0.0,3.0\n",
    "wide-one-row": "time,a,b\n0.0,1.0,2.0\n",
    "wide-header-only": "time,a,b\n",
    "wide-header-without-newline": "time,a,b",
    "wide-header-and-blanks": "time,a\r\n\n\r\n",
    "wide-ragged-then-bad-value": "time,a\n0,x\n1,2,3\n",
    "wide-nan-then-bad-value": "time,a,b\n0,nan,1\n1,2,x\n",
    "wide-bad-time-then-nan": "time,a\n0,nan\nx,1\n",
    "wide-bad-value-and-time": "time,a\n0,1\nx,y\n",
    "wide-bad-value-then-non-uniform": "time,a\n0,x\n1,2\n3,4\n",
    # Bad headers.
    "header-t-k-v": "t,k,v\n0.0,a,1.0\n0.01,a,2.0\n",
    "header-time-alone": "time\n0.0\n0.01\n",
    "header-empty-kind": "time,,a\n0,1,2\n1,3,4\n",
    "header-kind-twice": "time,a,a\n0,1,2\n1,3,4\n",
    "header-reserved-separator": "time,a__b\n0,1\n1,2\n",
}


def _readers(text, tmp_path):
    """*text* read from a path, from a plain file with a ``.gz`` name, from
    a byte stream and from a text stream."""
    for name in ("rec.csv", "rec.gz"):
        (tmp_path / name).write_bytes(text.encode())
    return [
        lambda: load_recording(str(tmp_path / "rec.csv")),
        lambda: load_recording(str(tmp_path / "rec.gz")),
        lambda: load_recording_csv(io.BytesIO(text.encode())),
        lambda: load_recording_csv(io.StringIO(text)),
    ]


def _outcome(read):
    """The exception class raised, or the recording with every float as bits."""
    try:
        rec = read()
    except ImufreshError as exc:
        return type(exc)
    bits = np.float64([rec.sample_rate_hz, rec.t0]).tobytes()
    return bits, [(kind, values.tobytes()) for kind, values in rec.channels.items()]


class TestReaderMatchesLineLoop:
    """The bulk reader against the line loop in ``oracles``, from a path, a
    byte stream and a text stream."""

    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_same_recording_or_exception(self, name, tmp_path):
        text = READER_CASES[name]
        want = _outcome(lambda: oracles.load_recording_csv(io.BytesIO(text.encode())))
        for read in _readers(text, tmp_path):
            assert _outcome(read) == want

    def test_outcomes_of_the_header_cases(self, tmp_path):
        # ``time,kind,val`` is a wide header with the kinds ``kind`` and
        # ``val``, so the long rows under it are unparseable fields of
        # ``kind``.
        want = {
            "bad-header": InvalidValue,
            "header-t-k-v": InconsistentChannels,
            "header-time-alone": InconsistentChannels,
            "header-empty-kind": InvalidKindName,
            "header-kind-twice": InconsistentChannels,
            "header-reserved-separator": InvalidKindName,
        }
        for name, error in want.items():
            for read in _readers(READER_CASES[name], tmp_path):
                assert _outcome(read) is error, name
        with pytest.raises(InvalidValue, match="'kind'"):
            load_recording_csv(io.StringIO(READER_CASES["bad-header"]))

    @pytest.mark.parametrize(
        "name, error, match",
        [
            ("wide-ragged", InconsistentChannels, "line 3: expected 3 fields, got 2"),
            ("wide-spaces-only-line", InconsistentChannels, "line 3: expected 2 fields"),
            ("wide-nul-line", InconsistentChannels, "line 3: expected 2 fields"),
            ("wide-non-numeric-value", InvalidValue, "channel 'b': unparseable"),
            ("wide-nul-in-value", InvalidValue, "channel 'a': unparseable"),
            ("wide-non-numeric-time", InvalidValue, "time column: unparseable"),
            ("wide-bad-value-and-time", InvalidValue, "time column: unparseable"),
            ("wide-inf-time", InvalidValue, "time column contains NaN or infinite"),
            ("wide-nan-value", InvalidValue, "channel 'b' contains NaN"),
            # an unparseable field wins over a NaN in an earlier column
            ("wide-nan-then-bad-value", InvalidValue, "channel 'b': unparseable"),
            ("wide-header-only", InconsistentChannels, "no data rows"),
            ("wide-header-and-blanks", InconsistentChannels, "no data rows"),
        ],
    )
    def test_wide_errors_name_the_line_or_column(self, name, error, match, tmp_path):
        # a header-only file raises before numpy's reader, which would warn
        for read in _readers(READER_CASES[name], tmp_path):
            with pytest.raises(error, match=match):
                read()

    @pytest.mark.parametrize(
        "data, error, match",
        [
            (b"time,a,b\n0,1,2\n1,3\xff,4\n", InvalidValue, "channel 'a': unparseable"),
            (b"time,a\n0\xff,1\n1,2\n", InvalidValue, "time column: unparseable"),
            (b"time,a\xff\n0,1\n1,2\n", InvalidKindName, "invalid channel kind"),
        ],
    )
    def test_wide_byte_that_is_not_utf8(self, data, error, match, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(data)
        with pytest.raises(error, match=match):
            load_recording(str(path))
        with pytest.raises(error, match=match):
            load_recording_csv(io.BytesIO(data))

    def test_byte_order_mark_is_named(self, tmp_path):
        text = "\ufefftime,a\n0.0,1.0\n0.01,2.0\n"
        for read in _readers(text, tmp_path):
            with pytest.raises(InconsistentChannels, match="byte-order mark"):
                read()
        with pytest.raises(InconsistentChannels):  # the line loop refuses it too
            oracles.load_recording_csv(io.BytesIO(text.encode()))

    @pytest.mark.parametrize("case", ["long-header", "crlf-at-edge", "lone-cr-at-edge"])
    def test_same_across_the_text_chunk_edge(self, case, tmp_path):
        # The text layer decodes 8,192 characters at a time: a header longer
        # than that, and a line end whose first character is the last of
        # the first chunk, read as the line loop reads them.
        if case == "long-header":
            kinds = [f"k{j:04d}" for j in range(1500)]
            text = ",".join(["time"] + kinds) + "\n" + "".join(
                ",".join([str(t)] + [str(t + j) for j in range(len(kinds))]) + "\n"
                for t in range(3)
            )
            assert len(text.partition("\n")[0]) > 8192
        else:
            eol = "\r\n" if case == "crlf-at-edge" else "\r"
            text = "time,a" + eol + "0.0,1.0" + eol + "0.01,2."
            text += "0" * (8191 - len(text)) + eol + "0.02,3.0" + eol
            assert text[8191] == "\r"
        want = _outcome(lambda: oracles.load_recording_csv(io.BytesIO(text.encode())))
        assert not isinstance(want, type)  # each case is a valid recording
        for read in _readers(text, tmp_path):
            assert _outcome(read) == want

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".csv.gz"])
    def test_plain_text_with_a_compression_suffix(self, suffix, tmp_path):
        # numpy decompresses a named file by suffix; a plain one still loads
        path = tmp_path / f"rec{suffix}"
        path.write_bytes(READER_CASES["wide"].encode())
        want = oracles.load_recording_csv(io.BytesIO(path.read_bytes()))
        assert _outcome(lambda: load_recording(str(path))) == _outcome(lambda: want)

    def test_digit_separators_rejected(self):
        # float() reads "1_000" and so did the line loop; numpy's reader does
        # not, and the narrowing is documented.
        text = "time,a\n0.0,1_000\n0.01,2.0\n"
        assert oracles.load_recording_csv(io.BytesIO(text.encode())).channels["a"][0] == 1000.0
        with pytest.raises(InvalidValue):
            load_recording_csv(io.BytesIO(text.encode()))


def _memory_case():
    """A six-channel recording CSV of 100,000 values, about 2.1 MB."""
    rng = np.random.default_rng(3)
    kinds = [f"{sensor}_{axis}_l" for sensor in ("accel", "gyro") for axis in "xyz"]
    n = 100_000 // len(kinds)
    times = [repr(t) for t in (np.arange(n) / 100.0).tolist()]
    values = {kind: [repr(v) for v in rng.standard_normal(n).tolist()] for kind in kinds}
    rows = zip(times, *(values[kind] for kind in kinds))
    text = ",".join(["time"] + kinds) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return kinds, n, text


def _traced_peak(read):
    """(result, peak bytes traced while *read* runs)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


class TestReaderMemory:
    """Reading a path holds no copy of the file and no per-byte array: the
    traced peak is numpy's table, about 0.6x the file, which holds its own
    numbers only.  A stream is read whole once (twice, briefly, to encode a
    text stream), and numpy gets its lines a block at a time."""

    def test_peak_at_most_one_and_a_half_times_the_file(self, tmp_path):
        kinds, n, text = _memory_case()
        path = tmp_path / "rec.csv"
        path.write_text(text)
        del text
        rec, peak = _traced_peak(lambda: load_recording(str(path)))
        assert list(rec.channels) == kinds and rec.length == n
        assert peak <= 1.5 * path.stat().st_size

    @pytest.mark.parametrize("text_stream", [False, True])
    def test_stream_peak_at_most_two_and_a_half_times_the_file(self, text_stream):
        kinds, n, text = _memory_case()
        data = text.encode()
        stream = io.StringIO(text) if text_stream else io.BytesIO(data)
        del text
        rec, peak = _traced_peak(lambda: load_recording_csv(stream))
        assert list(rec.channels) == kinds and rec.length == n
        assert peak <= 2.5 * len(data)


class TestWriter:
    # Blocks of one and of 7 rows, and the default with more rows than one
    # block and not a multiple of it.
    @pytest.mark.parametrize("block, n", [(1, 23), (7, 101), (timeseries._BLOCK_VALUES, 10_001)])
    def test_bytes_match_the_row_loop(self, monkeypatch, block, n):
        monkeypatch.setattr(timeseries, "_BLOCK_VALUES", block)
        rng = np.random.default_rng(5)
        edges = [v for v in _edge_values() if math.isfinite(v)]
        rec = Recording(
            sample_rate_hz=97.3,
            channels={
                "b": rng.standard_normal(n),
                "a_1": rng.standard_normal(n) * 1e-300,
                "c": np.resize(edges + [-v for v in edges], n),
                "d": np.round(rng.standard_normal(n) * 100, 2),
            },
            t0=-12.345,
        )
        new, old = io.StringIO(), io.StringIO()
        save_recording_csv(rec, new)
        oracles.save_recording_csv(rec, old)
        assert new.getvalue() == old.getvalue()

    def test_kinds_kind_and_value_rejected_before_writing(self):
        # their header would be the long layout's, which the reader refuses
        rec = Recording(100.0, {"value": [1.0, 2.0], "kind": [3.0, 4.0]})
        buf = io.StringIO()
        with pytest.raises(InvalidKindName):
            save_recording_csv(rec, buf)
        assert buf.getvalue() == ""
        for kinds in (("kind",), ("value",), ("kind", "value", "x")):
            save_recording_csv(Recording(100.0, {k: [1.0, 2.0] for k in kinds}), buf)


class TestWriterMemory:
    """The writer renders a block of rows at a time and holds nothing that
    grows with the recording."""

    @staticmethod
    def _peak(n):
        rng = np.random.default_rng(777)
        kinds = [f"accel_{axis}_{side}" for axis in "xyz" for side in "lr"]
        rec = Recording(100.0, {kind: rng.standard_normal(n) for kind in kinds})
        with open(os.devnull, "w", encoding="utf-8") as fh:
            _, peak = _traced_peak(lambda: save_recording_csv(rec, fh))
        return peak

    def test_peak_does_not_grow_with_the_recording(self):
        short, long = self._peak(6_000), self._peak(60_000)
        # at most what the longer recording's float64 time column takes
        assert long - short <= 8 * 60_000
        # The shape of the deploy workload's hold-out; the row-loop writer,
        # which held the repr of every time at once, peaked at 6.18 MB on it.
        assert long <= 6.18e6


def _edge_values():
    """Powers of two and their neighbours, the kernel's range ends, ties and
    the ends of the float range."""
    powers = [2.0**k for k in range(-40, 61)]
    return (
        powers
        + [math.nextafter(p, 0.0) for p in powers]
        + [math.nextafter(p, math.inf) for p in powers]
        + [1e-4, 9.999999999999999e-05, 1e16, 2.0**53 - 1, 2.0**53 + 2, float(2**53 + 1)]
        + [1125899906842624.25, 1125899906842624.75, 5e-324, sys.float_info.max]
        + [0.0, -0.0, math.nan, math.inf, -math.inf]
    )


class TestRenderFloats:
    """``render_floats`` against ``repr`` itself, element by element."""

    @staticmethod
    def assert_matches_repr(values):
        values = np.asarray(values, dtype=np.float64)
        text = timeseries.render_table(values.reshape(-1, 1)).tobytes().translate(None, b"\0")
        got = [line[1:] for line in text.decode().split("\n")[:-1]]  # after each comma
        want = [repr(v) for v in values.tolist()]
        assert len(got) == len(want)
        wrong = [(w, g) for w, g in zip(want, got) if w != g]
        assert not wrong, wrong[:5]

    def test_edge_values(self):
        edges = _edge_values()
        self.assert_matches_repr(edges + [-v for v in edges])

    def test_seeded_bit_patterns(self):
        rng = np.random.default_rng(2024)
        n = 500_000
        bits = rng.integers(0, 2**64, size=2 * n, dtype=np.uint64)  # every exponent
        # and as many with an exponent at or near the kernel's range
        exponents = rng.integers(timeseries._EXP_MIN - 2, timeseries._EXP_MAX + 3, size=n)
        bits[n:] &= np.uint64(~(0x7FF << 52) % 2**64)
        bits[n:] |= exponents.astype(np.uint64) << np.uint64(52)
        for chunk in np.array_split(bits.view(np.float64), 10):
            self.assert_matches_repr(chunk)

    def test_exact_dyadic_values(self):
        # Few fraction bits: the scaled value is exact and may end in a tie.
        rng = np.random.default_rng(7)
        n = 200_000
        values = rng.integers(1, 2**53, n) / 2.0 ** rng.integers(0, 60, n)
        self.assert_matches_repr(np.concatenate([values, -values]))

    def test_matrix_rows_are_the_flattened_values(self):
        values = (np.arange(12.0) / 7).reshape(3, 4)[:, ::2]  # not contiguous
        self.assert_matches_repr(values.ravel())
        text = timeseries.render_floats(values)
        assert text.shape[0] == 6

    def test_empty(self):
        assert timeseries.render_floats(np.empty(0)).shape[0] == 0


def test_render_floats_property():
    """Any float, subnormals, signed zeros, NaN and infinities included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324])), max_size=40)
    )
    def check(values):
        TestRenderFloats.assert_matches_repr(values)

    check()


def test_roundtrip_property():
    """save_recording_csv then load_recording_csv gives back every bit."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = st.from_regex(r"[A-Za-z0-9]{1,6}(_[A-Za-z0-9]{1,6}){0,2}", fullmatch=True)
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308]),
    )

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        kind_set=st.sets(kinds, min_size=1, max_size=4).filter(lambda s: s != {"kind", "value"}),
        n=st.integers(2, 40),
        t0=st.one_of(
            st.floats(-1e3, 1e3).filter(lambda t: t != 0.0),
            st.floats(1e9, 2e9),
            st.just(1.7e9),
        ),
        rate=st.floats(1.0, 1000.0),
        data=st.data(),
    )
    def roundtrip(kind_set, n, t0, rate, data):
        channels = {k: data.draw(st.lists(values, min_size=n, max_size=n)) for k in kind_set}
        rec = Recording(sample_rate_hz=rate, channels=channels, t0=t0)
        buf = io.StringIO()
        save_recording_csv(rec, buf)
        back = load_recording_csv(io.BytesIO(buf.getvalue().encode()))
        assert back.kinds == rec.kinds
        assert back.t0 == rec.t0
        for kind in rec.kinds:
            assert back.channels[kind].tobytes() == rec.channels[kind].tobytes()
        # Each written stamp is off by up to half an ulp, which the inferred
        # step shares out over the n - 1 steps.
        t_end = abs(t0) + n / rate
        assert back.sample_rate_hz == pytest.approx(
            rate, rel=1e-9 + 2 * math.ulp(t_end) * rate / (n - 1)
        )

    roundtrip()


class TestKindValidation:
    @pytest.mark.parametrize("name", ["accel_y_r", "gyro_z_l", "a1", "x_2_y"])
    def test_valid(self, name):
        assert validate_kind(name) == name

    @pytest.mark.parametrize("name", ["", "a__b", "_a", "a_", "a b", "a,b", "a-b"])
    def test_invalid(self, name):
        with pytest.raises(InvalidKindName):
            validate_kind(name)


class TestUnixTimeBase:
    """Stamps near 1.7e9 s are a multiple of their ulp, 2.4e-7 s, so each
    written step of a 100 Hz grid is off from 0.01 s by up to an ulp."""

    @staticmethod
    def _roundtrip(rec):
        buf = io.StringIO()
        save_recording_csv(rec, buf)
        return load_recording_csv(io.BytesIO(buf.getvalue().encode()))

    def test_roundtrip(self):
        rec = Recording(100.0, {"a": np.random.default_rng(0).standard_normal(2000)}, t0=1.7e9)
        back = self._roundtrip(rec)
        assert back.t0 == rec.t0
        assert back.channels["a"].tobytes() == rec.channels["a"].tobytes()
        assert back.sample_rate_hz == pytest.approx(100.0, rel=1e-9)

    @pytest.mark.parametrize("t0", [1.7e9, 1.7e9 + 0.123, 1234567890.987])
    def test_window_labels_match_time_zero(self, t0):
        data = synth_walk_run(duration_s=560.0, sample_rate_hz=100.0, seed=42)
        channels = {"accel_x_l": data.recording.channels["accel_x_l"]}
        at_zero = segment_fixed(Recording(100.0, channels), 4.0, data.labels)
        # label edges written to 3 decimals
        labels = [(round(t0 + a, 3), round(t0 + b, 3), name) for a, b, name in data.labels]
        shifted = segment_fixed(self._roundtrip(Recording(100.0, channels, t0=t0)), 4.0, labels)
        assert len(at_zero.window_ids) == at_zero.n_windows == 140
        assert shifted.window_labels == at_zero.window_labels

    def test_one_step_off_by_a_percent_raises(self):
        times = 1.7e9 + np.arange(2000) / 100.0
        times[1000:] += 1e-4
        with pytest.raises(NonUniformSampling):
            load_recording_csv(_csv([f"{t},0.0" for t in times.tolist()]))


def _recording(n, rate=500.0, kinds=("a",)):
    return Recording(
        sample_rate_hz=rate,
        channels={k: np.arange(n, dtype=float) for k in kinds},
    )


class TestSegmentation:
    def test_560s_at_500hz_gives_140_windows(self):
        rec = _recording(280000)
        ws = segment_fixed(rec, 4.0, [(0.0, 560.0, "walk")])
        assert ws.n_windows == len(ws.window_ids) == 140
        assert ws.length == 2000

    def test_exact_tiling_with_two_labels(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 4.0, "walk"), (4.0, 8.0, "run")])
        assert ws.labels == ("walk", "run")
        assert ws.window_labels == ("walk", "run")

    def test_boundary_truncation(self):
        rec = _recording(6 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 6.0, "walk")])
        assert ws.n_windows == 1
        assert ws.window_ids.tolist() == [0]
        assert ws.times()[0].tolist() == [0.0]

    def test_straddling_window_goes_unlabeled(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 3.0, "walk"), (3.0, 8.0, "run")])
        # first window [0, 4) crosses the boundary at 3 s
        assert ws.labels == ("run",)
        assert ws.window_labels == (None, "run")
        assert ws.window_ids.tolist() == [1]

    def test_unlabeled_time_dropped(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(4.0, 8.0, "run")])
        assert ws.labels == ("run",)
        assert ws.n_windows - len(ws.window_ids) == 1

    def test_prediction_mode_keeps_all_windows(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, labels=None)
        assert ws.window_ids.tolist() == [0, 1]
        assert ws.window_labels is None
        assert ws.labels is None

    @pytest.mark.parametrize("seconds", [0.001, math.nan, math.inf, -math.inf, 1e307])
    def test_window_too_short(self, seconds):
        with pytest.raises(WindowTooShort):
            segment_fixed(_recording(100, rate=100.0), seconds, None)

    @pytest.mark.parametrize("seconds", [9.0, 1e17, 1e300])
    @pytest.mark.parametrize("labels", [None, [(0.0, 8.0, "walk")]], ids=["predict", "run"])
    def test_window_longer_than_the_recording_tiles_nothing(self, seconds, labels):
        # However long, the window is cut to one sample past the recording,
        # so its times and the extraction's buffers stay recording-sized.
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, seconds, labels)
        assert (ws.n_windows, ws.length) == (0, rec.length + 1)
        assert [t.tolist() for t in ws.times()] == [[], []]
        assert ws.labels is None
        settings = default_settings(rec.channels)
        assert extract(ws, rec, settings).values.shape == (0, len(settings.features))

    def test_overlapping_labels(self):
        rec = _recording(8 * 500)
        with pytest.raises(OverlappingLabels):
            segment_fixed(rec, 4.0, [(0.0, 5.0, "walk"), (4.0, 8.0, "run")])

    def test_touching_intervals_are_fine(self):
        rec = _recording(8 * 500)
        ws = segment_fixed(rec, 4.0, [(0.0, 4.0, "a"), (4.0, 8.0, "b")])
        assert len(ws.window_ids) == 2

    def test_deterministic(self):
        rec = _recording(8 * 500)
        labels = [(0.0, 4.0, "walk"), (4.0, 8.0, "run")]
        assert segment_fixed(rec, 4.0, labels) == segment_fixed(rec, 4.0, labels)

    def test_windows_disjoint_and_within_bounds(self):
        rec = _recording(1234, rate=10.0)
        ws = segment_fixed(rec, 3.0, None)
        starts, ends = ws.times()
        assert ws.n_windows * ws.length <= rec.length
        assert ends[-1] <= rec.length / rec.sample_rate_hz
        assert (ends[:-1] <= starts[1:]).all()

    def test_grid_checks_its_fields(self):
        rec = _recording(10)
        with pytest.raises(WindowTooShort):
            WindowSet(rec, 1)
        with pytest.raises(ValueError, match="3 window labels for 5 windows"):
            WindowSet(rec, 2, (None, "a", "b"))


def test_segment_fixed_matches_the_per_window_oracle():
    """The grid has the windows that tiling one window at a time gives: the
    same count, the same rows (labeled windows, or all of them in prediction
    mode) with the same labels, and the same start and end times bit for
    bit.  Rates need not divide the window, t0 need not be 0, intervals may
    touch or leave gaps, their edges sit on window boundaries or anywhere,
    give or take float noise, and a recording may be shorter than one
    window."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    noise = st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-6, -1e-6])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        rate=st.sampled_from([50.0, 100.0, 30.0, 7.3, 128.0]) | st.floats(1.0, 200.0),
        window_seconds=st.sampled_from([0.5, 2.0, 4.0, 0.37]) | st.floats(0.02, 3.0),
        n=st.integers(1, 400),
        t0=st.sampled_from([0.0, 12.5, -3.7, 1000.1]) | st.floats(-1e4, 1e4),
        labeled=st.booleans(),
        data=st.data(),
    )
    def check(rate, window_seconds, n, t0, labeled, data):
        w = round(window_seconds * rate)
        hypothesis.assume(w >= 2)
        rec = Recording(sample_rate_hz=rate, channels={"a": np.zeros(n)}, t0=t0)
        labels = None
        if labeled:
            on_grid = st.integers(0, n // w + 1).map(lambda k: t0 + k * w / rate)
            anywhere = st.floats(t0 - 1.0, t0 + (n + 1) / rate)
            points = data.draw(st.lists(
                st.tuples(on_grid | anywhere, noise).map(sum), min_size=2, max_size=8
            ))
            points.sort()
            # Consecutive points bound touching intervals; dropping some
            # leaves gaps.  An end pushed by 1e-12 or 5e-10 past the next
            # start still counts as touching.
            keep = data.draw(st.lists(st.booleans(), min_size=len(points) - 1,
                                      max_size=len(points) - 1))
            end_noise = data.draw(st.lists(st.sampled_from([0.0, 1e-12, -1e-12, 5e-10]),
                                           min_size=len(points) - 1, max_size=len(points) - 1))
            labels = [
                (a, b + e, f"c{i % 3}")
                for i, (a, b, e, k) in enumerate(zip(points, points[1:], end_noise, keep))
                if k and b - a > 1e-9
            ]
            data.draw(st.randoms()).shuffle(labels)
        ws = segment_fixed(rec, window_seconds, labels)
        want = oracles.tiles(rec, w, labels)
        rows = [t for t in want if labels is None or t[2] is not None]
        assert ws.n_windows == len(want)
        assert ws.window_ids.tolist() == [wid for _, wid, _ in rows]
        assert ws.labels == (tuple(label for *_, label in rows if label is not None) or None)
        starts, ends = ws.times()
        assert starts.tolist() == [t0 + start / rate for start, _, _ in rows]
        assert ends.tolist() == [t0 + (start + w) / rate for start, _, _ in rows]

    check()


def _touching(edges, t0):
    return [(t0 + a, t0 + b, f"c{i % 3}") for i, (a, b) in enumerate(zip(edges, edges[1:]))]


_RNG = np.random.default_rng(11)
_EDGES = [0.0, 2.0, 6.0, 7.0, 7.5, 12.0, 20.0, 20.3, 31.0, 38.0, 44.0, 60.0]


@pytest.mark.parametrize("labels", [
    _touching(_EDGES, 3.3),
    # each end 5e-10 past the next start: an overlap within the edge slack
    [(a, b + 5e-10, label) for a, b, label in _touching(_EDGES, 3.3)],
    [_touching(_EDGES, 3.3)[i] for i in _RNG.permutation(len(_EDGES) - 1)],
    _touching(np.unique(np.r_[np.arange(0, 201, 2.0), _RNG.uniform(0, 100, 300)]), 3.3),
], ids=["touching", "overlap_within_slack", "unsorted", "hundreds"])
def test_segment_fixed_labels_fixed_interval_sets_as_the_oracle(labels):
    """The one labelling call gives each window the oracle's label on interval
    sets the drawn ones seldom reach: 2-s windows from t0 = 3.3 s, intervals
    that touch, overlap by less than the edge slack, arrive out of order, or
    number several hundred."""
    rec = Recording(sample_rate_hz=10.0, channels={"a": np.zeros(2000)}, t0=3.3)
    want = tuple(label for *_, label in oracles.tiles(rec, 20, labels))
    assert segment_fixed(rec, 2.0, labels).window_labels == want
    assert None in want and len(set(want)) > 2


class TestSliceWindow:
    """A window's samples are cut from the recording by `extract`."""

    def test_direct_slice(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0, 3.0, 4.0, 5.0]})
        ws = WindowSet(rec, 2, (None, "a"))
        settings = settings_from_feature_names(["k__minimum", "k__maximum", "k__mean_change"])
        matrix = extract(ws, rec, settings)
        assert matrix.window_ids.tolist() == [1]
        got = {f.calculator: v for f, v in zip(matrix.feature_names, matrix.values[0])}
        # minimum, maximum and the signed step pin the slice to [3.0, 4.0] in order
        assert got == {"minimum": 3.0, "maximum": 4.0, "mean_change": 1.0}

    def test_unknown_kind(self):
        rec = Recording(sample_rate_hz=1.0, channels={"k": [1.0, 2.0]})
        ws = WindowSet(rec, 2)
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

    @pytest.mark.parametrize("body", ["0.0,8.0,\n", '0.0,8.0,""\n'])
    def test_empty_label(self, body):
        # The timeline writes an empty cell for a window without a label, so
        # an empty label cannot name a class.
        with pytest.raises(InvalidValue, match="empty label"):
            load_labels_csv(io.StringIO("start_s,end_s,label\n0.0,4.0,walk\n" + body))

    @pytest.mark.parametrize(
        "body", ['0,1,"a\n', '0,1,"a\rb"\n', '0,1,"walk\r\n"\n', "0,1,a\x0cb\n", "0,1,a\x85b\n"]
    )
    def test_label_with_line_break(self, body):
        # The model file holds one class per line and the manifest one key per
        # line (split as str.splitlines does), so neither could hold this one.
        with pytest.raises(InvalidValue, match="line break"):
            load_labels_csv(io.StringIO("start_s,end_s,label\n" + body))

    @pytest.mark.parametrize("body", ['0,1,"wa,lk"\n', '0,1,"wa""lk"\n', '0,1,wa"lk\n'])
    def test_label_with_comma_or_quote(self, body):
        # save_labels, the timeline and the manifest's classes write labels
        # unquoted between commas.
        with pytest.raises(InvalidValue, match="label with ','"):
            load_labels_csv(io.StringIO("start_s,end_s,label\n" + body))

    @pytest.mark.parametrize("body", ["0,1,a\rb\n", "0,1," + "x" * 200_000 + "\n"])
    def test_line_the_csv_reader_refuses(self, body):
        with pytest.raises(InconsistentChannels, match="line 2"):
            load_labels_csv(io.StringIO("start_s,end_s,label\n" + body))

    def test_byte_order_mark_is_named(self, tmp_path):
        # "CSV UTF-8" as spreadsheet tools save it: refused, naming the mark
        path = tmp_path / "labels.csv"
        path.write_bytes(b"\xef\xbb\xbfstart_s,end_s,label\n0,4,walk\n")
        for read in (lambda: timeseries.load_labels(str(path)),
                     lambda: load_labels_csv(io.StringIO(path.read_text(encoding="utf-8")))):
            with pytest.raises(InconsistentChannels, match="byte-order mark"):
                read()

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"start_s,end_s,label\n0,1,w\xffalk\n")
        with pytest.raises(DataError, match="not UTF-8") as caught:
            timeseries.load_labels(str(path))
        assert type(caught.value) is DataError
        assert str(path) in str(caught.value)


def test_malformed_labels_raise_only_documented_errors(tmp_path):
    """Any text either reads as finite intervals with one-line labels, which
    ``save_labels`` writes so that ``load_labels`` reads them back unchanged,
    or raises InconsistentChannels or InvalidValue, never a bare ValueError
    or csv.Error."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pieces = st.sampled_from([
        "start_s,end_s,label", "0", "1.5", "-2", "nan", "inf", "1e999", "walk", "x",
        ",", "\n", "\r", "\r\n", '"', '""', " ", "\x00", "\x0c", "\x85", "\u2028", "\u00e9",
    ])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        header=st.booleans(), parts=st.lists(st.one_of(pieces, st.text(max_size=4)), max_size=40)
    )
    @hypothesis.example(header=True, parts=['0,1,"wa,lk"\n'])
    def check(header, parts):
        text = ("start_s,end_s,label\n" if header else "") + "".join(parts)
        try:
            rows = load_labels_csv(io.StringIO(text))
        except (InconsistentChannels, InvalidValue):
            return
        for start, end, label in rows:
            assert np.isfinite([start, end]).all() and start < end
            assert label.splitlines() in ([], [label])
        path = str(tmp_path / "labels.csv")
        timeseries.save_labels(rows, path)
        assert timeseries.load_labels(path) == rows

    check()
