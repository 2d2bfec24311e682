"""Multi-channel recordings, CSV ingestion, and fixed-length segmentation.

A :class:`Recording` holds synchronized, uniformly sampled channels keyed by
*kind* (e.g. ``accel_y_r``).  Recordings are written and read as wide CSV
(``time,<kind>,...``, one row per time step) and segmented into labeled
fixed-length windows, the sample unit of everything downstream.

Recordings and window sets are immutable after construction and safe to read
concurrently.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    DataError,
    InconsistentChannels,
    InvalidKindName,
    InvalidValue,
    NonUniformSampling,
    OverlappingLabels,
    WindowTooShort,
)

# Relative tolerance for the uniform-sampling check of the time column.
UNIFORM_STEP_RTOL = 1e-6

# Slack (seconds) when testing whether a window lies inside a label interval,
# absorbing float noise in regenerated time grids.
_LABEL_EDGE_EPS = 1e-9

# Also checks calculator and parameter names in ``names.validate_identifier``.
_IDENT_RE = re.compile(r"^[A-Za-z0-9]+(?:_[A-Za-z0-9]+)*$")


def validate_kind(name: str) -> str:
    """Check that *name* is a legal channel kind and return it.

    Kinds are non-empty, consist of alphanumerics separated by single
    underscores, and in particular never contain ``__``, which is reserved
    as the feature-name separator.
    """
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise InvalidKindName(f"invalid channel kind: {name!r}")
    return name


def render_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same 64-bit float.

    This is ``repr`` of a Python float.  The CSV writers render whole
    columns with :func:`render_floats`, which gives the same bytes.
    """
    return repr(float(v))


# Every integer constant of the float kernel is an explicit uint64, so the
# result does not depend on numpy's scalar promotion rules.
_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_POW5 = np.array([5**i for i in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# Biased exponents of Ryu's e2 < 0 branch whose multiplier 5**i fits 64 bits:
# magnitudes in [2**-32, 2**54).  Other nonzero values are rendered by repr.
_EXP_MIN, _EXP_MAX = 991, 1076


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact 128-bit product of a < 2**56 and b < 2**64 as (high, low)
    64-bit halves, built from 32-bit limbs."""
    a1, a0 = a >> _U(32), a & _M32
    b1, b0 = b >> _U(32), b & _M32
    low = a0 * b0
    mid = a1 * b0 + (low >> _U(32))
    mid2 = a0 * b1 + (mid & _M32)
    high = a1 * b1 + (mid >> _U(32)) + (mid2 >> _U(32))
    return high, (mid2 << _U(32)) | (low & _M32)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive floats whose biased exponents
    lie in [_EXP_MIN, _EXP_MAX], given as their bits: (digits, exponent),
    the value being ``digits * 10**exponent`` as ``repr`` prints it.

    This is the e2 < 0 branch of Ryu (Adams, PLDI 2018).  The float is
    ``mv * 2**e2``, and the reals that round to it lie between ``mm`` and
    ``mp`` (times ``2**e2``).  Scaled by ``10**-(q + e2)``, the three are
    ``x * 5**i // 2**q``, exact 128-bit products ``vm < vr < vp``, and
    ``vp - vm >= 10``.  Digits are removed from all three while the interval
    still holds a shorter number, and ``vr`` is rounded to nearest, a tie
    (only an exact ``vr`` has one) to even.

    Ryu's handling of the bounds themselves, taken when the mantissa is
    even, is left out, as it changes no digit in this range.  A bound is
    exact only for q <= 1, from 2**50 up, where ``vp`` and ``vm`` end in 5,
    are ``100 * f +- 50`` for an integer ``f``, or ``10 * (f +- 1)`` for an
    even integer ``f``: ``vp - 1`` decides no test ``vp // 10**r > vm //
    10**r`` otherwise, and ``vm`` keeps a trailing zero, which Ryu would
    strip or take as the result, only in the last case and only until the
    first removal leaves ``vr = f > vm = f - 1``.
    """
    mant = bits & _U((1 << 52) - 1)
    mm_shift = mant != _U(0)  # a power of two has a lower gap of half the upper
    mv = (mant | _U(1 << 52)) << _U(2)
    minus_e2 = _U(1077) - (bits >> _U(52))
    q = ((minus_e2 * _U(732923)) >> _U(20)) - (minus_e2 > _U(1))  # log10(5**-e2) - 1
    pow5 = _POW5[minus_e2 - q]
    # mp and mm are mv + 2 and mv - 1 - mm_shift: their products differ from
    # mv's by 2 * 5**i and (1 + mm_shift) * 5**i, both below 2**64.
    high, low = _product(mv, pow5)
    low_p = low + (pow5 << _U(1))
    low_m = low - (pow5 << mm_shift.astype(np.uint64))
    back = _U(63) - q  # high << (64 - q) in two steps, so no shift reaches 64
    vr = (low >> q) | ((high << _U(1)) << back)
    vp = (low_p >> q) | (((high + (low_p < low)) << _U(1)) << back)
    vm = (low_m >> q) | (((high - (low_m > low)) << _U(1)) << back)
    # The digits to remove: the largest r with vp // 10**r > vm // 10**r,
    # which holds for every smaller r too, found 16, 8, 4, 2, 1 at a time.
    removed = np.zeros(bits.shape, dtype=np.int64)
    for step in (16, 8, 4, 2, 1):
        vp_s, vm_s = vp // _POW10[step], vm // _POW10[step]
        take = vp_s > vm_s
        if take.any():
            vp = np.where(take, vp_s, vp)
            vm = np.where(take, vm_s, vm)
            removed += take * step
    # vr less r - 1 digits (r >= 1, as vp - vm >= 10): its last digit is
    # the last one removed.  A last 5 is a tie when vr is exact, which it is
    # when 2**q divides mv: vr is then a multiple of 5**i, and with
    # vp - vm <= 401 the digits removed before such a 5 are all zeros.
    head = vr // _POW10[removed - 1]
    exact = (mv & ((_U(1) << q) - _U(1))) == _U(0)
    vr = head // _U(10)
    last = head - vr * _U(10)
    tie_to_even = exact & (last == _U(5)) & ((vr & _U(1)) == _U(0))
    round_up = (last >= _U(5)) & ~tie_to_even
    digits = vr + (round_up | (vr == vm))  # vr == vm lies at or below mm
    return digits, removed + q.astype(np.int64) - minus_e2.astype(np.int64)


def _words(texts: list[bytes]) -> np.ndarray:
    """Each text of at most 4 bytes, padded with zero bytes, as one uint32."""
    return np.frombuffer(b"".join(t.ljust(4, b"\0") for t in texts), dtype=np.uint32)


def _group_words() -> np.ndarray:
    """Four-digit groups as uint32 words: rows [0, 1e4) hold every digit,
    [1e4, 2e4) drop trailing zeros and [2e4, 3e4) leading zeros (a zero
    byte in place of each), then a lone units zero and a lone first
    fraction zero."""
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    text = (digits + ord("0")).astype(np.uint8)
    nonzero = digits != 0
    trailing = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] == 0
    leading = np.cumsum(nonzero, axis=1) == 0
    table = np.concatenate([text, np.where(trailing, 0, text), np.where(leading, 0, text)])
    return np.concatenate([table.view(np.uint32).ravel(), _words([b"\0\0\x000", b"0"])])


_GROUPS = _group_words()
_TRAILING, _LEADING, _UNITS_ZERO, _FRACTION_ZERO = 10_000, 20_000, 30_000, 30_001
_SIGNS = _words([b"", b"-"])
_POINTS = _words([b"", b"."])
_EXPONENTS = _words([b""] + [b"e%+03d" % e for e in range(-10, 17)])  # at decpt + 10


def render_floats(values: np.ndarray) -> np.ndarray:
    """``repr`` of every element of a float array, as a byte matrix.

    Row ``j`` holds the bytes of ``repr(float(values.flat[j]))`` in order,
    with zero bytes between and after them as padding, so dropping a row's
    zero bytes gives the text.  Zero and magnitudes in ``[2**-32, 2**54)``
    go through the array kernel (:func:`_shortest`); each other element, a
    subnormal, a huge or tiny value or one that is not finite, is rendered
    by ``repr`` itself.

    The text is laid out in 32-bit words: the sign, up to four groups of
    four integer places, the point, up to five groups of four fraction
    places and the exponent.  Each group is one lookup of its value in a
    table that keeps or drops its leading or trailing zeros.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = values.view(np.uint64)
    mag = bits & _U((1 << 63) - 1)
    kernel = ((mag >> _U(52)) - _U(_EXP_MIN)) <= _U(_EXP_MAX - _EXP_MIN)
    digits, exponent = _shortest(np.where(kernel, mag, np.float64(1.0).view(np.uint64)))
    zero = mag == _U(0)
    digits[zero] = 0
    exponent[zero] = 0
    n_digits = np.searchsorted(_POW10[1:18], digits, side="right") + 1
    decpt = exponent + n_digits  # value = 0.<digits> * 10**decpt
    sci = (decpt < -3) | (decpt > 16)
    # Split digits at the point: ``whole`` and ``fraction`` of n_frac places.
    n_frac = np.where(sci, n_digits - 1, np.maximum(-exponent, 0))
    scale = _POW10[np.minimum(n_frac, 19)]
    whole = digits // scale
    fraction = digits - whole * scale
    whole *= _POW10[np.where(sci, 0, np.maximum(exponent, 0))]
    # The 20 fraction places as two integers of 8 and 12 places.
    scale = _POW10[np.maximum(n_frac - 8, 0)]
    frac_hi = fraction // scale
    frac_lo = (fraction - frac_hi * scale) * _POW10[20 - np.maximum(n_frac, 8)]
    frac_hi *= _POW10[np.maximum(8 - n_frac, 0)]

    # Words, each a column of the result: the sign, as many groups as the
    # widest whole part needs, the point, as many groups as the longest
    # fraction needs, and the exponent.
    columns = []
    negative = bits >> _U(63)
    if negative.any():
        columns.append(_SIGNS[negative])
    n_whole = (len(str(whole.max(initial=0))) + 3) // 4
    for j, group in enumerate(_groups(whole, 4 * n_whole)):
        leading = whole < _POW10[4 * (n_whole - j)]  # no digit before this group
        columns.append(_GROUPS[np.where(leading, group + _U(_LEADING), group)])
    columns[-1] = np.where(whole == _U(0), _GROUPS[_UNITS_ZERO], columns[-1])
    columns.append(_POINTS[(~sci | (fraction != _U(0))).view(np.uint8)])
    n_fraction = max(1, -(-int(n_frac.max(initial=0)) // 4))
    groups = _groups(frac_hi, 8) + (_groups(frac_lo, 12) if n_fraction > 2 else [])
    fraction_words = []
    trailing = np.ones(values.size, dtype=bool)  # no digit after this group
    for group in reversed(groups[:n_fraction]):
        fraction_words.append(_GROUPS[np.where(trailing, group + _U(_TRAILING), group)])
        trailing &= group == _U(0)
    fraction_words[-1] = np.where(trailing & ~sci, _GROUPS[_FRACTION_ZERO], fraction_words[-1])
    columns.extend(reversed(fraction_words))
    if sci.any():
        columns.append(_EXPONENTS[np.where(sci, decpt + 10, 0)])

    fallback = np.flatnonzero(~kernel & ~zero).tolist()
    if fallback:  # repr's text takes at most 24 bytes
        columns.extend([np.zeros(values.size, dtype=np.uint32)] * (6 - len(columns)))
    text = np.stack(columns, axis=1)
    for j in fallback:
        text[j] = 0
        text[j, :6] = np.frombuffer(repr(float(values[j])).encode().ljust(24, b"\0"), np.uint32)
    return text.view(np.uint8)


def _groups(x: np.ndarray, places: int) -> list[np.ndarray]:
    """The ``places // 4`` four-digit groups of ``x < 10**places``, most
    significant first."""
    out = []
    for k in range(places - 4, -1, -4):
        group = x // _POW10[k]
        x = x - group * _POW10[k]
        out.append(group)
    return out


class _OwnChannels(dict):
    """float64 arrays no caller holds, which a Recording keeps uncopied."""


@dataclass(frozen=True, eq=False)
class Recording:
    """Synchronized multi-channel signal store.

    Parameters
    ----------
    sample_rate_hz : float
        Common sampling rate of all channels, > 0.
    channels : dict
        Maps channel kind to a 1-D float array; all arrays share one length.
        The recording keeps a read-only float64 copy of each, so that no
        caller can change it afterwards, not even by making an array it
        passed writable again.
    t0 : float
        Time of the first sample, in seconds.
    """

    sample_rate_hz: float
    channels: dict[str, np.ndarray]
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not self.channels:
            raise InconsistentChannels("recording has no channels")
        if not (self.sample_rate_hz > 0):
            raise InvalidValue(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        frozen: dict[str, np.ndarray] = {}
        own = isinstance(self.channels, _OwnChannels)
        length = None
        for kind, values in self.channels.items():
            validate_kind(kind)
            arr = np.asarray(values) if own else np.array(values, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] < 1:
                raise InconsistentChannels(f"channel {kind!r} must be a non-empty 1-D sequence")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise InconsistentChannels(
                    f"channel {kind!r} has length {arr.shape[0]}, expected {length}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidValue(f"channel {kind!r} contains NaN or infinite values")
            arr.setflags(write=False)
            frozen[kind] = arr
        object.__setattr__(self, "channels", frozen)

    @property
    def length(self) -> int:
        return next(iter(self.channels.values())).shape[0]

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self.channels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Recording):
            return NotImplemented
        return (
            self.sample_rate_hz == other.sample_rate_hz
            and self.t0 == other.t0
            and self.kinds == other.kinds
            and all(np.array_equal(self.channels[k], other.channels[k]) for k in self.channels)
        )

    def __repr__(self) -> str:
        return (
            f"Recording(rate={self.sample_rate_hz}, kinds={len(self.channels)}, "
            f"length={self.length}, t0={self.t0})"
        )


@dataclass(frozen=True)
class WindowSet:
    """Consecutive non-overlapping windows of ``length`` samples tiling a
    recording from sample 0; tile ``i`` covers samples ``[i * length,
    (i + 1) * length)`` and a trailing partial tile is dropped.

    ``window_labels`` holds each tile's label, ``None`` for a tile that
    straddles a label boundary or covers unlabeled time; ``None`` as a whole
    marks prediction mode, in which every tile is a row.
    """

    recording: Recording
    length: int
    window_labels: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        if self.length < 2:
            raise WindowTooShort(f"window length must be >= 2 samples, got {self.length}")
        if self.window_labels is not None and len(self.window_labels) != self.n_windows:
            raise ValueError(
                f"{len(self.window_labels)} window labels for {self.n_windows} windows"
            )

    @property
    def n_windows(self) -> int:
        """Number of tiles, labeled or not."""
        return self.recording.length // self.length

    @property
    def window_ids(self) -> np.ndarray:
        """Ascending indices of the labeled tiles (every tile in prediction mode)."""
        if self.window_labels is None:
            return np.arange(self.n_windows, dtype=np.int64)
        return np.flatnonzero([label is not None for label in self.window_labels])

    @property
    def labels(self) -> tuple[str, ...] | None:
        """The labels of the windows in ``window_ids``; None if there are none."""
        return tuple(label for label in self.window_labels or () if label is not None) or None

    def times(self) -> tuple[np.ndarray, np.ndarray]:
        """(start_s, end_s) of each window in ``window_ids`` on the recording's
        time base."""
        starts = self.window_ids * self.length
        rate, t0 = self.recording.sample_rate_hz, self.recording.t0
        return t0 + starts / rate, t0 + (starts + self.length) / rate


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_recording_csv(stream: BinaryIO | TextIO) -> Recording:
    """Ingest a wide recording CSV into a Recording.

    The header is ``time`` and then distinct valid kinds, the layout the
    writers emit: one row per time step with a field per column.  The
    header ``time,kind,value`` of the long layout, one row per sample, is
    refused with InconsistentChannels.  Blank lines are skipped; ``\\r\\n``
    and a lone ``\\r`` end a line like ``\\n``.

    A line with the wrong field count raises InconsistentChannels naming
    it; else a field that does not parse raises InvalidValue naming the
    first column, time first, that holds one.  The parsed table is then
    checked in order: each channel finite, in header order, and the time
    column finite (InvalidValue); at least 2 samples
    (InconsistentChannels); a uniform step (NonUniformSampling).  The step
    is ``(t[-1] - t[0]) / (n - 1)`` and the rate its inverse; each step may
    deviate from it by 1e-6 of it plus two ulps of the largest time stamp.

    Raises
    ------
    InconsistentChannels, NonUniformSampling, InvalidValue, InvalidKindName
    """
    raw = stream.read()
    if isinstance(raw, str):
        raw = raw.encode("utf-8")  # rebinding lets go of the str
    return _parse_recording(raw)


def load_recording(path: str) -> Recording:
    """Read the recording CSV at *path*; see :func:`load_recording_csv`."""
    path = os.fspath(path)
    if path.endswith(_COMPRESSED_SUFFIXES):
        with open(path, "rb") as fh:
            return _parse_recording(fh.read())
    return _parse_recording(path)


# Suffixes numpy's reader decompresses when it opens a file by name.  A plain
# recording with such a name is parsed from its lines instead.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _text(source: str | bytes) -> TextIO:
    """The file at path *source*, or the bytes *source*, as UTF-8 text in
    which ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as numpy reads a
    named file.  A byte that is not UTF-8 becomes a lone surrogate, so the
    field holding it does not parse."""
    raw = io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb")
    return io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline=None)


def _parse_recording(source: str | bytes) -> Recording:
    """The reader behind both entry points.  The header line alone is
    checked first: exactly ``time,kind,value``, the long layout, is
    refused.  Then the table, in order: each channel finite, in header
    order; the time column finite; at least 2 samples; a uniform step.  The
    Recording keeps the table's columns uncopied."""
    with _text(source) as fh:
        header = fh.readline().rstrip("\n")
        has_rows = any(line != "\n" for line in fh)
    if header == "time,kind,value":
        raise InconsistentChannels(
            "the long layout 'time,kind,value' is not read: only the wide layout "
            "'time,<kind>,...' is, one row per time step"
        )
    kinds = _wide_kinds(header)
    if not has_rows:  # numpy's reader would warn on it
        raise InconsistentChannels("CSV contains no data rows")
    table = _wide_table(source, kinds)
    for j, kind in enumerate(kinds, 1):
        if not np.isfinite(table[:, j]).all():
            raise InvalidValue(f"channel {kind!r} contains NaN or infinite values")
    grid = table[:, 0]
    if not np.isfinite(grid).all():
        raise InvalidValue("time column contains NaN or infinite values")
    if grid.shape[0] < 2:
        raise InconsistentChannels("a recording needs at least 2 samples to infer a rate")
    # The span over the sample count, not a typical step: on a Unix-time base
    # each step is off by an ulp of the stamps, which a median would keep.
    dt = float((grid[-1] - grid[0]) / (grid.shape[0] - 1))
    if dt <= 0:
        raise NonUniformSampling("time values must be strictly increasing")
    deviation = np.abs(np.diff(grid) - dt)
    if np.any(deviation > UNIFORM_STEP_RTOL * dt + 2 * np.spacing(np.abs(grid).max())):
        raise NonUniformSampling(
            f"non-uniform time step: span / (n - 1) is {dt}, worst deviation "
            f"{float(deviation.max())}"
        )
    return Recording(1.0 / dt, _OwnChannels(zip(kinds, table[:, 1:].T)), float(grid[0]))


def _bom_note(header: str) -> str:
    """The reason to append to the refusal of *header* when it starts with a
    UTF-8 byte-order mark, as spreadsheet tools write "CSV UTF-8"; else ''."""
    if header.startswith("\ufeff"):
        return ": the file starts with a UTF-8 byte-order mark (EF BB BF); save it without one"
    return ""


def _wide_kinds(header: str) -> tuple[str, ...]:
    """The kinds a wide header ``time,<kind>,...`` names: valid and distinct."""
    names = header.split(",")
    if names[0] != "time" or len(names) < 2:
        raise InconsistentChannels(
            f"expected header 'time,<kind>,...', got {header!r}{_bom_note(header)}")
    kinds = tuple(validate_kind(name) for name in names[1:])
    if len(set(kinds)) != len(kinds):
        raise InconsistentChannels(f"header names a kind twice: {header!r}")
    return kinds


def _wide_table(source: str | bytes, kinds: tuple[str, ...]) -> np.ndarray:
    """The ``(n, K + 1)`` table of a wide CSV from one call of numpy's text
    reader, which parses a path by name, or bytes through :func:`_text`.

    Only when that call fails is the CSV read whole through :func:`_text`
    and split into lines.  The first line with the wrong field count
    raises InconsistentChannels (lines counted from 1, the header and blank
    lines included); otherwise the first column with a field that does not
    parse, the time column first, raises InvalidValue."""
    try:
        with nullcontext(source) if isinstance(source, str) else _text(source) as fh:
            table = _loadtxt(fh, skiprows=1, ndmin=2)
        if table.shape[1] != len(kinds) + 1:
            raise ValueError(f"{table.shape[1]} fields per line")
        return table
    except ValueError as exc:
        error = exc
    # Not str.splitlines, which also ends a line at \x0b, \x0c, \x1c and more.
    with _text(source) as fh:
        lines = fh.read().split("\n")[1:]
    for lineno, line in enumerate(lines, start=2):
        if line and line.count(",") != len(kinds):
            raise InconsistentChannels(
                f"line {lineno}: expected {len(kinds) + 1} fields, got {line.count(',') + 1}"
            )
    text = [line for line in lines if line]
    for j, name in enumerate(["time column"] + [f"channel {kind!r}" for kind in kinds]):
        try:
            _loadtxt(text, usecols=j)
        except ValueError as exc:
            raise InvalidValue(f"{name}: unparseable numeric field ({exc})") from None
    raise InvalidValue(f"unparseable numeric field ({error})")


def _loadtxt(source, skiprows: int = 0, ndmin: int = 1, usecols: int | None = None):
    return np.loadtxt(
        source, dtype=np.float64, delimiter=",", comments=None, skiprows=skiprows,
        encoding="utf-8", ndmin=ndmin, usecols=usecols,
    )


# Values the CSV writers render per call.  Every temporary of a writer
# scales with it, not with the data: the recording writer's traced peak is
# about 1.1 MB at any length.
_BLOCK_VALUES = 4096


def render_table(values: np.ndarray) -> np.ndarray:
    """The CSV lines of a ``(rows, cols)`` float block as a byte matrix, one
    row per line: a comma and ``repr`` of each cell, then a newline.  Zero
    bytes pad the cells; the writers drop them with ``bytes.translate``."""
    rows, cols = values.shape
    text = render_floats(values)
    width = 1 + text.shape[1]
    cells = np.empty((rows, cols, width), dtype=np.uint8)
    cells[:, :, 0] = ord(",")
    cells[:, :, 1:] = text.reshape(rows, cols, width - 1)
    lines = np.empty((rows, cols * width + 1), dtype=np.uint8)
    lines[:, :-1] = cells.reshape(rows, cols * width)
    lines[:, -1] = ord("\n")
    return lines


def save_recording_csv(recording: Recording, stream: TextIO) -> None:
    """Serialize a recording as wide CSV: the header ``time,<kind>,...``,
    kinds in ``recording.kinds`` order, then one row per time step.

    Times and values are written as ``repr`` writes a Python float, the
    shortest round-trip decimal, so ingesting the output reproduces the
    channel values exactly.  :func:`render_table` renders about
    ``_BLOCK_VALUES`` floats of rows at a time, so no temporary grows with
    the recording.  Kinds of exactly ``kind`` and ``value`` raise
    InvalidKindName, since their header, ``time,kind,value``, is the long
    layout's, which the reader refuses.
    """
    kinds = recording.kinds
    if kinds == ("kind", "value"):
        raise InvalidKindName(
            "kinds 'kind' and 'value' would write the header 'time,kind,value', "
            "which the reader refuses as the long layout"
        )
    stream.write(",".join(("time",) + kinds) + "\n")
    block_rows = max(1, _BLOCK_VALUES // (len(kinds) + 1))
    for lo in range(0, recording.length, block_rows):
        hi = min(lo + block_rows, recording.length)
        table = np.empty((hi - lo, len(kinds) + 1))
        table[:, 0] = recording.t0 + np.arange(lo, hi) / recording.sample_rate_hz
        for j, kind in enumerate(kinds, 1):
            table[:, j] = recording.channels[kind][lo:hi]
        lines = render_table(table)
        lines[:, 0] = 0  # a line starts with its time, not a comma
        stream.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


def save_recording(recording: Recording, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_recording_csv(recording, fh)


def _csv_rows(stream: TextIO) -> Iterator[list[str]]:
    """Rows of a CSV stream; a line the reader refuses raises
    InconsistentChannels."""
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as exc:
        raise InconsistentChannels(f"labels CSV line {reader.line_num}: {exc}") from None


def load_labels_csv(stream: TextIO) -> list[tuple[float, float, str]]:
    """Read a labels CSV with header ``start_s,end_s,label``.

    A line the CSV reader cannot parse, a wrong header or a row without
    three fields raises InconsistentChannels; a bad interval, or a label
    with a line break of any kind ``str.splitlines`` knows (which the model
    file and the manifest could not hold) or with ``,`` or ``"`` (which the
    CSV artifacts write unquoted), raises InvalidValue.
    """
    reader = _csv_rows(stream)
    header = next(reader, None)
    if header is None:
        raise InconsistentChannels("labels CSV is empty")
    if header != ["start_s", "end_s", "label"]:
        text = ",".join(header)
        raise InconsistentChannels(
            f"expected header 'start_s,end_s,label', got {text!r}{_bom_note(text)}"
        )
    out: list[tuple[float, float, str]] = []
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise InconsistentChannels(f"labels CSV row has {len(row)} fields: {row!r}")
        try:
            start, end = float(row[0]), float(row[1])
        except ValueError as exc:
            raise InvalidValue(f"labels CSV: {exc}") from None
        if not (math.isfinite(start) and math.isfinite(end)) or end <= start:
            raise InvalidValue(f"labels CSV: bad interval ({row[0]}, {row[1]})")
        if row[2].splitlines() not in ([], [row[2]]):  # any line boundary
            raise InvalidValue(f"labels CSV: label with a line break in row {row!r}")
        if "," in row[2] or '"' in row[2]:
            raise InvalidValue(f"labels CSV: label with ',' or '\"' in row {row!r}")
        out.append((start, end, row[2]))
    return out


@contextmanager
def open_utf8(path: str, what: str, newline: str | None = None) -> Iterator[TextIO]:
    """*path* opened as UTF-8 text; a byte that does not decode while the
    ``with`` block reads raises DataError naming the *what* at *path*."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{what} {path!r} is not UTF-8: {exc}") from None


def load_labels(path: str) -> list[tuple[float, float, str]]:
    with open_utf8(path, "labels CSV", newline="") as fh:
        return load_labels_csv(fh)


def save_labels(intervals: Iterable[tuple[float, float, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("start_s,end_s,label\n")
        for start, end, label in intervals:
            fh.write(f"{render_float(start)},{render_float(end)},{label}\n")


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------

def resolve_label(
    starts: np.ndarray, ends: np.ndarray, intervals: Sequence[tuple[float, float, str]]
) -> tuple[str | None, ...]:
    """Label of each window ``[starts[i], ends[i]]``: that of the first
    interval, by start, holding it within the edge slack, else None.  Raises
    OverlappingLabels if two intervals overlap by more than the slack."""
    ordered = sorted(intervals, key=lambda iv: (iv[0], iv[1]))
    for (s0, e0, _), (s1, _, _) in zip(ordered, ordered[1:]):
        if s1 < e0 - _LABEL_EDGE_EPS:
            raise OverlappingLabels(f"label intervals overlap near t={s1}")
    which = np.full(starts.shape, -1)  # -1 picks the None after the labels
    for k, (iv_start, iv_end, _) in enumerate(ordered):
        inside = (starts >= iv_start - _LABEL_EDGE_EPS) & (ends <= iv_end + _LABEL_EDGE_EPS)
        which[inside & (which < 0)] = k
    names = [label for _, _, label in ordered] + [None]
    return tuple(names[k] for k in which.tolist())


def segment_fixed(
    recording: Recording,
    window_seconds: float,
    labels: Sequence[tuple[float, float, str]] | None = None,
) -> WindowSet:
    """Tile the recording with consecutive non-overlapping windows.

    Windows are ``round(window_seconds * sample_rate_hz)`` samples long and
    start at index 0.  A window is labeled iff its full time span lies inside
    a single label interval; a window covering a boundary or unlabeled time
    gets the label ``None`` and is no row of the set.  With ``labels=None``
    the set is in prediction mode and every window is a row.
    """
    samples = window_seconds * recording.sample_rate_hz
    if not math.isfinite(samples):
        raise WindowTooShort(
            f"{window_seconds} s at {recording.sample_rate_hz} Hz is not a finite number of samples"
        )
    w = int(round(samples))
    if w < 2:
        raise WindowTooShort(
            f"{window_seconds} s at {recording.sample_rate_hz} Hz is {w} samples"
        )
    tiles = WindowSet(recording, w)
    if labels is None:
        return tiles
    return WindowSet(recording, w, resolve_label(*tiles.times(), labels))
