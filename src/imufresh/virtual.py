"""Virtual sensors: channels derived from physical channels.

Synchronized sensors allow paired signals, e.g. the per-axis absolute
difference between the accelerometers of two units.  Each derived channel is
described by a :class:`VirtualSensorSpec` and materialized with
:func:`apply_virtual_sensors`; :func:`default_pairing` builds the standard
abs-diff specs for a left/right two-sensor setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, DuplicateKind, NoPairsFound, UnknownKind
from .timeseries import Recording, _OwnChannels, validate_kind

VIRTUAL_OPS = ("abs_diff", "diff", "derivative")


@dataclass(frozen=True)
class VirtualSensorSpec:
    """One derived channel: ``op`` applied to ``inputs``, stored as ``output``."""

    op: str
    inputs: tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        if self.op not in VIRTUAL_OPS:
            raise BadParameters(f"unknown virtual-sensor op {self.op!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.op in ("abs_diff", "diff"):
            if len(self.inputs) != 2 or self.inputs[0] == self.inputs[1]:
                raise BadParameters(f"{self.op} requires exactly 2 distinct inputs")
        elif len(self.inputs) != 1:
            raise BadParameters("derivative requires exactly 1 input")
        for kind in self.inputs:
            validate_kind(kind)
        validate_kind(self.output)

    def to_line(self) -> str:
        return " ".join((self.op, *self.inputs, self.output))

    @classmethod
    def from_line(cls, line: str) -> "VirtualSensorSpec":
        parts = line.split()
        if len(parts) < 3:
            raise BadParameters(f"malformed virtual-sensor spec: {line!r}")
        return cls(op=parts[0], inputs=tuple(parts[1:-1]), output=parts[-1])


def apply_virtual_sensors(
    recording: Recording, specs: list[VirtualSensorSpec] | tuple[VirtualSensorSpec, ...]
) -> Recording:
    """Return a new recording with all original channels plus the derived ones.

    Specs are evaluated in order, so earlier outputs may feed later specs.
    ``abs_diff`` is |a - b| per sample, ``diff`` is a - b, and ``derivative``
    is the forward difference scaled by the sample rate with element 0 set to
    0 so channel lengths are preserved.
    """
    channels: dict[str, np.ndarray] = dict(recording.channels)
    for spec in specs:
        for kind in spec.inputs:
            if kind not in channels:
                raise UnknownKind(f"virtual sensor {spec.output!r}: missing input {kind!r}")
        if spec.output in channels:
            raise DuplicateKind(f"output kind {spec.output!r} already exists")
        if spec.op == "abs_diff":
            out = np.abs(channels[spec.inputs[0]] - channels[spec.inputs[1]])
        elif spec.op == "diff":
            out = channels[spec.inputs[0]] - channels[spec.inputs[1]]
        else:
            x = channels[spec.inputs[0]]
            out = np.empty_like(x)
            out[0] = 0.0
            out[1:] = (x[1:] - x[:-1]) * recording.sample_rate_hz
        channels[spec.output] = out
    return Recording(recording.sample_rate_hz, _OwnChannels(channels), recording.t0)


def default_pairing(
    recording: Recording, left_suffix: str, right_suffix: str
) -> list[VirtualSensorSpec]:
    """Abs-diff specs for every accel/gyro base present on both sides.

    A base qualifies when both ``{base}{left_suffix}`` and
    ``{base}{right_suffix}`` exist and the base starts with ``accel_`` or
    ``gyro_``.  The output kind is the base with trailing underscores trimmed
    plus ``_diff`` (e.g. ``accel_x_l`` / ``accel_x_r`` -> ``accel_x_diff``),
    and specs are ordered lexicographically by base.
    """
    if not left_suffix or not right_suffix:
        raise BadParameters("pairing suffixes must be non-empty")
    kinds = set(recording.channels)
    specs: list[VirtualSensorSpec] = []
    bases = sorted(
        k[: -len(left_suffix)] for k in kinds if k.endswith(left_suffix) and k != left_suffix
    )
    for base in bases:
        if not (base.startswith("accel_") or base.startswith("gyro_")):
            continue
        left = base + left_suffix
        right = base + right_suffix
        if right not in kinds:
            continue
        specs.append(
            VirtualSensorSpec(
                op="abs_diff",
                inputs=(left, right),
                output=base.rstrip("_") + "_diff",
            )
        )
    if not specs:
        raise NoPairsFound(
            f"no accel/gyro channel pairs with suffixes {left_suffix!r}/{right_suffix!r}"
        )
    return specs
