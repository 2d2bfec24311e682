"""Synthetic two-sensor activity recordings for desk-scale experiments.

Real ankle-mounted IMU recordings are not distributable, so the pipeline is
exercised on generated stand-ins: each activity drives every channel with a
sinusoid (plus one harmonic) at an activity-specific frequency and
amplitude, modulated per channel, with seeded Gaussian noise on top.
Activity blocks are whole multiples of the window length, and the matching
label intervals are returned alongside the recording.

``drift`` scales all frequencies, and a fresh seed redraws noise and block
order; together they emulate a hold-out session recorded on another day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameters
from .timeseries import Recording

# (axis multiplier, phase) per channel; the right side is deliberately
# off-amplitude and off-phase so left/right difference channels carry signal.
_CHANNELS: dict[str, tuple[float, float]] = {
    "accel_x_l": (1.00, 0.0),
    "accel_y_l": (0.80, 0.7),
    "accel_z_l": (1.20, 1.4),
    "accel_x_r": (1.12, 0.5),
    "accel_y_r": (0.90, 1.3),
    "accel_z_r": (1.34, 2.0),
}

# activity -> (fundamental frequency Hz, amplitude)
WALK_RUN_PROFILES: dict[str, tuple[float, float]] = {
    "walk": (1.8, 1.0),
    "run": (3.0, 2.4),
}

MULTI_ACTIVITY_PROFILES: dict[str, tuple[float, float]] = {
    "lay": (0.25, 0.15),
    "pushup": (0.9, 1.6),
    "run": (3.0, 2.4),
    "walk": (1.8, 1.0),
}

_BLOCK_SALT = 101
_NOISE_SALT = 202
_PERSON_SALT = 303


@dataclass(frozen=True)
class SynthResult:
    recording: Recording
    labels: list[tuple[float, float, str]]


def _blocks_to_intervals(
    window_activities: list[str], window_seconds: float
) -> list[tuple[float, float, str]]:
    intervals: list[tuple[float, float, str]] = []
    start = 0
    for i in range(1, len(window_activities) + 1):
        if i == len(window_activities) or window_activities[i] != window_activities[start]:
            intervals.append((start * window_seconds, i * window_seconds, window_activities[start]))
            start = i
    return intervals


def _alternating_blocks(
    n_windows: int, activities: list[str], rng: np.random.Generator, shuffle_rounds: bool
) -> list[str]:
    """Per-window activity sequence in blocks of 2..6 windows.

    Activities cycle (optionally reshuffled per round), so every activity
    appears before any repeats; block sizes are capped low enough that a
    default-length recording covers the full activity set.
    """
    out: list[str] = []
    order = list(activities)
    pos = 0
    while len(out) < n_windows:
        if pos == 0 and shuffle_rounds:
            order = list(activities)
            rng.shuffle(order)
        act = order[pos]
        pos = (pos + 1) % len(order)
        block = int(rng.integers(2, 7))
        out.extend([act] * block)
    return out[:n_windows]


def _generate(
    duration_s: float,
    sample_rate_hz: float,
    window_seconds: float,
    seed: int,
    noise: float,
    drift: float,
    profiles: dict[str, tuple[float, float]],
    amp_mult: float = 1.0,
    freq_mult: float = 1.0,
    phase_shift: float = 0.0,
    shuffle_rounds: bool = False,
) -> SynthResult:
    if not np.isfinite([duration_s * sample_rate_hz, window_seconds * sample_rate_hz]).all():
        raise BadParameters("duration, sample rate and window length must be finite")
    if not np.isfinite([noise, drift]).all():
        raise BadParameters("noise and drift must be finite")
    w = int(round(window_seconds * sample_rate_hz))
    if w < 2:
        raise BadParameters("window too short for the requested sample rate")
    n_windows = int(round(duration_s * sample_rate_hz)) // w
    if n_windows < 2:
        raise BadParameters("duration must cover at least 2 windows")
    n_samples = n_windows * w
    seed = seed & ((1 << 64) - 1)

    block_rng = np.random.default_rng((seed, _BLOCK_SALT))
    window_acts = _alternating_blocks(
        n_windows, sorted(profiles), block_rng, shuffle_rounds
    )
    freq_w = np.asarray([profiles[a][0] for a in window_acts]) * drift * freq_mult
    amp_w = np.asarray([profiles[a][1] for a in window_acts]) * amp_mult
    freq = np.repeat(freq_w, w)
    amp = np.repeat(amp_w, w)

    t = np.arange(n_samples, dtype=np.float64) / sample_rate_hz
    noise_rng = np.random.default_rng((seed, _NOISE_SALT))
    channels: dict[str, np.ndarray] = {}
    for kind in sorted(_CHANNELS):
        mult, phase = _CHANNELS[kind]
        phase = phase + phase_shift
        base = amp * mult * (
            np.sin(2.0 * np.pi * freq * t + phase)
            + 0.4 * np.sin(4.0 * np.pi * freq * t + 2.0 * phase)
        )
        channels[kind] = base + noise * noise_rng.standard_normal(n_samples)

    recording = Recording(sample_rate_hz=sample_rate_hz, channels=channels, t0=0.0)
    return SynthResult(recording, _blocks_to_intervals(window_acts, window_seconds))


def synth_walk_run(
    duration_s: float = 560.0,
    sample_rate_hz: float = 100.0,
    window_seconds: float = 4.0,
    seed: int = 0,
    noise: float = 0.35,
    drift: float = 1.0,
) -> SynthResult:
    """Two-sensor (3-axis accel each) walk/run recording plus label intervals."""
    return _generate(
        duration_s, sample_rate_hz, window_seconds, seed, noise, drift, WALK_RUN_PROFILES
    )


def synth_multi_activity(
    person: int = 0,
    duration_s: float = 96.0,
    sample_rate_hz: float = 50.0,
    window_seconds: float = 4.0,
    seed: int = 0,
    noise: float = 0.3,
) -> SynthResult:
    """One person's 4-activity recording; per-person parameter jitter.

    The person index perturbs amplitudes, frequencies, and phases, so models
    must generalize across persons rather than memorize one parameterization.
    """
    if person < 0:
        raise BadParameters(f"person must be >= 0, got {person}")
    person_rng = np.random.default_rng((seed & ((1 << 64) - 1), _PERSON_SALT, person))
    amp_mult = 1.0 + 0.10 * float(person_rng.uniform(-1.0, 1.0))
    freq_mult = 1.0 + 0.05 * float(person_rng.uniform(-1.0, 1.0))
    phase_shift = float(person_rng.uniform(0.0, 2.0 * np.pi))
    return _generate(
        duration_s,
        sample_rate_hz,
        window_seconds,
        seed + 1000 * (person + 1),
        noise,
        1.0,
        MULTI_ACTIVITY_PROFILES,
        amp_mult=amp_mult,
        freq_mult=freq_mult,
        phase_shift=phase_shift,
        shuffle_rounds=True,
    )
