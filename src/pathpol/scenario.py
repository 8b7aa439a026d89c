"""Run configuration: a flat key-value text format and its validation.

A scenario file is plain UTF-8 text, one ``key = value`` assignment per
line; ``#`` starts a comment and blank lines are ignored. Later assignments
win, and ``--set key=value`` command-line overrides use the same syntax.
The full schema (all keys optional):

    amplitudes.i1  = 1.0      # source intensities |A|^2, in [1e-150, 1e150]
    amplitudes.i2  = 1.0
    phases.theta1  = 0.0      # radians
    phases.theta2  = 0.0
    phases.phi1    = 0.0
    phases.phi2    = 0.0
    sweep.variable = delta    # theta1 | theta2 | phi1 | phi2 | delta
    sweep.start    = 0.0      # radians
    sweep.stop     = 6.283185307179586
    sweep.points   = 64       # 2 .. 100000 (MAX_SWEEP_POINTS)
    output         = out.csv  # sweep destination; '-' or unset = stdout

Defaults: equal unit intensities, all phases zero, no sweep block.
``sweep.variable`` is required as soon as any other ``sweep.`` key appears.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, pi, sqrt

import numpy as np

from .bench import INTENSITY_RANGE, PHASE_NAMES, PhaseSetting, SourceSpec
from .detector import DEFAULT_OMEGA_1, DEFAULT_OMEGA_2
from .tensor import Array

SWEEP_VARIABLES = PHASE_NAMES + ("delta",)
# a sweep peaks at ~1.0 KiB of resident memory per point (+100 MiB at the
# cap over a ~78 MiB interpreter, nearly all of it state stacks), so
# longer sweeps are refused before anything is allocated
MAX_SWEEP_POINTS = 100_000


class ConfigError(ValueError):
    """A scenario file or override that cannot be accepted."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration; ``amplitudes`` holds the intensities."""

    amplitudes: tuple[float, float] = (1.0, 1.0)
    phases: PhaseSetting = PhaseSetting(0.0, 0.0, 0.0, 0.0)
    sweep: SweepSpec | None = None
    output: str | None = None

    def sources(self) -> tuple[SourceSpec, SourceSpec]:
        """Source specs with real amplitudes sqrt(I) and the default frequencies."""
        return (
            SourceSpec(sqrt(self.amplitudes[0]), DEFAULT_OMEGA_1),
            SourceSpec(sqrt(self.amplitudes[1]), DEFAULT_OMEGA_2),
        )


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"invalid number for {key}: {raw!r}") from None
    if not isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"invalid integer for {key}: {raw!r}") from None


_PHASE_KEYS = tuple(f"phases.{name}" for name in PHASE_NAMES)
_KNOWN_KEYS = (
    "amplitudes.i1",
    "amplitudes.i2",
    *_PHASE_KEYS,
    "sweep.variable",
    "sweep.start",
    "sweep.stop",
    "sweep.points",
    "output",
)


def parse_assignment(text: str) -> tuple[str, str]:
    """Split one ``key = value`` assignment; the key must be known."""
    if "=" not in text:
        raise ConfigError(f"expected 'key = value', got {text!r}")
    key, _, raw = text.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"unknown key {key!r}")
    if not raw:
        raise ConfigError(f"empty value for {key!r}")
    return key, raw


def _build(table: dict[str, str]) -> Scenario:
    i1 = _parse_float("amplitudes.i1", table.get("amplitudes.i1", "1.0"))
    i2 = _parse_float("amplitudes.i2", table.get("amplitudes.i2", "1.0"))
    lo, hi = INTENSITY_RANGE
    for key, value in (("amplitudes.i1", i1), ("amplitudes.i2", i2)):
        if value <= 0.0:
            raise ConfigError(f"{key} must be > 0, got {value:g}")
        if not lo <= value <= hi:
            raise ConfigError(f"{key} must be in [{lo:g}, {hi:g}], got {value:g}")

    try:
        phases = PhaseSetting(*(_parse_float(key, table.get(key, "0.0")) for key in _PHASE_KEYS))
    except ValueError as exc:  # finite phases whose delta overflows
        raise ConfigError(f"phases: {exc}") from None

    sweep = None
    if any(key.startswith("sweep.") for key in table):
        if "sweep.variable" not in table:
            raise ConfigError(
                "sweep.variable is required when a sweep block is present"
            )
        variable = table["sweep.variable"]
        if variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep.variable must be one of {', '.join(SWEEP_VARIABLES)}, "
                f"got {variable!r}"
            )
        points = _parse_int("sweep.points", table.get("sweep.points", "64"))
        if points < 2:
            raise ConfigError(f"sweep.points must be >= 2, got {points}")
        if points > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep.points must be <= MAX_SWEEP_POINTS={MAX_SWEEP_POINTS}, got {points}"
            )
        start = _parse_float("sweep.start", table.get("sweep.start", "0.0"))
        stop = _parse_float("sweep.stop", table.get("sweep.stop", repr(2.0 * pi)))
        if not isfinite(stop - start):
            raise ConfigError(f"sweep.stop - sweep.start must be finite, got {stop:g} - {start:g}")
        sweep = SweepSpec(variable, start, stop, points)

    output = table.get("output")
    if output == "-":
        output = None
    return Scenario((i1, i2), phases, sweep, output)


def parse_scenario(text: str, overrides: tuple[str, ...] = ()) -> Scenario:
    """Parse a scenario file body plus optional ``key=value`` overrides."""
    table: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            key, raw = parse_assignment(body)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        table[key] = raw
    for item in overrides:
        key, raw = parse_assignment(item)
        table[key] = raw
    return _build(table)


def phase_setting_for(variable: str, value: float | Array, base: PhaseSetting) -> PhaseSetting:
    """Phase setting with one swept coordinate pinned to ``value``.

    Sweeping ``delta`` moves theta1 so that the total phase difference equals
    ``value`` while the other three phases keep their base values. An array
    of values gives the sweep, one setting per entry.
    """
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    # finite values and base phases can still sum past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if variable == "delta":
                return replace(base, theta1=value + base.theta2 + base.phi2 - base.phi1)
            return replace(base, **{variable: value})
        except ValueError as exc:
            raise ConfigError(f"sweep of {variable} reaches a non-finite phase: {exc}") from None
