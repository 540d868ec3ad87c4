"""Flat sectioned key-value scenario files.

Grammar: '#' starts a comment, '[section]' opens a section, 'key = value'
assigns inside it.  Unknown sections or keys are rejected, duplicates are
errors, and every value is validated against the domain-type invariants.
An empty file yields the default scenario (probe and coupling Rabi
frequencies 2*pi*6.7 and 2*pi*7.0 MHz, 10 MHz modulation, +1 MHz coupling
detuning).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import pipelines
from .analysis import DetectorModel
from .errors import InvariantViolation, ParseError, TruncationError, UnknownKeyError, require
from .fm import FmConfig, RamParams, index_from_dbm
from .noise import NoiseBudget
from .quantum import FieldDrive, LadderSystem
from .servo import PidGains

_TWO_PI = 2 * math.pi
# Largest probe or field grid, FM medium-sample or atcal point count (detuning points x
# sideband orders or field points) or servo step count a scenario may request (bounds work).
MAX_GRID_POINTS = 10 ** 6
MAX_NOISE_SAMPLES = 2 ** 24  # largest noise series: 128 MiB of float64


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _grid_points(start: float, stop: float, step: float, what: str) -> int:
    """Point count of the grid start, start + step, ... <= stop, capped."""
    span = (stop - start) / step + 1e-9
    if not (span < MAX_GRID_POINTS):
        raise InvariantViolation(
            f"{what} grid would hold {span:.3g} points; the limit is {MAX_GRID_POINTS}"
        )
    return int(span) + 1


@dataclass
class ServoOpts:
    drift_model: str = "constant"
    drift_value: float = 0.2       # constant level / ramp start, rad
    drift_rate: float = 0.05       # ramp rate, rad/s
    drift_amp: float = 0.3         # sinusoid amplitude, rad
    drift_freq_hz: float = 0.05
    drift_step_std: float = 2e-3   # random-walk step sigma, rad
    duration_s: float = 16.384

    def __post_init__(self) -> None:
        if self.drift_model not in ("constant", "ramp", "sinusoid", "random_walk"):
            raise InvariantViolation(f"unknown drift model {self.drift_model!r}")
        require(self, positive=("duration_s",), nonnegative=("drift_step_std",))


@dataclass
class NoiseOpts:
    budget: NoiseBudget = field(default_factory=NoiseBudget)
    kind: str = "white_fm"
    coefficient: float = 1e-22
    n_samples: int = 65536
    dt: float = 1e-3
    seed: int = 12345
    shot_current_a: float = 0.0

    def __post_init__(self) -> None:
        valid = ("white_pm", "flicker_pm", "white_fm", "rw_fm", "shot", "composite")
        if self.kind not in valid:
            raise InvariantViolation(f"noise kind must be one of {valid}")
        if not (2 <= self.n_samples <= MAX_NOISE_SAMPLES):
            raise InvariantViolation(f"n_samples must lie in [2, {MAX_NOISE_SAMPLES}]")
        if self.kind != "shot" and self.n_samples & (self.n_samples - 1):  # FFT shaping
            raise InvariantViolation(
                f"n_samples must be a power of two unless kind = shot, got {self.n_samples}")
        require(self, positive=("dt",), nonnegative=("coefficient", "shot_current_a", "seed"))
        if not math.isfinite((self.n_samples - 1) * self.dt):
            raise InvariantViolation(f"dt = {self.dt!r}: the last sample time (n_samples - 1) * dt "
                                     f"overflows at n_samples = {self.n_samples}")


@dataclass
class ScanOpts:
    quantity: str = "probe_detuning"
    start_hz: float = -30e6
    stop_hz: float = 30e6
    step_hz: float = 0.5e6
    e_start: float = 2e-3          # V/m, rf_field scans
    e_stop: float = 10e-3
    e_step: float = 2e-3
    kernel_hwhm_hz: float = 2.75e6
    e_operating: float = 7.5e-3    # V/m, sensitivity operating point
    line_noise_rms: float = 0.0    # additive white noise for `matched`

    def __post_init__(self) -> None:
        if self.quantity not in ("probe_detuning", "rf_field"):
            raise InvariantViolation("quantity must be probe_detuning or rf_field")
        require(self, positive=("step_hz", "e_step", "kernel_hwhm_hz", "e_operating"),
                nonnegative=("e_start", "line_noise_rms"))
        for start, stop in (("start_hz", "stop_hz"), ("e_start", "e_stop")):
            if not getattr(self, stop) > getattr(self, start):
                raise InvariantViolation(f"{stop} must exceed {start}")
        self.detuning_points()
        self.field_points()
        for end in ("start_hz", "stop_hz"):  # the grid runs in rad/s
            if not math.isfinite(_TWO_PI * getattr(self, end)):
                raise InvariantViolation(f"{end} = {getattr(self, end)!r} overflows in rad/s")

    def detuning_points(self) -> int:
        return _grid_points(self.start_hz, self.stop_hz, self.step_hz, "detuning")

    def field_points(self) -> int:
        return _grid_points(self.e_start, self.e_stop, self.e_step, "field")

    def detuning_grid_hz(self) -> np.ndarray:
        return self.start_hz + self.step_hz * np.arange(self.detuning_points())

    def probe_grid_rad_s(self) -> np.ndarray:
        return _TWO_PI * self.detuning_grid_hz()

    def field_grid(self) -> np.ndarray:
        return self.e_start + self.e_step * np.arange(self.field_points())


@dataclass
class OutputOpts:
    dir: str = "out"


@dataclass
class Scenario:
    system: LadderSystem
    drive: FieldDrive
    fm: FmConfig
    ram: RamParams
    gains: PidGains
    servo: ServoOpts
    noise: NoiseOpts
    detector: DetectorModel
    scan: ScanOpts
    output: OutputOpts
    apply_ram: bool = False

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def canonical_text(self) -> str:
        """Every input that affects the numbers; [output] is left out."""
        lines = []
        for name in _PARTS:
            if name not in ("budget", "output"):  # the budget is a field of noise
                obj = getattr(self, name)
                lines.append(f"[{name}]")
                lines += (f"{f.name} = {getattr(obj, f.name)!r}"
                          for f in sorted(fields(obj), key=lambda f: f.name))
        lines.append(f"apply_ram = {self.apply_ram!r}")
        return "\n".join(lines)


# Scenario part -> (section, dataclass, {field: key} where the key differs).
# Every init field of a scalar type is a key of the part's section.
_PARTS = {
    "system": ("system", LadderSystem, {}),
    "drive": ("drive", FieldDrive, {}),
    "fm": ("fm", FmConfig, {}),
    "ram": ("ram", RamParams, {}),
    "gains": ("ram", PidGains, {}),
    "servo": ("ram", ServoOpts, {}),
    "budget": ("noise", NoiseBudget, {"white_pm": "h_white_pm", "flicker_pm": "h_flicker_pm",
                                      "white_fm": "h_white_fm", "rw_fm": "h_rw_fm"}),
    "noise": ("noise", NoiseOpts, {}),
    "detector": ("noise", DetectorModel, {"power_w": "detected_power_w"}),
    "scan": ("scan", ScanOpts, {}),
    "output": ("output", OutputOpts, {}),
}
# Keys that set no dataclass field, by part; parse_scenario reads them itself.
_EXTRA_KEYS = {
    "drive": {"e_rf": _parse_float},
    "fm": {"apply_ram": _parse_bool, "drive_dbm": _parse_float},
}
_PARSERS = {"float": _parse_float, "float | None": _parse_float, "int": _parse_int,
            "str": _parse_str, "bool": _parse_bool}


def _derive_keys():
    """{part: {key: field}} and {section: {key: (field, parser)}} from `_PARTS`."""
    part_keys, schema = {}, {}
    for part, (section, cls, renames) in _PARTS.items():
        keys = schema.setdefault(section, {})
        part_keys[part] = {}
        for f in fields(cls):
            if f.init and f.type in _PARSERS:
                key = renames.get(f.name, f.name)
                part_keys[part][key] = f.name
                keys[key] = (f.name, _PARSERS[f.type])
        keys.update({key: (key, parser) for key, parser in _EXTRA_KEYS.get(part, {}).items()})
    return part_keys, schema


_PART_KEYS, _SCHEMA = _derive_keys()

# Default gains: Ziegler-Nichols for the default RamParams plant gain
# (see servo.ziegler_nichols_gains); recorded literally for reproducibility.
_DEFAULT_KP = 1808.271416733393
_DEFAULT_KI = 1084.9628500400358


def _tokenize(text: str):
    """Yield (line_number, section, key, raw_value) assignments."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise UnknownKeyError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ParseError(f"line {lineno}: assignment before any [section]")
        key, _, value = line.partition("=")
        yield lineno, section, key.strip().lower(), value.strip()


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario; empty text gives the defaults."""
    seen: dict[tuple[str, str], int] = {}
    values: dict[tuple[str, str], object] = {}
    for lineno, section, key, raw in _tokenize(text):
        if key not in _SCHEMA[section]:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ParseError(
                f"line {lineno}: duplicate key {key!r} in [{section}] "
                f"(first set on line {seen[(section, key)]})"
            )
        seen[(section, key)] = lineno
        _, parser = _SCHEMA[section][key]
        try:
            values[(section, key)] = parser(raw)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    def build(name: str, **extra):
        """Scenario part `name`; a key set in the file overrides `extra`."""
        section, cls, _ = _PARTS[name]
        for key, target in _PART_KEYS[name].items():
            if (section, key) in values:
                extra[target] = values[(section, key)]
        try:
            return cls(**extra)
        except InvariantViolation as exc:
            raise InvariantViolation(f"[{section}] {exc}") from exc

    system = build("system")
    drive = build("drive", omega_p=_TWO_PI * 6.7e6, omega_c=_TWO_PI * 7.0e6, delta_c=_TWO_PI * 1e6)
    if ("drive", "e_rf") in values:
        if ("drive", "omega_rf") in values:
            raise ParseError("[drive] e_rf and omega_rf are mutually exclusive")
        try:
            drive = pipelines.drive_at_field(system, drive, values[("drive", "e_rf")])
        except InvariantViolation as exc:
            raise InvariantViolation(f"[drive] e_rf = {values[('drive', 'e_rf')]!r}: {exc}") from exc

    scan_opts = build("scan")
    points = scan_opts.detuning_points() * scan_opts.field_points()
    if points > MAX_GRID_POINTS:  # atcal solves every field at every detuning point
        raise InvariantViolation(f"[scan] {points} atcal operating points; the limit is {MAX_GRID_POINTS}")

    fm_extra = {}
    if ("fm", "drive_dbm") in values:
        if ("fm", "beta") in values:
            raise ParseError("[fm] beta and drive_dbm are mutually exclusive")
        dbm = values[("fm", "drive_dbm")]
        try:
            fm_extra["beta"] = index_from_dbm(dbm)
        except OverflowError as exc:
            raise InvariantViolation(f"[fm] drive_dbm = {dbm!r}: the drive power overflows") from exc
    # an FM scan solves the medium at every detuning point + n * omega_m
    samples = scan_opts.detuning_points() * (2 * values.get(("fm", "n_max"), FmConfig.n_max) + 1)
    if samples > MAX_GRID_POINTS:
        raise InvariantViolation(f"[fm] {samples} FM medium points; the limit is {MAX_GRID_POINTS}")
    try:
        fm_cfg = build("fm", **fm_extra)
    except TruncationError as exc:  # a beta from drive_dbm is named by the key the file set
        raise TruncationError(f"[fm] drive_dbm = {dbm!r}: {exc}") if fm_extra else exc
    # sidebands reach n_max * omega_m past the probe carrier or any scan carrier
    carrier = max(abs(drive.delta_p), _TWO_PI * abs(scan_opts.start_hz), _TWO_PI * abs(scan_opts.stop_hz))
    if not math.isfinite(fm_cfg.n_max * fm_cfg.omega_m + carrier):
        raise InvariantViolation(f"[fm] omega_m = {fm_cfg.omega_m!r}: the sideband detunings "
                                 f"n_max * omega_m past a carrier overflow at n_max = {fm_cfg.n_max}")

    ram = build("ram")
    gains = build("gains", kp=_DEFAULT_KP, ki=_DEFAULT_KI)
    servo_opts = build("servo")
    steps = servo_opts.duration_s / gains.dt
    if not (math.isfinite(steps) and round(steps) <= MAX_GRID_POINTS):
        raise InvariantViolation(
            f"[ram] servo run would take {steps:.3g} steps; the limit is {MAX_GRID_POINTS}"
        )

    budget, detector = build("budget"), build("detector")
    return Scenario(system=system, drive=drive, fm=fm_cfg, ram=ram, gains=gains, servo=servo_opts,
                    noise=build("noise", budget=budget), detector=detector, scan=scan_opts,
                    output=build("output"), apply_ram=values.get(("fm", "apply_ram"), False))


def load_scenario(path: str | None) -> Scenario:
    if path is None:
        return parse_scenario("")
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())
