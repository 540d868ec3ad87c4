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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import DetectorModel
from .constants import HBAR
from .errors import InvariantViolation, ParseError, UnknownKeyError
from .fm import FmConfig, RamParams, index_from_dbm
from .noise import NoiseBudget
from .quantum import FieldDrive, LadderSystem
from .servo import PidGains

_TWO_PI = 2 * math.pi
# Largest probe or field grid, FM medium-sample count (detuning points x
# sideband orders) or servo step count a scenario may request (bounds work).
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
        if self.duration_s <= 0:
            raise InvariantViolation("duration_s must be > 0")


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
        if self.dt <= 0:
            raise InvariantViolation("dt must be > 0")
        if self.coefficient < 0 or self.shot_current_a < 0:
            raise InvariantViolation("coefficient and shot_current_a must be >= 0")


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
        if self.step_hz <= 0 or self.e_step <= 0:
            raise InvariantViolation("grid steps must be > 0")
        if self.stop_hz <= self.start_hz:
            raise InvariantViolation("stop_hz must exceed start_hz")
        if self.e_stop <= self.e_start:
            raise InvariantViolation("e_stop must exceed e_start")
        if self.kernel_hwhm_hz <= 0 or self.e_operating <= 0:
            raise InvariantViolation("kernel_hwhm_hz and e_operating must be > 0")
        if self.line_noise_rms < 0:
            raise InvariantViolation("line_noise_rms must be >= 0")
        self.detuning_points()
        _grid_points(self.e_start, self.e_stop, self.e_step, "field")

    def detuning_points(self) -> int:
        return _grid_points(self.start_hz, self.stop_hz, self.step_hz, "detuning")

    def detuning_grid_hz(self) -> np.ndarray:
        return self.start_hz + self.step_hz * np.arange(self.detuning_points())

    def probe_grid_rad_s(self) -> np.ndarray:
        return _TWO_PI * self.detuning_grid_hz()

    def field_grid(self) -> np.ndarray:
        n = _grid_points(self.e_start, self.e_stop, self.e_step, "field")
        return self.e_start + self.e_step * np.arange(n)


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
        for section, obj in (
            ("system", self.system),
            ("drive", self.drive),
            ("fm", self.fm),
            ("ram", self.ram),
            ("gains", self.gains),
            ("servo", self.servo),
            ("noise", self.noise),
            ("detector", self.detector),
            ("scan", self.scan),
        ):
            lines.append(f"[{section}]")
            for f in sorted(fields(obj), key=lambda f: f.name):
                lines.append(f"{f.name} = {getattr(obj, f.name)!r}")
        lines.append(f"apply_ram = {self.apply_ram!r}")
        return "\n".join(lines)


# (section, key) -> (target dataclass field, value parser); None keeps the
# section name as the target attribute on Scenario.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "system": {
        name: (name, _parse_float)
        for name in (
            "lambda_probe", "lambda_coupling", "gamma2", "gamma3", "gamma4",
            "gamma_deph", "mu12", "mu_rf", "n_atoms", "temperature",
            "atom_mass", "cell_length",
        )
    },
    "drive": {
        name: (name, _parse_float)
        for name in ("omega_p", "omega_c", "omega_rf", "delta_p", "delta_c", "delta_rf")
    } | {"e_rf": ("e_rf", _parse_float)},
    "fm": {
        "omega_m": ("omega_m", _parse_float),
        "beta": ("beta", _parse_float),
        "n_max": ("n_max", _parse_int),
        "lo_phase": ("lo_phase", _parse_float),
        "apply_ram": ("apply_ram", _parse_bool),
        "drive_dbm": ("drive_dbm", _parse_float),
    },
    "ram": {
        "alpha": ("alpha", _parse_float),
        "beta_angle": ("beta_angle", _parse_float),
        "m_diff": ("m_diff", _parse_float),
        "dphi_n": ("dphi_n", _parse_float),
        "dphi_dc": ("dphi_dc", _parse_float),
        "e0_sq": ("e0_sq", _parse_float),
        "kp": ("kp", _parse_float),
        "ki": ("ki", _parse_float),
        "kd": ("kd", _parse_float),
        "dt": ("dt", _parse_float),
        "output_clamp": ("output_clamp", _parse_float),
        "integrator_clamp": ("integrator_clamp", _parse_float),
        "drift_model": ("drift_model", _parse_str),
        "drift_value": ("drift_value", _parse_float),
        "drift_rate": ("drift_rate", _parse_float),
        "drift_amp": ("drift_amp", _parse_float),
        "drift_freq_hz": ("drift_freq_hz", _parse_float),
        "drift_step_std": ("drift_step_std", _parse_float),
        "duration_s": ("duration_s", _parse_float),
    },
    "noise": {
        "h_white_pm": ("white_pm", _parse_float),
        "h_flicker_pm": ("flicker_pm", _parse_float),
        "h_white_fm": ("white_fm", _parse_float),
        "h_rw_fm": ("rw_fm", _parse_float),
        "kind": ("kind", _parse_str),
        "coefficient": ("coefficient", _parse_float),
        "n_samples": ("n_samples", _parse_int),
        "dt": ("dt", _parse_float),
        "seed": ("seed", _parse_int),
        "shot_current_a": ("shot_current_a", _parse_float),
        "eta": ("eta", _parse_float),
        "detected_power_w": ("power_w", _parse_float),
        "signal_fraction": ("signal_fraction", _parse_float),
        "n_participating": ("n_participating", _parse_float),
    },
    "scan": {
        "quantity": ("quantity", _parse_str),
        "start_hz": ("start_hz", _parse_float),
        "stop_hz": ("stop_hz", _parse_float),
        "step_hz": ("step_hz", _parse_float),
        "e_start": ("e_start", _parse_float),
        "e_stop": ("e_stop", _parse_float),
        "e_step": ("e_step", _parse_float),
        "kernel_hwhm_hz": ("kernel_hwhm_hz", _parse_float),
        "e_operating": ("e_operating", _parse_float),
        "line_noise_rms": ("line_noise_rms", _parse_float),
    },
    "output": {
        "dir": ("dir", _parse_str),
    },
}

_RAM_PARAM_KEYS = ("alpha", "beta_angle", "m_diff", "dphi_n", "dphi_dc", "e0_sq")
_GAIN_KEYS = ("kp", "ki", "kd", "dt", "output_clamp", "integrator_clamp")
_SERVO_KEYS = (
    "drift_model", "drift_value", "drift_rate", "drift_amp", "drift_freq_hz",
    "drift_step_std", "duration_s",
)
_DETECTOR_KEYS = ("eta", "power_w", "signal_fraction", "n_participating")
_BUDGET_KEYS = ("white_pm", "flicker_pm", "white_fm", "rw_fm")

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

    def pick(section: str, mapping: dict[str, str]) -> dict:
        out = {}
        for key, target in mapping.items():
            if (section, key) in values:
                out[target] = values.pop((section, key))
        return out

    def build(factory, kwargs: dict, what: str):
        try:
            return factory(**kwargs)
        except InvariantViolation as exc:
            raise InvariantViolation(f"[{what}] {exc}") from exc

    system_kwargs = pick("system", {k: k for k in _SCHEMA["system"]})
    system = build(LadderSystem, system_kwargs, "system")

    drive_kwargs = pick("drive", {k: k for k in ("omega_p", "omega_c", "omega_rf",
                                                 "delta_p", "delta_c", "delta_rf")})
    e_rf = values.pop(("drive", "e_rf"), None)
    drive_defaults = {
        "omega_p": _TWO_PI * 6.7e6,
        "omega_c": _TWO_PI * 7.0e6,
        "delta_c": _TWO_PI * 1e6,
    }
    drive = build(FieldDrive, {**drive_defaults, **drive_kwargs}, "drive")
    if e_rf is not None:
        if "omega_rf" in drive_kwargs:
            raise ParseError("[drive] e_rf and omega_rf are mutually exclusive")
        drive = replace(drive, omega_rf=system.mu_rf * e_rf / HBAR)

    scan_kwargs = pick("scan", {k: k for k in _SCHEMA["scan"]})
    scan_opts = build(ScanOpts, scan_kwargs, "scan")

    apply_ram_flag = bool(values.pop(("fm", "apply_ram"), False))
    drive_dbm = values.pop(("fm", "drive_dbm"), None)
    fm_kwargs = pick("fm", {k: k for k in ("omega_m", "beta", "n_max", "lo_phase")})
    if drive_dbm is not None:
        if "beta" in fm_kwargs:
            raise ParseError("[fm] beta and drive_dbm are mutually exclusive")
        fm_kwargs["beta"] = index_from_dbm(drive_dbm)
    # an FM scan solves the medium at every detuning point + n * omega_m
    samples = scan_opts.detuning_points() * (2 * fm_kwargs.get("n_max", FmConfig.n_max) + 1)
    if samples > MAX_GRID_POINTS:
        raise InvariantViolation(f"[fm] {samples} FM medium points; the limit is {MAX_GRID_POINTS}")
    fm_cfg = build(FmConfig, fm_kwargs, "fm")

    ram_kwargs = pick("ram", {k: k for k in _RAM_PARAM_KEYS})
    ram = build(RamParams, ram_kwargs, "ram")

    gain_kwargs = pick("ram", {k: k for k in _GAIN_KEYS})
    gain_kwargs.setdefault("kp", _DEFAULT_KP)
    gain_kwargs.setdefault("ki", _DEFAULT_KI)
    gains = build(PidGains, gain_kwargs, "ram")

    servo_kwargs = pick("ram", {k: k for k in _SERVO_KEYS})
    servo_opts = build(ServoOpts, servo_kwargs, "ram")
    steps = servo_opts.duration_s / gains.dt
    if not (math.isfinite(steps) and round(steps) <= MAX_GRID_POINTS):
        raise InvariantViolation(
            f"[ram] servo run would take {steps:.3g} steps; the limit is {MAX_GRID_POINTS}"
        )

    budget_kwargs = pick("noise", dict(zip(("h_white_pm", "h_flicker_pm", "h_white_fm", "h_rw_fm"),
                                           _BUDGET_KEYS)))
    budget = build(NoiseBudget, budget_kwargs, "noise")
    detector_kwargs = pick("noise", {
        "eta": "eta", "detected_power_w": "power_w",
        "signal_fraction": "signal_fraction", "n_participating": "n_participating",
    })
    detector = build(DetectorModel, detector_kwargs, "noise")
    noise_kwargs = pick("noise", {k: k for k in ("kind", "coefficient", "n_samples",
                                                 "dt", "seed", "shot_current_a")})
    noise_opts = build(NoiseOpts, {"budget": budget, **noise_kwargs}, "noise")

    output_kwargs = pick("output", {k: k for k in _SCHEMA["output"]})
    output_opts = build(OutputOpts, output_kwargs, "output")

    return Scenario(
        system=system,
        drive=drive,
        fm=fm_cfg,
        ram=ram,
        gains=gains,
        servo=servo_opts,
        noise=noise_opts,
        detector=detector,
        scan=scan_opts,
        output=output_opts,
        apply_ram=apply_ram_flag,
    )


def load_scenario(path: str | None) -> Scenario:
    if path is None:
        return parse_scenario("")
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())
