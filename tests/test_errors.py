"""The shared field check `errors.require` and the domain types built on it."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np
import pytest

from rydfm.analysis import DetectorModel, LorentzParams, SensitivityReport, allan_deviation
from rydfm.errors import DomainError, InvariantViolation, TruncationError, require
from rydfm.fm import FmConfig, RamParams
from rydfm.noise import NoiseBudget, TimeSeries, shot_noise_snr
from rydfm.quantum import FieldDrive, LadderSystem, cs_vapor_density
from rydfm.scenario import NoiseOpts, ScanOpts, ServoOpts
from rydfm.servo import PidGains
from rydfm.spectroscopy import AtResult, field_from_splitting, splitting_from_field

# every scalar domain type with valid constructor arguments
DOMAIN_TYPES = {
    LadderSystem: {},
    FieldDrive: {},
    FmConfig: {},
    RamParams: {},
    PidGains: {},
    TimeSeries: {"dt": 1e-3, "values": np.zeros(4), "seed": 1, "kind": "white_fm"},
    NoiseBudget: {},
    LorentzParams: {"amplitude": 1.0, "sigma": 2.0, "nu_c": 0.0},
    DetectorModel: {},
    SensitivityReport: {"responsivity": 1.0, "noise_floor": 1.0, "e_min": 1.0,
                        "projection_limit_value": 1.0},
    AtResult: {"split_hz": 1e6, "peak_locations": None},
    ServoOpts: {},
    NoiseOpts: {},
    ScanOpts: {},
}
FLOAT_FIELDS = [(cls, f.name) for cls in DOMAIN_TYPES for f in fields(cls)
                if f.type in ("float", "float | None")]


@dataclass
class Probe:
    x: float = 1.0
    maybe: float | None = None
    count: int = 1
    label: str = "nan"


class TestRequire:
    def test_every_domain_type_has_float_fields(self):
        assert {cls for cls, _ in FLOAT_FIELDS} == set(DOMAIN_TYPES)

    @pytest.mark.parametrize("cls", DOMAIN_TYPES, ids=lambda cls: cls.__name__)
    def test_valid_arguments_construct(self, cls):
        cls(**DOMAIN_TYPES[cls])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
    def test_non_finite_float_field_is_named(self, cls, name, value):
        # the truncation check runs first, so a non-finite beta is its error
        error = TruncationError if (cls, name) == (FmConfig, "beta") else InvariantViolation
        with pytest.raises(error, match=rf"\b{name}\b"):
            cls(**(DOMAIN_TYPES[cls] | {name: value}))

    def test_nan_fails_both_sign_checks(self):
        for bound in ("positive", "nonnegative"):
            with pytest.raises(InvariantViolation, match="x must be"):
                require(Probe(x=math.nan), **{bound: ("x",)})

    def test_sign_bounds(self):
        require(Probe(x=0.0), nonnegative=("x",))
        with pytest.raises(InvariantViolation, match=re.escape("x must be > 0, got 0.0")):
            require(Probe(x=0.0), positive=("x",))
        with pytest.raises(InvariantViolation, match=re.escape("x must be >= 0, got -1e-300")):
            require(Probe(x=-1e-300), nonnegative=("x",))

    def test_none_int_and_str_fields(self):
        require(Probe(), positive=("maybe",), nonnegative=("maybe",))  # None is "not set"
        require(Probe(count=0, label="inf"), nonnegative=("count",))
        with pytest.raises(InvariantViolation, match="maybe must be finite"):
            require(Probe(maybe=math.inf))
        with pytest.raises(InvariantViolation, match="count must be > 0"):
            require(Probe(count=0), positive=("count",))

    def test_non_finite_temperature_is_reported_before_the_vapor_density(self):
        with pytest.raises(InvariantViolation, match="temperature must be finite"):
            LadderSystem(temperature=math.nan)


class TestSignBounds:
    def test_noise_seed(self):
        assert NoiseOpts(seed=0).seed == 0
        with pytest.raises(InvariantViolation, match="seed must be >= 0"):
            NoiseOpts(seed=-1)

    def test_random_walk_step(self):
        assert ServoOpts(drift_step_std=0.0).drift_step_std == 0.0
        with pytest.raises(InvariantViolation, match="drift_step_std must be >= 0"):
            ServoOpts(drift_model="random_walk", drift_step_std=-1e-3)

    @pytest.mark.parametrize("name", ["eta", "signal_fraction"])
    def test_detector_fractions_at_most_one(self, name):
        DetectorModel(**{name: 1.0})
        with pytest.raises(InvariantViolation, match=name):
            DetectorModel(**{name: 1.5})


SERIES = TimeSeries(dt=1e-3, values=np.zeros(64), seed=1, kind="white_fm")


class TestPublicChecksFailOnNan:
    """Each argument check of a public function is written so that NaN fails it."""

    @pytest.mark.parametrize("call, error", [
        (lambda: cs_vapor_density(math.nan), InvariantViolation),
        (lambda: field_from_splitting(1e6, math.nan), DomainError),
        (lambda: field_from_splitting(math.nan, 1e-26), InvariantViolation),
        (lambda: splitting_from_field(1.0, math.nan), DomainError),
        (lambda: shot_noise_snr(math.nan, 1e-6, 852e-9, 1.0), InvariantViolation),
        (lambda: shot_noise_snr(0.8, math.nan, 852e-9, 1.0), InvariantViolation),
        (lambda: shot_noise_snr(0.8, 1e-6, math.nan, 1.0), InvariantViolation),
        (lambda: shot_noise_snr(0.8, 1e-6, 852e-9, math.nan), InvariantViolation),
        (lambda: allan_deviation(SERIES, [math.nan]), InvariantViolation),
        (lambda: allan_deviation(SERIES, [math.inf]), InvariantViolation),
        (lambda: allan_deviation(SERIES, [1e308]), InvariantViolation),
        (lambda: field_from_splitting(1e6, math.inf), DomainError),
        (lambda: field_from_splitting(math.inf, 1e-26), InvariantViolation),
        (lambda: splitting_from_field(1.0, math.inf), DomainError),
        (lambda: splitting_from_field(math.nan, 1e-26), InvariantViolation),
        (lambda: splitting_from_field(math.inf, 1e-26), InvariantViolation),
        (lambda: splitting_from_field(-math.inf, 1e-26), InvariantViolation),
        (lambda: splitting_from_field(-1.0, 1e-26), InvariantViolation),
        (lambda: shot_noise_snr(math.inf, 1e-6, 852e-9, 1.0), InvariantViolation),
        (lambda: shot_noise_snr(0.8, math.inf, 852e-9, 1.0), InvariantViolation),
        (lambda: shot_noise_snr(0.8, 1e-6, math.inf, 1.0), InvariantViolation),
        (lambda: shot_noise_snr(0.8, 1e-6, 852e-9, math.inf), InvariantViolation),
    ], ids=["cs_vapor_density", "field_from_splitting-mu_rf", "field_from_splitting-split_hz",
            "splitting_from_field-mu_rf", "shot_noise_snr-eta", "shot_noise_snr-power",
            "shot_noise_snr-wavelength", "shot_noise_snr-bandwidth", "allan_deviation-nan",
            "allan_deviation-inf", "allan_deviation-overflowing", "field_from_splitting-mu_rf-inf",
            "field_from_splitting-split_hz-inf", "splitting_from_field-mu_rf-inf",
            "splitting_from_field-e_field-nan", "splitting_from_field-e_field-inf",
            "splitting_from_field-e_field-minus-inf", "splitting_from_field-e_field-negative",
            "shot_noise_snr-eta-inf",
            "shot_noise_snr-power-inf", "shot_noise_snr-wavelength-inf",
            "shot_noise_snr-bandwidth-inf"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()
