"""Mechanical waves radiated into a medium by an accelerating boundary.

The package models the signal received ahead of a boundary moving along a
prescribed trajectory: a two-term asymptotic description (frequency and
amplitude modulation factors plus a slowly varying phase shift), an exact
retarded-time reference solution, a characteristics/transport view of the
same outgoing field, and signal-processing helpers for instantaneous
frequency and spectra.  A command-line tool (``dopplerlab``) drives CSV/SVG
output.
"""

from .asymptotics import (
    FieldSample,
    ModulationFactors,
    am_factor,
    classical_doppler,
    fm_factor,
    lab_phase,
    lab_phase_rate,
    leading_order_field,
    moving_frame_field,
    wavenumber,
)
from .characteristics import (
    CharacteristicCoords,
    TransportSolution,
    general_excitation_field,
    slow_characteristic,
    to_characteristic_coords,
    transport_amplitude,
    transport_solution,
)
from .config import RunConfig, load_config, parse_config
from .errors import (
    AliasingSuspected,
    ArgumentOutOfRange,
    ConfigError,
    DegenerateRatio,
    DopplerLabError,
    IdentityMismatch,
    InvalidNormalization,
    NoConvergence,
    NotYetReached,
    ObserverInsideBoundary,
    ProfileEvaluationError,
    SupersonicMotion,
)
from .motion import (
    BoundaryMotion,
    DimensionlessGroup,
    MediumParams,
    MotionProfile,
    boundary_position,
    boundary_velocity,
    validate,
)
from .oracle import (
    ComparisonReport,
    RetardedTimeResult,
    compare_fields,
    exact_field,
    exact_instantaneous_frequency,
    retarded_time,
)
from .signal import (
    ReceiverSeries,
    Spectrum,
    instantaneous_frequency,
    parseval_mismatch,
    sample_receiver,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingSuspected",
    "ArgumentOutOfRange",
    "BoundaryMotion",
    "CharacteristicCoords",
    "ComparisonReport",
    "ConfigError",
    "DegenerateRatio",
    "DimensionlessGroup",
    "DopplerLabError",
    "FieldSample",
    "IdentityMismatch",
    "InvalidNormalization",
    "MediumParams",
    "ModulationFactors",
    "MotionProfile",
    "NoConvergence",
    "NotYetReached",
    "ObserverInsideBoundary",
    "ProfileEvaluationError",
    "ReceiverSeries",
    "RetardedTimeResult",
    "RunConfig",
    "Spectrum",
    "SupersonicMotion",
    "TransportSolution",
    "am_factor",
    "boundary_position",
    "boundary_velocity",
    "classical_doppler",
    "compare_fields",
    "exact_field",
    "exact_instantaneous_frequency",
    "fm_factor",
    "general_excitation_field",
    "instantaneous_frequency",
    "lab_phase",
    "lab_phase_rate",
    "leading_order_field",
    "load_config",
    "moving_frame_field",
    "parse_config",
    "parseval_mismatch",
    "retarded_time",
    "sample_receiver",
    "slow_characteristic",
    "spectrum",
    "to_characteristic_coords",
    "transport_amplitude",
    "transport_solution",
    "validate",
    "wavenumber",
]
