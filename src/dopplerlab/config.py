"""Run configuration: strict JSON schema plus CLI flag overrides.

The JSON document groups dimensional inputs the way experiments are
described (medium constants, trajectory numbers, receiver placement);
internally everything is reduced to the dimensionless group
``(beta, delta, eps)`` plus the medium scales, which is what every
computation consumes.  :data:`SCHEMA` is the one statement of which keys
each section takes and which values each key accepts; the CLI takes its
flag choices from it.  Unknown keys anywhere in the document are errors:
a config that silently ignores a typo is worse than one that refuses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import List, Optional

from .errors import ConfigError
from .motion import PROFILES, BoundaryMotion, MediumParams, MotionProfile
from .signal import SOURCES, WINDOWS

FRAMES = ("lab", "moving")
ON_OFF = ("on", "off")
#: Spectral window choice -> the name :func:`dopplerlab.signal.spectrum` takes.
SPECTRUM_WINDOWS = dict(zip(("rect", "hann"), WINDOWS))

#: Section -> key -> accepted values: ``float`` (any JSON number), ``int``,
#: ``list`` (a non-empty list of numbers) or a tuple of choices.  Every key
#: but ``motion``'s ``v``, ``a`` and ``Omega`` is a :class:`RunConfig` field.
SCHEMA = {
    "medium": {"omega": float, "c": float},
    "motion": {"v": float, "a": float, "Omega": float, "profile": PROFILES},
    "receiver": {"x": float},
    "window": {"t_min": float, "t_max": float, "samples": int},
    "flags": {"phase_shift": ON_OFF, "frame": FRAMES, "source": SOURCES,
              "window": tuple(SPECTRUM_WINDOWS)},
    "compare": {"eps_list": list},
}


@dataclass(frozen=True)
class RunConfig:
    """Flattened, validated run parameters."""

    omega: float = 1.0
    c: float = 1.0
    profile: Optional[str] = None
    beta: float = 0.0
    delta: float = 0.0
    eps: float = 0.1
    x: Optional[float] = None
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    samples: int = 1001
    phase_shift: bool = False
    frame: str = "lab"
    source: str = "asymptotic"
    window: str = "rect"
    eps_list: Optional[List[float]] = None

    # -- builders -----------------------------------------------------------

    def medium(self) -> MediumParams:
        return MediumParams(omega=self.omega, c=self.c)

    def motion_profile(self) -> MotionProfile:
        if self.profile is None:
            raise ConfigError("no motion profile given (set --profile or motion.profile)")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; choose from {PROFILES}")
        return getattr(MotionProfile, self.profile)()

    def boundary_motion(self) -> BoundaryMotion:
        """Reconstruct trajectory numbers from the dimensionless group."""
        profile = self.motion_profile()
        Omega = self.eps * self.omega
        if Omega <= 0.0:
            raise ConfigError(f"eps*omega must be positive, got {Omega}")
        a = self.delta * self.c / Omega
        return BoundaryMotion(v=self.beta * self.c, a=a, Omega=Omega, profile=profile)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


#: How each :data:`SCHEMA` kind other than a choice tuple is tested, named
#: and converted.  A null ``list`` leaves its field unset.
_KINDS = {
    float: (_is_number, "a number", float),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    list: (lambda v: v is None or (isinstance(v, list) and v and all(map(_is_number, v))),
           "a non-empty number list", lambda v: v and [float(e) for e in v]),
}


def _table(obj, where: str, schema: dict) -> dict:
    """``obj`` itself once it is an object whose keys all appear in ``schema``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(schema)}")
    return obj


def _value(where: str, val, kind):
    """``val`` checked against its :data:`SCHEMA` kind, as a Python value."""
    if isinstance(kind, tuple):
        ok, expected, convert = val in kind, f"one of {kind}", None
    else:
        test, expected, convert = _KINDS[kind]
        ok = test(val)
    if not ok:
        raise ConfigError(f"{where} must be {expected}, got {val!r}")
    try:
        return convert(val) if convert else val
    except OverflowError as exc:  # an integer literal beyond float range
        raise ConfigError(f"{where} must be a finite number: {exc}") from exc


def override(cfg: RunConfig, values: dict) -> RunConfig:
    """``cfg`` with ``values``, keyed by field and spelled as in JSON or a flag."""
    if "phase_shift" in values:
        values = dict(values, phase_shift=values["phase_shift"] == "on")
    return replace(cfg, **values)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file into a :class:`RunConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document against :data:`SCHEMA`."""
    given = {key: _value(f"{section}.{key}", val, SCHEMA[section][key])
             for section, table in _table(doc, "top level", SCHEMA).items()
             for key, val in _table(table, section, SCHEMA[section]).items()}
    v, a, Omega = (given.pop(key, None) for key in ("v", "a", "Omega"))
    cfg = override(RunConfig(), given)
    if "motion" in doc:
        if Omega is None:
            Omega = cfg.eps * cfg.omega
        if Omega <= 0.0:
            raise ConfigError(f"motion.Omega must be positive, got {Omega}")
        cfg = replace(cfg, beta=(v or 0.0) / cfg.c, delta=(a or 0.0) * Omega / cfg.c,
                      eps=Omega / cfg.omega)
    return cfg
