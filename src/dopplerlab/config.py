"""Run configuration: strict JSON schema plus CLI flag overrides.

The JSON document groups dimensional inputs the way experiments are
described (medium constants, trajectory numbers, receiver placement);
internally everything is reduced to the dimensionless group
``(beta, delta, eps)`` plus the medium scales, which is what every
computation consumes.  Unknown keys anywhere in the document are errors:
a config that silently ignores a typo is worse than one that refuses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import List, Optional

from .errors import ConfigError
from .motion import BoundaryMotion, MediumParams, MotionProfile

PROFILES = ("constant", "decelerating", "oscillatory")
FRAMES = ("lab", "moving")
SOURCES = ("asymptotic", "oracle")
SPECTRUM_WINDOWS = ("rect", "hann")


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


def _expect_table(obj, name):
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return obj


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _number(obj: dict, key: str, where: str, required=False, default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {val!r}")
    return float(val)


def _integer(obj: dict, key: str, where: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    return int(val)


def _choice(obj: dict, key: str, where: str, choices, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if val not in choices:
        raise ConfigError(f"{where}.{key} must be one of {choices}, got {val!r}")
    return val


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file into a :class:`RunConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document against the strict schema."""
    doc = _expect_table(doc, "top level")
    _check_keys(doc, {"medium", "motion", "receiver", "window", "flags", "compare"},
                "top level")

    cfg = RunConfig()

    if "medium" in doc:
        med = _expect_table(doc["medium"], "medium")
        _check_keys(med, {"omega", "c"}, "medium")
        cfg = replace(cfg,
                      omega=_number(med, "omega", "medium", default=cfg.omega),
                      c=_number(med, "c", "medium", default=cfg.c))

    if "motion" in doc:
        mot = _expect_table(doc["motion"], "motion")
        _check_keys(mot, {"v", "a", "Omega", "profile"}, "motion")
        profile = _choice(mot, "profile", "motion", PROFILES)
        if "profile" in mot and profile is None:
            raise ConfigError(f"motion.profile must be one of {PROFILES}")
        v = _number(mot, "v", "motion", default=0.0)
        a = _number(mot, "a", "motion", default=0.0)
        Omega = _number(mot, "Omega", "motion", default=cfg.eps * cfg.omega)
        if Omega <= 0.0:
            raise ConfigError(f"motion.Omega must be positive, got {Omega}")
        cfg = replace(cfg,
                      profile=profile,
                      beta=v / cfg.c,
                      delta=a * Omega / cfg.c,
                      eps=Omega / cfg.omega)

    if "receiver" in doc:
        rec = _expect_table(doc["receiver"], "receiver")
        _check_keys(rec, {"x"}, "receiver")
        cfg = replace(cfg, x=_number(rec, "x", "receiver"))

    if "window" in doc:
        win = _expect_table(doc["window"], "window")
        _check_keys(win, {"t_min", "t_max", "samples"}, "window")
        cfg = replace(cfg,
                      t_min=_number(win, "t_min", "window"),
                      t_max=_number(win, "t_max", "window"),
                      samples=_integer(win, "samples", "window", default=cfg.samples))

    if "flags" in doc:
        flags = _expect_table(doc["flags"], "flags")
        _check_keys(flags, {"phase_shift", "frame", "source", "window"}, "flags")
        shift = _choice(flags, "phase_shift", "flags", ("on", "off"))
        cfg = replace(
            cfg,
            phase_shift=(shift == "on") if shift is not None else cfg.phase_shift,
            frame=_choice(flags, "frame", "flags", FRAMES, default=cfg.frame),
            source=_choice(flags, "source", "flags", SOURCES, default=cfg.source),
            window=_choice(flags, "window", "flags", SPECTRUM_WINDOWS,
                           default=cfg.window))

    if "compare" in doc:
        cmp_ = _expect_table(doc["compare"], "compare")
        _check_keys(cmp_, {"eps_list"}, "compare")
        eps_list = cmp_.get("eps_list")
        if eps_list is not None:
            if (not isinstance(eps_list, list) or not eps_list
                    or any(isinstance(e, bool) or not isinstance(e, (int, float))
                           for e in eps_list)):
                raise ConfigError("compare.eps_list must be a non-empty number list")
            cfg = replace(cfg, eps_list=[float(e) for e in eps_list])

    return cfg
