"""Shared fixtures and builders for the test suite."""

import argparse

import numpy as np
import pytest

from dopplerlab.cli import build_parser
from dopplerlab.motion import BoundaryMotion, MediumParams, MotionProfile


def make_motion(profile: str, beta: float, delta: float, eps: float,
                omega: float = 1.0, c: float = 1.0, **kwargs) -> BoundaryMotion:
    """Build a BoundaryMotion from the dimensionless triple (beta, delta, eps)."""
    if isinstance(profile, MotionProfile):
        prof = profile
    else:
        prof = getattr(MotionProfile, profile)(**kwargs)
    big_omega = eps * omega
    a = delta * c / big_omega
    return BoundaryMotion(v=beta * c, a=a, Omega=big_omega, profile=prof)


def cli_subparsers() -> dict:
    """Command name -> its subparser, as :func:`dopplerlab.cli.build_parser` builds it."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture
def medium() -> MediumParams:
    return MediumParams(omega=1.0, c=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    """Isolated CLI output directory wired through the environment."""
    target = tmp_path / "out"
    monkeypatch.setenv("DOPPLER_LAB_OUT", str(target))
    return target
