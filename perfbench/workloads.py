"""The benchmark's workloads: operations built from a seed.

The seed jitters receiver positions and window starts inside the region
where every input is valid, and shuffles the order of the operations in
each pass.  It never changes sample counts, so the work per pass is fixed
by the workload alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Why each workload exists: the layers it stresses and which changes it
#: should be blind to.
WORKLOADS: Dict[str, str] = {
    "paper-figures": "figures 1-4 and README examples: SVG and CSV writing do the "
                     "work, the solver almost none",
    "oracle-sweep": "compare sweeps over four eps at 200001 samples: retarded-time "
                    "solve and asymptotics only, a 4-row CSV",
    "receiver-series": "20k-50k sample fields and spectra written to disk, plus a "
                       "long oracle window that fails today",
    "custom-profile": "Python API with custom profiles: one scalar solve per sample "
                      "and per-point profile evaluation",
}

#: Spectrum windows span whole periods of both the carrier (2*pi/omega) and
#: the oscillatory motion (2*pi/Omega, Omega = 0.1), so the sideband comb
#: falls exactly on DFT bins and peak picking sees no leakage.
COMB_PERIOD = 20.0 * math.pi

#: The long window reaches t ~ 8490 > 8192/omega, where one float step in
#: t exceeds the solver tolerance, so the solve stalls (exit 3) today.
LONG_WINDOW_PERIODS = 135


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``argv`` is a CLI command line (without ``--out``); API operations set
    ``api`` and carry their call in ``params``.  ``params`` also holds the
    physics the output checks recompute independently.
    """

    name: str
    argv: Tuple[str, ...]
    samples: int
    check: str
    params: dict = field(default_factory=dict)
    api: bool = False


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _motion_args(profile: str, delta: float, eps) -> List[str]:
    return ["--profile", profile, "--beta", "0", "--delta", repr(delta), "--eps", str(eps)]


def _paper_figures(rng: random.Random) -> List[Op]:
    ops = [Op(f"figure-{i}", ("figure", str(i)), samples, "figure", {"id": i})
           for i, samples in ((1, 601 * 6), (2, 2 * 1201 * 3), (3, 601 * 6), (4, 2 * 1201 * 3))]
    t_min = _num(rng, 0.0, 10.0)
    ops.append(Op("fm-readme", tuple(
        ["fm"] + _motion_args("decelerating", -0.2, 0.1)
        + ["--t-min", repr(t_min), "--t-max", repr(t_min + 300.0), "--samples", "601"]),
        601, "fm", dict(profile="decelerating", delta=-0.2, eps=0.1,
                        t_min=t_min, t_max=t_min + 300.0, n=601)))
    x_slow = _num(rng, 0.08, 0.12)
    ops.append(Op("compare-readme", tuple(
        ["compare"] + _motion_args("decelerating", -0.2, "0.1,0.05,0.025")
        + ["--x", repr(x_slow), "--samples", "2001", "--phase-shift", "on"]),
        3 * 2001, "compare", dict(eps_list=[0.1, 0.05, 0.025])))
    x = _num(rng, 9.0, 11.0)
    t_min = round(x + _num(rng, 0.0, 1.0), 4)
    ops.append(Op("am", tuple(
        ["am"] + _motion_args("oscillatory", 0.2, 0.1)
        + ["--x", repr(x), "--t-min", repr(t_min), "--t-max", repr(t_min + 60.0),
           "--samples", "1201"]),
        1201, "am", dict(profile="oscillatory", delta=0.2, eps=0.1, x=x,
                         t_min=t_min, t_max=t_min + 60.0, n=1201)))
    ops.append(Op("appendix-check", tuple(
        ["appendix-check"] + _motion_args("decelerating", -0.2, 0.1)),
        100 * 100, "appendix"))
    return ops


def _oracle_sweep(rng: random.Random) -> List[Op]:
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    ops = []
    # The oscillatory boundary reaches delta/eps ahead of the origin, so its
    # slow receiver coordinate must exceed delta = 0.2.
    for profile, delta, lo, hi in (("decelerating", -0.2, 0.08, 0.12),
                                   ("oscillatory", 0.2, 0.25, 0.30)):
        x_slow = _num(rng, lo, hi)
        ops.append(Op(f"compare-{profile}", tuple(
            ["compare"] + _motion_args(profile, delta, ",".join(map(str, eps_list)))
            + ["--x", repr(x_slow), "--samples", "200001", "--phase-shift", "on"]),
            len(eps_list) * 200001, "compare", dict(eps_list=eps_list)))
    return ops


def _receiver_series(rng: random.Random) -> List[Op]:
    ops = []
    for name, profile, delta, source, frame in (
            ("field-lab-oracle", "oscillatory", 0.2, "oracle", "lab"),
            ("field-lab-asymptotic", "decelerating", -0.2, "asymptotic", "lab"),
            ("field-moving", "oscillatory", 0.2, "asymptotic", "moving")):
        if frame == "moving":
            x = _num(rng, 0.5, 2.0)        # offset ahead of the boundary
            t_min = _num(rng, 0.0, 1.0)
        else:
            x = _num(rng, 4.0, 6.0)
            t_min = round(x + _num(rng, 0.0, 1.0), 4)
        t_max = t_min + 3000.0
        ops.append(Op(name, tuple(
            ["field"] + _motion_args(profile, delta, 0.1)
            + ["--x", repr(x), "--t-min", repr(t_min), "--t-max", repr(t_max),
               "--samples", "20000", "--source", source, "--frame", frame]),
            20000, f"field-{frame}-{source}",
            dict(profile=profile, delta=delta, eps=0.1, x=x, t_min=t_min, t_max=t_max,
                 n=20000)))
    for name, profile, delta, periods, n in (
            ("spectrum-oscillatory", "oscillatory", 0.2, 120, 50000),
            ("spectrum-decelerating", "decelerating", -0.2, 120, 50000),
            ("spectrum-long-window", "oscillatory", 0.2, LONG_WINDOW_PERIODS, 40000)):
        x = _num(rng, 4.0, 6.0)
        t_min = round(x + _num(rng, 0.0, 1.0), 4)
        t_max = t_min + COMB_PERIOD * periods
        ops.append(Op(name, tuple(
            ["spectrum"] + _motion_args(profile, delta, 0.1)
            + ["--x", repr(x), "--t-min", repr(t_min), "--t-max", repr(t_max),
               "--samples", str(n), "--source", "oracle"]),
            n, "spectrum",
            dict(profile=profile, delta=delta, eps=0.1, x=x, t_min=t_min, t_max=t_max,
                 n=n, comb=profile == "oscillatory")))
    return ops


def _custom_profile(rng: random.Random) -> List[Op]:
    ops = []
    for shape, profile, delta in (("sine", "oscillatory", 0.2),
                                  ("exp", "decelerating", -0.2)):
        # t stays below ~1007, so Omega*t < 101 sits inside the horizon of 200.
        for call, source, n in (("sample", "oracle", 2000), ("sample", "asymptotic", 2000),
                                ("compare", None, 500)):
            x = _num(rng, 4.0, 6.0)
            t0 = round(x + _num(rng, 0.0, 1.0), 4)
            params = dict(shape=shape, profile=profile, delta=delta, eps=0.1, x=x,
                          t0=t0, call=call, n=n)
            if call == "sample":
                params.update(source=source, dt=0.5)
                name, check = f"{source}-{shape}", f"api-{source}"
            else:
                params.update(t1=t0 + 500.0)
                name, check = f"compare-{shape}", "api-compare"
            ops.append(Op(name, ("api", name), n, check, params, api=True))
    return ops


_OPS_BY_WORKLOAD = {
    "paper-figures": _paper_figures,
    "oracle-sweep": _oracle_sweep,
    "receiver-series": _receiver_series,
    "custom-profile": _custom_profile,
}


def build(workload: str, seed: int) -> List[Op]:
    """The operations of ``workload`` with inputs drawn from ``seed``."""
    return _OPS_BY_WORKLOAD[workload](random.Random(seed))
