"""Python-API operations of the ``custom-profile`` workload.

The same code runs in-process (warm) and as a fresh interpreter (cold)::

    python -m perfbench.api_ops '<params json>' <output dir>

Calls go through module attributes (``signal.sample_receiver``, not a
name imported here) so that the traced run's wrappers see them.  Outputs
are ``values.npy`` for receiver samples and ``report.json`` for
comparisons.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from dopplerlab import errors, motion, oracle, signal

#: Declared validation horizon of the custom profiles, in units of Omega*t.
HORIZON = 200.0

SHAPES = {
    "sine": (math.sin, math.cos, lambda u: -math.sin(u)),
    "exp": (lambda u: 1.0 - math.exp(-u), lambda u: math.exp(-u),
            lambda u: -math.exp(-u)),
}


def run(params: dict, out_dir: str) -> None:
    """Build the custom profile, run the call, write its output."""
    profile = motion.MotionProfile.custom(*SHAPES[params["shape"]], HORIZON)
    eps = params["eps"]
    boundary = motion.BoundaryMotion(v=0.0, a=params["delta"] / eps, Omega=eps,
                                     profile=profile)
    medium = motion.MediumParams(omega=1.0, c=1.0)
    if params["call"] == "sample":
        series = signal.sample_receiver(params["source"], boundary, medium, params["x"],
                                        params["t0"], params["dt"], params["n"])
        np.save(os.path.join(out_dir, "values.npy"), series.values)
    else:
        report = oracle.compare_fields(boundary, medium, params["x"],
                                       (params["t0"], params["t1"]), params["n"],
                                       include_phase_shift=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump({"max_modulus_error": report.max_modulus_error,
                       "max_phase_error": report.max_phase_error,
                       "max_freq_rel_error": report.max_freq_rel_error}, fh)


def main(argv) -> int:
    try:
        run(json.loads(argv[0]), argv[1])
    except errors.DopplerLabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
