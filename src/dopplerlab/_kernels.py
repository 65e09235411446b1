"""Names under which ``perfbench/spans.py`` traces the retarded-time solve.

``solve_retarded`` is :func:`dopplerlab.oracle._solve_retarded` itself, so
the tracer's wrapper replaces it wherever the package binds it.  Nothing in
the package imports this module; delete it once the tracer targets
``oracle._solve_retarded``.
"""

from .oracle import _solve_retarded as solve_retarded


def solve_retarded_scalar(motion, medium, x: float, t: float, tol: float):
    """:func:`solve_retarded` at one reception time, as scalars."""
    te, resid, iters = solve_retarded(motion, medium, x, [t], tol)
    return float(te[0]), float(resid[0]), int(iters[0])
