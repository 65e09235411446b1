"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Every test computes its criterion at the stated tolerance, prints a
``CRITERION n: PASS|FAIL`` line straight to the terminal (bypassing
pytest's capture so the verdict is always visible), and then asserts.
Criterion 7's phase-convergence half is a known red: at a fixed slow
receiver coordinate the asymptotic phase error grows like 1/eps instead
of shrinking, so the test fails honestly rather than hiding it.  The
README covers the analysis.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_motion
from dopplerlab.asymptotics import (
    am_dimensionless,
    am_factor,
    fm_factor,
    leading_order_field,
    wavenumber,
)
from dopplerlab.characteristics import transport_amplitude
from dopplerlab.cli import main as cli_main
from dopplerlab.motion import boundary_position
from dopplerlab.oracle import (
    compare_fields,
    exact_field,
    exact_instantaneous_frequency,
    retarded_time,
)
from dopplerlab.signal import sample_receiver, spectrum

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def report(capfd):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
    return _report


def test_criterion_1_decelerating_limits(report, medium):
    motion = make_motion("decelerating", 0.0, -0.2, 0.1)
    t_late = 30.0 / motion.Omega
    checks = {
        "fm(0)": abs(fm_factor(motion, medium, 0.0) - 1.0 / 1.2) < 1e-12,
        "fm(late)": abs(fm_factor(motion, medium, t_late) - 1.0) < 1e-6,
    }
    for x in (0.1, 10.0):
        want = math.exp(-0.1 * (1.0 - math.exp(-0.1 * x)))
        checks[f"am(x={x},0)"] = abs(am_factor(motion, medium, x, 0.0) - want) < 1e-12
        checks[f"am(x={x},late)"] = abs(am_factor(motion, medium, x, t_late) - 1.0) < 1e-6
    ok = all(checks.values())
    report(1, ok, "decelerating modulation limits at t=0 and slow time 30")
    assert ok, checks


def test_criterion_2_classical_reduction(report, medium, rng):
    worst = 0.0
    for beta in (-0.5, 0.0, 0.5):
        motion = make_motion("constant", beta, 0.0, 0.1)
        ts = rng.uniform(1.0, 50.0, 1000)
        u = rng.uniform(0.05, 0.95, ts.size)
        xs = beta * ts + u * (1.0 - beta) * ts  # strictly between boundary and cone
        ref = np.exp(1j * (ts - xs) / (1.0 - beta))
        asym = np.array([leading_order_field(motion, medium, x, t).value
                         for x, t in zip(xs, ts)])
        exact = np.array([exact_field(motion, medium, x, t)
                          for x, t in zip(xs, ts)])
        worst = max(worst,
                    float(np.max(np.abs(asym - exact))),
                    float(np.max(np.abs(asym - ref))),
                    float(np.max(np.abs(exact - ref))))
    ok = worst < 1e-12
    report(2, ok, f"constant-velocity fields pairwise equal, worst gap {worst:.2e}")
    assert ok


def test_criterion_3_dispersion_relation(report, rng):
    b = rng.uniform(-0.9, 0.9, 1000)
    k = wavenumber(b)
    resid = float(np.max(np.abs((1.0 - b**2) * k**2 - 2.0 * b * k - 1.0)))
    exact_half = wavenumber(0.5) == 2.0
    ok = resid < 1e-12 and exact_half
    report(3, ok, f"quadratic residual {resid:.2e} over 1000 draws; k(0.5)==2 {exact_half}")
    assert ok


def _columns(path: Path):
    header = path.open().readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, data


def test_criterion_4_figure_regression(report, tmp_path):
    out = tmp_path / "figs"
    for fig in ("1", "2", "3", "4"):
        assert cli_main(["figure", fig, "--out", str(out)]) == 0
    names = sorted(p.name for p in GOLDEN.glob("*.csv"))
    byte_ok = bool(names) and all(
        (out / n).read_bytes() == (GOLDEN / n).read_bytes() for n in names)

    hdr3, fig3 = _columns(out / "fig3.csv")
    wt = fig3[:, 0]
    fm = fig3[:, hdr3.index("fm(0.2)")]
    spot_ok = (1.25 - 1e-3 < np.max(fm) <= 1.25 + 1e-12
               and 1.0 / 1.2 - 1e-12 <= np.min(fm) < 1.0 / 1.2 + 1e-3)
    peaks = [i for i in range(1, len(fm) - 1)
             if fm[i] >= fm[i - 1] and fm[i] >= fm[i + 1] and fm[i] > 1.2]
    step = wt[1] - wt[0]
    period_ok = bool(np.all(np.abs(np.diff(wt[peaks]) - 2 * math.pi / 0.1)
                            <= step + 1e-12))

    hdr1, fig1 = _columns(out / "fig1.csv")
    mono_ok = True
    for j in range(1, fig1.shape[1]):
        col = fig1[:, j]
        mono_ok &= bool(np.all(np.diff(col) >= -1e-15))
        mono_ok &= abs(col[-1] - 1.0) < 1e-6

    ok = byte_ok and spot_ok and period_ok and mono_ok
    report(4, ok, f"golden CSVs byte-identical={byte_ok}, oscillatory extrema/"
                  f"period={spot_ok and period_ok}, decelerating monotone={mono_ok}")
    assert ok, (byte_ok, spot_ok, period_ok, mono_ok)


def test_criterion_5_transport_identity(report, medium):
    worst = 0.0
    for name, delta in (("decelerating", -0.2), ("oscillatory", 0.2)):
        motion = make_motion(name, 0.0, delta, 0.1)
        eta1, tau1 = np.meshgrid(np.linspace(0.0, 2.0, 100),
                                 np.linspace(0.0, 2.0, 100), indexing="ij")
        amp = transport_amplitude(eta1, tau1, motion, medium)
        t = tau1 / motion.Omega
        x = boundary_position(motion, t) + eta1 * medium.c / motion.Omega
        am = am_dimensionless(motion.profile, 0.0, delta, 0.1,
                              medium.omega * x / medium.c, medium.omega * t)
        worst = max(worst, float(np.max(np.abs(amp - am))))
    ok = worst < 1e-10
    report(5, ok, f"outgoing transport equals the AM factor, worst gap {worst:.2e}")
    assert ok


def test_criterion_6_oracle_self_consistency(report, medium, rng):
    motion = make_motion("oscillatory", 0.0, 0.2, 0.1)

    ts = rng.uniform(1.0, 100.0, 10_000)
    u = rng.uniform(0.02, 0.98, ts.size)
    xb = boundary_position(motion, ts)
    xs = xb + u * (medium.c * ts - xb)
    results = [retarded_time(motion, medium, x, t) for x, t in zip(xs, ts)]
    worst_resid = max(r.residual for r in results)
    resid_ok = worst_resid < 1e-12 / medium.omega

    grid = np.linspace(6.0, 106.0, 400)
    te = [retarded_time(motion, medium, 5.0, t).t_e for t in grid]
    increasing_ok = bool(np.all(np.diff(te) > 0.0))

    sample = rng.choice(ts.size, 500, replace=False)
    mods = [abs(exact_field(motion, medium, xs[i], ts[i])) for i in sample]
    modulus_ok = max(abs(m - 1.0) for m in mods) < 1e-12

    worst_freq = 0.0
    for t in np.linspace(1.0, 63.0, 200):
        got = exact_instantaneous_frequency(
            motion, medium, boundary_position(motion, t), t)
        worst_freq = max(worst_freq,
                         abs(got - medium.omega * fm_factor(motion, medium, t)))
    freq_ok = worst_freq < 1e-10

    ok = resid_ok and increasing_ok and modulus_ok and freq_ok
    report(6, ok, f"residuals<1e-12 ({worst_resid:.2e}), emission time increasing="
                  f"{increasing_ok}, unit modulus={modulus_ok}, boundary frequency "
                  f"gap {worst_freq:.2e}")
    assert ok, (resid_ok, increasing_ok, modulus_ok, freq_ok)


def test_criterion_7_eps_convergence(report, medium):
    phase_errs = []
    freq_ok = True
    for eps in (0.1, 0.05, 0.025):
        motion = make_motion("decelerating", 0.0, -0.2, eps)
        x = 0.1 * medium.c / (eps * medium.omega)  # fixed slow coordinate 0.1
        window = (x / medium.c, x / medium.c + 20 * 2 * math.pi / medium.omega)
        rep = compare_fields(motion, medium, x, window, 2001,
                             include_phase_shift=True)
        phase_errs.append(rep.max_phase_error)
        freq_ok &= rep.max_freq_rel_error <= 5.0 * eps
    ratios = [phase_errs[i] / phase_errs[i + 1] for i in range(2)]
    phase_ok = all(1.5 <= r <= 3.0 for r in ratios)
    ok = phase_ok and freq_ok
    report(7, ok, f"phase-error decrease factors {ratios[0]:.3f}, {ratios[1]:.3f} "
                  f"(required within [1.5, 3]); freq rel err <= 5*eps "
                  f"{'held' if freq_ok else 'violated'}")
    assert ok, (ratios, phase_errs, freq_ok)


def test_criterion_8_spectral_sidebands(report, medium):
    motion = make_motion("oscillatory", 0.0, 0.2, 0.1)
    n = 2048
    dt = 5 * (2 * math.pi / motion.Omega) / n
    series = sample_receiver("oracle", motion, medium, 5.0, 5.0 / medium.c, dt, n)
    spec = spectrum(series)

    comb = sorted(f for f, _ in spec.peaks
                  if abs(f - medium.omega) < 6 * motion.Omega)
    spacing = np.diff(comb)
    spacing_ok = (len(comb) >= 3
                  and bool(np.all(np.abs(spacing - motion.Omega) <= spec.bin_width)))

    by_freq = dict(spec.peaks)
    asymmetry_ok = False
    for k in (1, 2, 3):
        lo = [m for f, m in by_freq.items()
              if abs(f - (medium.omega - k * motion.Omega)) <= spec.bin_width / 2]
        hi = [m for f, m in by_freq.items()
              if abs(f - (medium.omega + k * motion.Omega)) <= spec.bin_width / 2]
        if lo and hi and abs(lo[0] - hi[0]) > 1e-6 * max(lo[0], hi[0]):
            asymmetry_ok = True
            break

    ok = spacing_ok and asymmetry_ok
    report(8, ok, f"{len(comb)} comb peaks spaced by the modulation rate within "
                  f"one bin={spacing_ok}, mirror-pair asymmetry={asymmetry_ok}")
    assert ok, (comb, spacing_ok, asymmetry_ok)


def test_criterion_9_validation_gate(report, tmp_path):
    cases_ok = []
    for i, (beta, delta) in enumerate([(0.5, 0.6), (0.2, 0.8), (0.0, 1.0)]):
        out = tmp_path / f"case{i}"
        code = cli_main(["fm", "--profile", "oscillatory", "--beta", str(beta),
                         "--delta", str(delta), "--eps", "0.1",
                         "--t-min", "0", "--t-max", "10", "--samples", "11",
                         "--out", str(out)])
        cases_ok.append(code == 2 and not out.exists())
    ok = all(cases_ok)
    report(9, ok, "supersonic configs exit with code 2 and write nothing")
    assert ok, cases_ok
