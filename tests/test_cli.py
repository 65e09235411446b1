"""Command-line interface: exit codes, outputs, determinism."""

import json
import math
import os

import numpy as np
import pytest

import dopplerlab.cli as cli_mod
from dopplerlab.asymptotics import moving_frame_field
from dopplerlab.cli import main
from dopplerlab.motion import MediumParams

from conftest import make_motion


def run(args):
    return main(args)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True, deletechars="")


class TestFmAmField:
    def test_fm_values(self, out_dir):
        assert run(["fm", "--profile", "decelerating", "--beta", "0",
                    "--delta", "-0.2", "--eps", "0.1",
                    "--t-min", "0", "--t-max", "300", "--samples", "601"]) == 0
        data = read_csv(out_dir / "fm.csv")
        assert data["fm"][0] == pytest.approx(1.0 / 1.2, abs=1e-15)
        assert abs(data["fm"][-1] - 1.0) < 1e-6

    def test_am_values(self, out_dir):
        assert run(["am", "--profile", "decelerating", "--beta", "0",
                    "--delta", "-0.2", "--eps", "0.1", "--x", "10",
                    "--t-min", "0", "--t-max", "300", "--samples", "601"]) == 0
        data = read_csv(out_dir / "am.csv")
        want = math.exp(-0.1 * (1.0 - math.exp(-1.0)))
        assert data["am"][0] == pytest.approx(want, abs=1e-15)

    def test_field_oracle_unit_modulus(self, out_dir):
        assert run(["field", "--profile", "oscillatory", "--beta", "0",
                    "--delta", "0.2", "--eps", "0.1", "--x", "5",
                    "--t-min", "5", "--t-max", "65", "--samples", "301",
                    "--source", "oracle"]) == 0
        data = read_csv(out_dir / "field.csv")
        mod = np.hypot(data["re"], data["im"])
        assert np.max(np.abs(mod - 1.0)) < 1e-12

    def test_field_delta_zero_matches_reference(self, out_dir):
        assert run(["field", "--profile", "constant", "--beta", "0",
                    "--delta", "0", "--eps", "0.1", "--x", "2",
                    "--t-min", "2", "--t-max", "30", "--samples", "200"]) == 0
        data = read_csv(out_dir / "field.csv")
        assert np.max(np.abs(data["re"] - data["reference"])) < 1e-12

    def test_field_moving_frame(self, out_dir):
        motion = make_motion("oscillatory", beta=0.0, delta=0.2, eps=0.1)
        for x in (0.0, 1.5):
            assert run(["field", "--profile", "oscillatory", "--beta", "0",
                        "--delta", "0.2", "--eps", "0.1", "--x", repr(x),
                        "--t-min", "0", "--t-max", "20", "--samples", "101",
                        "--frame", "moving"]) == 0
            data = read_csv(out_dir / "field.csv")
            want = np.array([moving_frame_field(motion, MediumParams(1.0, 1.0), x, t)
                             for t in data["t"]])
            assert np.max(np.abs(data["re"] - want.real)) <= 1e-15
            assert np.max(np.abs(data["im"] - want.imag)) <= 1e-15
            if x == 0.0:
                # eta = 0 reproduces the boundary excitation e^{i tau}.
                got = data["re"] + 1j * data["im"]
                assert np.max(np.abs(got - np.exp(1j * data["t"]))) < 1e-12

    def test_missing_required_flag(self, out_dir):
        assert run(["am", "--profile", "decelerating", "--beta", "0",
                    "--delta", "-0.2", "--eps", "0.1",
                    "--t-min", "0", "--t-max", "10"]) == 2


class TestValidationGate:
    def test_supersonic_exit_2_no_files(self, tmp_path):
        out = tmp_path / "never"
        code = run(["fm", "--profile", "decelerating", "--beta", "0.5",
                    "--delta", "0.6", "--eps", "0.1",
                    "--t-min", "0", "--t-max", "10", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_supersonic_config_file(self, tmp_path):
        cfg = {"motion": {"profile": "oscillatory", "v": 0.0, "a": 11.0,
                          "Omega": 0.1}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        code = run(["fm", "--config", str(path), "--t-min", "0",
                    "--t-max", "10", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_fast_oscillation_exit_2(self, tmp_path):
        code = run(["fm", "--profile", "oscillatory", "--beta", "0",
                    "--delta", "0.2", "--eps", "1.5", "--t-min", "0",
                    "--t-max", "10", "--out", str(tmp_path / "never")])
        assert code == 2

    def test_aliasing_exit_3_no_files(self, tmp_path):
        out = tmp_path / "never"
        code = run(["spectrum", "--profile", "oscillatory", "--beta", "0",
                    "--delta", "0.2", "--eps", "0.1", "--x", "5",
                    "--t-min", "5", "--t-max", "3077", "--samples", "1024",
                    "--source", "oracle", "--out", str(out)])
        assert code == 3
        assert not (out / "spectrum.csv").exists()

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_spectrum_too_few_samples(self, tmp_path, capsys, samples):
        out = tmp_path / "never"
        code = run(["spectrum", "--profile", "oscillatory", "--beta", "0",
                    "--delta", "0.2", "--eps", "0.1", "--x", "5",
                    "--t-min", "5", "--t-max", "319.2", "--samples", samples,
                    "--source", "oracle", "--out", str(out)])
        assert code == 2
        assert f"error: BAD_CONFIG: need samples >= 2, got {samples}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["field", "--x", "nan", "--t-min", "5", "--t-max", "30"], "x"),
        (["field", "--x", "nan", "--t-min", "5", "--t-max", "30", "--source", "oracle"], "x"),
        (["field", "--x", "5", "--t-min", "5", "--t-max", "inf"], "t_max"),
        (["am", "--x", "inf", "--t-min", "5", "--t-max", "30"], "x"),
        (["fm", "--t-min", "0", "--t-max", "1e400"], "t_max"),
        (["fm", "--t-min", "0", "--t-max", "10", "--beta", "nan"], "beta"),
        (["fm", "--t-min", "0", "--t-max", "10", "--delta", "nan"], "delta"),
        (["compare", "--eps", "0.1,nan", "--x", "0.3"], "eps_list"),
    ])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, argv, field):
        # Later flags override the finite defaults given first.
        base = ["--profile", "oscillatory", "--beta", "0", "--delta", "0.2",
                "--eps", "0.1", "--samples", "11"]
        out = tmp_path / "never"
        assert run(argv[:1] + base + argv[1:] + ["--out", str(out)]) == 2
        assert f"error: BAD_CONFIG: {field} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("receiver", "x", math.nan),
        ("window", "t_max", math.inf),
        ("motion", "a", math.nan),
    ])
    def test_non_finite_json_rejected(self, tmp_path, capsys, section, key, value):
        doc = {"motion": {"profile": "oscillatory", "v": 0.0, "a": 2.0, "Omega": 0.1},
               "receiver": {"x": 5.0}, "window": {"t_min": 5.0, "t_max": 30.0}}
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        out = tmp_path / "never"
        assert run(["field", "--config", str(path), "--out", str(out)]) == 2
        assert "error: BAD_CONFIG:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["oracle", "asymptotic"])
    def test_time_past_phase_resolution_rejected(self, tmp_path, capsys, source):
        # One ulp of t near 1e17 is 16: the boundary's phase shift rounds away.
        out = tmp_path / "never"
        code = run(["field", "--source", source, "--profile", "oscillatory",
                    "--delta", "0.2", "--eps", "0.1", "--x", "5",
                    "--t-min", "1e17", "--t-max", "2e17", "--out", str(out)])
        assert code == 2
        assert "error: ARG_OUT_OF_RANGE:" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = run(["fm", "--profile", "constant", "--beta", "0",
                    "--delta", "0", "--eps", "0.1", "--t-min", "0",
                    "--t-max", "10", "--out", str(blocker)])
        assert code == 4


class TestCompare:
    def test_table_and_csv(self, out_dir, capsys):
        assert run(["compare", "--profile", "decelerating", "--beta", "0",
                    "--delta", "-0.2", "--eps", "0.1,0.05",
                    "--x", "0.1", "--samples", "1001",
                    "--phase-shift", "on"]) == 0
        data = read_csv(out_dir / "compare.csv")
        assert list(data["eps"]) == [0.1, 0.05]
        assert np.all(data["max_freq_rel_err"] <= 5.0 * data["eps"])
        stdout = capsys.readouterr().out
        assert "max_phase_err" in stdout

    def test_classical_row_vanishes(self, out_dir):
        # Receding boundary: never overtakes the receiver.
        assert run(["compare", "--profile", "constant", "--beta", "-0.2",
                    "--delta", "0", "--eps", "0.1", "--x", "0.1",
                    "--samples", "501"]) == 0
        data = read_csv(out_dir / "compare.csv")
        assert float(data["max_phase_err"]) < 1e-12
        assert float(data["max_freq_rel_err"]) < 1e-12
        assert float(data["max_modulus_err"]) < 1e-12


class TestFigures:
    def test_all_figures_written(self, out_dir):
        for fig in ("1", "2", "3", "4"):
            assert run(["figure", fig]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert {"fig1.csv", "fig1_fm.svg", "fig1_am.svg",
                "fig2_near.csv", "fig2_near.svg", "fig2_far.csv",
                "fig2_far.svg", "fig3.csv", "fig3_fm.svg", "fig3_am.svg",
                "fig4_near.csv", "fig4_near.svg", "fig4_far.csv",
                "fig4_far.svg"} <= names

    def test_waveform_bounded_by_envelope(self, out_dir):
        assert run(["figure", "2"]) == 0
        data = read_csv(out_dir / "fig2_near.csv")
        assert np.all(np.abs(data["waveform"]) <= data["envelope"] + 1e-12)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["figure", "3", "--out", str(a)]) == 0
        assert run(["figure", "3", "--out", str(b)]) == 0
        for name in ("fig3.csv", "fig3_fm.svg", "fig3_am.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_svg_is_self_contained(self, out_dir):
        assert run(["figure", "1"]) == 0
        text = (out_dir / "fig1_fm.svg").read_text()
        assert text.startswith("<svg")
        assert "http://" not in text.replace("http://www.w3.org", "")
        assert "href" not in text


class TestSpectrumCommand:
    def test_peaks_written_descending(self, out_dir):
        t_total = 5.0 * 2.0 * math.pi / 0.1
        assert run(["spectrum", "--profile", "oscillatory", "--beta", "0",
                    "--delta", "0.2", "--eps", "0.1", "--x", "5",
                    "--t-min", "5", "--t-max", str(5.0 + t_total),
                    "--samples", "2048", "--source", "oracle"]) == 0
        peaks = read_csv(out_dir / "spectrum_peaks.csv")
        mags = list(peaks["magnitude"])
        assert mags == sorted(mags, reverse=True)
        full = read_csv(out_dir / "spectrum.csv")
        assert np.all(np.diff(full["bin_center"]) > 0)

    def test_parameters_from_config_with_flag_override(self, out_dir, tmp_path):
        cfg = {"motion": {"profile": "oscillatory", "v": 0.0, "a": 2.0,
                          "Omega": 0.1},
               "receiver": {"x": 5.0},
               "window": {"t_min": 5.0, "t_max": 319.2, "samples": 512},
               "flags": {"source": "oracle"}}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(cfg))
        assert run(["spectrum", "--config", str(path), "--samples", "256"]) == 0
        data = read_csv(out_dir / "spectrum.csv")
        assert len(data["bin_center"]) == 256  # flag overrode config


class TestAppendixCheck:
    def test_builtin_profiles_pass(self, out_dir, capsys):
        for profile, delta in (("oscillatory", "0.2"), ("decelerating", "-0.2")):
            assert run(["appendix-check", "--profile", profile, "--beta", "0",
                        "--delta", delta, "--eps", "0.1"]) == 0
            assert "PASS" in capsys.readouterr().out

    def test_classical_difference_exactly_zero(self, out_dir, capsys):
        assert run(["appendix-check", "--profile", "constant", "--beta", "0.3",
                    "--delta", "0", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "max |envelope - am| = 0.000e+00" in out

    def test_failed_identity_is_typed_error(self, out_dir, capsys, monkeypatch):
        real = cli_mod.transport_amplitude
        monkeypatch.setattr(cli_mod, "transport_amplitude",
                            lambda *args: np.asarray(real(*args)) + 1e-6)
        assert run(["appendix-check", "--profile", "oscillatory", "--beta", "0",
                    "--delta", "0.2", "--eps", "0.1"]) == 3
        err = capsys.readouterr().err
        assert "error: IDENTITY_MISMATCH:" in err
        assert "1.000e-06" in err
        assert not out_dir.exists()


class TestOutputLocation:
    def test_flag_beats_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("DOPPLER_LAB_OUT", str(env_dir))
        assert run(["figure", "1", "--out", str(flag_dir)]) == 0
        assert (flag_dir / "fig1.csv").exists()
        assert not env_dir.exists()

    def test_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DOPPLER_LAB_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run(["fm", "--profile", "constant", "--beta", "0.5",
                    "--delta", "0", "--eps", "0.1",
                    "--t-min", "0", "--t-max", "10", "--samples", "11"]) == 0
        assert (tmp_path / "out" / "fm.csv").exists()

    def test_csv_uses_lf_line_endings(self, out_dir):
        assert run(["figure", "1"]) == 0
        raw = (out_dir / "fig1.csv").read_bytes()
        assert b"\r" not in raw
