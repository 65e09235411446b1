"""Command-line interface: exit codes, outputs, determinism."""

import dataclasses
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest

import dopplerlab.cli as cli_mod
from dopplerlab.asymptotics import moving_frame_field
from dopplerlab.cli import main
from dopplerlab.config import SCHEMA, RunConfig
from dopplerlab.motion import MediumParams

from conftest import cli_subparsers, make_motion


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

    @pytest.mark.parametrize("command", [["am"], ["field", "--frame", "moving"]])
    def test_tiny_times_at_high_delta(self, out_dir, command):
        # Emission labels round to about -1e-16 at these times.
        assert run(command + ["--profile", "decelerating", "--beta", "0", "--delta", "0.6",
                              "--eps", "0.1", "--x", "10", "--t-min", "0", "--t-max", "1e-14",
                              "--samples", "1001"]) == 0
        name = "am" if command == ["am"] else "field"
        assert len(read_csv(out_dir / f"{name}.csv")) == 1001

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
        ("receiver", "x", 10**400),  # an integer literal no float can hold
    ])
    def test_non_finite_json_rejected(self, tmp_path, capsys, section, key, value):
        doc = {"motion": {"profile": "oscillatory", "v": 0.0, "a": 2.0, "Omega": 0.1},
               "receiver": {"x": 5.0}, "window": {"t_min": 5.0, "t_max": 30.0}}
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # writes NaN / Infinity / long integer literals
        out = tmp_path / "never"
        assert run(["field", "--config", str(path), "--out", str(out)]) == 2
        assert "error: BAD_CONFIG:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["field", "--source", "oracle", "--x", "5"],
                                         ["field", "--source", "asymptotic", "--x", "5"],
                                         ["field", "--frame", "moving", "--x", "5"], ["fm"]],
                             ids=["oracle", "asymptotic", "moving", "fm"])
    def test_time_past_phase_resolution_rejected(self, tmp_path, capsys, command):
        # One ulp of t near 1e17 is 16: the boundary's phase shift rounds away.
        out = tmp_path / "never"
        code = run([*command, "--profile", "oscillatory",
                    "--delta", "0.2", "--eps", "0.1",
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


class TestEpsWarning:
    @pytest.mark.parametrize("command", [["fm"], ["am", "--x", "1"], ["field", "--x", "1"],
                                         ["field", "--frame", "moving", "--x", "1"],
                                         ["spectrum", "--x", "1"]],
                             ids=["fm", "am", "field-lab", "field-moving", "spectrum"])
    def test_printed_once(self, out_dir, command):
        with warnings.catch_warnings(record=True) as caught:
            # The filter a plain command line runs with: one print per location.
            warnings.simplefilter("default")
            assert run([*command, "--profile", "oscillatory", "--beta", "0",
                        "--delta", "0.1", "--eps", "0.5",
                        "--t-min", "1", "--t-max", "20"]) == 0
        assert [str(w.message) for w in caught] == [
            "eps=0.5 > 0.3: leading-order accuracy degrades"]


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

    def test_eps_flag_overrides_config_list(self, out_dir, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"compare": {"eps_list": [0.1, 0.05]}}))
        assert run(["compare", "--config", str(path), "--profile", "decelerating",
                    "--delta", "-0.2", "--eps", "0.025", "--x", "0.1",
                    "--samples", "101"]) == 0
        assert list(np.atleast_1d(read_csv(out_dir / "compare.csv")["eps"])) == [0.025]

    @pytest.mark.parametrize("window, message", [
        (["--t-max", "30"], "t_min is required for this command (set --t-min or config)"),
        (["--t-min", "30"], "t_max is required for this command (set --t-max or config)"),
        (["--t-min", "30", "--t-max", "20"], "need t_max > t_min, got [30.0, 20.0]"),
        (["--samples", "1"], "need samples >= 2, got 1"),
    ], ids=["lone-t-max", "lone-t-min", "empty", "one-sample"])
    def test_bad_window_is_bad_config(self, tmp_path, capsys, window, message):
        out = tmp_path / "never"
        code = run(["compare", "--profile", "decelerating", "--delta", "-0.2",
                    "--eps", "0.1", "--x", "0.1", *window, "--out", str(out)])
        assert code == 2
        assert f"error: BAD_CONFIG: {message}" in capsys.readouterr().err
        assert not out.exists()


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


FIELDS = {f.name for f in dataclasses.fields(RunConfig)}

#: Run parameters no flag sets: only a config file does.
CONFIG_ONLY = {"omega", "c"}

_FM = {"--config", "--profile", "--beta", "--delta", "--eps",
       "--t-min", "--t-max", "--samples", "--out"}

#: Every option each command takes: 64 in all.
COMMAND_FLAGS = {
    "fm": _FM,
    "am": _FM | {"--x"},
    "field": _FM | {"--x", "--phase-shift", "--frame", "--source"},
    "compare": _FM | {"--x", "--phase-shift"},
    "spectrum": _FM | {"--x", "--phase-shift", "--source", "--window"},
    "appendix-check": {"--config", "--profile", "--beta", "--delta", "--eps", "--out"},
    "figure": {"id", "--out"},
}

_MOTION = ["--profile", "oscillatory", "--beta", "0", "--delta", "0.2", "--eps", "0.1"]

#: Command lines that succeed and, together, give every flag of each command.
RUNS = {
    "fm": [["fm", *_MOTION, "--t-min", "0", "--t-max", "10", "--samples", "11"]],
    "am": [["am", *_MOTION, "--x", "5", "--t-min", "5", "--t-max", "30", "--samples", "11"]],
    "field": [["field", *_MOTION, "--x", "5", "--t-min", "5", "--t-max", "30",
               "--samples", "11", "--phase-shift", "on", "--frame", "lab",
               "--source", "oracle"],
              ["field", *_MOTION, "--x", "1", "--t-min", "0", "--t-max", "30",
               "--samples", "11", "--frame", "moving"]],
    "compare": [["compare", *_MOTION[:-1], "0.1,0.05", "--x", "0.3", "--t-min", "7",
                 "--t-max", "30", "--samples", "11", "--phase-shift", "on"]],
    "spectrum": [["spectrum", *_MOTION, "--x", "5", "--t-min", "5", "--t-max", "319.2",
                  "--samples", "256", "--phase-shift", "on", "--source", "oracle",
                  "--window", "hann"]],
    "appendix-check": [["appendix-check", *_MOTION]],
}

#: The 22 (command, flag) pairs of a flag some other command reads and this
#: one does not: each is refused.
UNREAD = ([("fm", f) for f in ("--x", "--phase-shift", "--frame", "--source", "--window")]
          + [("am", f) for f in ("--phase-shift", "--frame", "--source", "--window")]
          + [("field", "--window")]
          + [("compare", f) for f in ("--frame", "--source", "--window")]
          + [("spectrum", "--frame")]
          + [("appendix-check", f) for f in ("--x", "--t-min", "--t-max", "--samples",
                                             "--phase-shift", "--frame", "--source",
                                             "--window")])
FLAG_VALUES = {"--x": "5", "--t-min": "5", "--t-max": "30", "--samples": "11",
               "--phase-shift": "on", "--frame": "moving", "--source": "oracle",
               "--window": "hann"}


class TestParser:
    def test_flags_follow_run_config_and_schema(self):
        kinds = {key: kind for table in SCHEMA.values() for key, kind in table.items()}
        choices = {key for key, kind in kinds.items() if isinstance(kind, tuple)}
        seen = set()
        for name, sub in cli_subparsers().items():
            actions = {a.dest: a for a in sub._actions
                       if a.dest not in ("help", "config", "out", "id")}
            assert set(actions) <= FIELDS, name
            seen |= set(actions)
            for dest, action in actions.items():
                assert action.choices is (kinds[dest] if dest in choices else None), dest
        assert choices <= seen
        assert seen | CONFIG_ONLY == FIELDS

    def test_option_slots(self):
        assert sum(len(sub._actions) - 1 for sub in cli_subparsers().values()) == 64  # no -h

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_help_lists_exactly_its_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^  ([^\s,]+)", capsys.readouterr().out, re.M))
        assert listed - {"-h"} == COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command", RUNS)
    def test_reads_exactly_the_fields_its_flags_set(self, out_dir, monkeypatch, command):
        reads = set()

        class Recording(RunConfig):
            def __getattribute__(self, name):
                # dataclasses.replace copies every field: that is not a read.
                if (name in FIELDS
                        and sys._getframe(1).f_globals.get("__name__") != "dataclasses"):
                    reads.add(name)
                return object.__getattribute__(self, name)

        real = cli_mod._build_config
        monkeypatch.setattr(cli_mod, "_build_config",
                            lambda args: Recording(**dataclasses.asdict(real(args))))
        for argv in RUNS[command]:
            assert run(argv) == 0
        sets = {a.dest for a in cli_subparsers()[command]._actions} & FIELDS
        if "eps_list" in sets:  # compare --eps sets the list and its first value
            sets.add("eps")
        assert reads - CONFIG_ONLY == sets

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[" ".join(p) for p in UNREAD])
    def test_unread_flag_refused(self, tmp_path, capsys, command, flag):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run([*RUNS[command][0], flag, FLAG_VALUES[flag], "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_flag_shows_the_command_usage(self, tmp_path, capsys):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run([*RUNS["fm"][0], "--x", "3", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dopplerlab fm ")
        assert "unrecognized arguments: --x 3" in err
        assert not out.exists()

    def test_parser_built_once(self):
        assert cli_mod.build_parser() is cli_mod.build_parser()

    def test_shared_parser_keeps_each_run_apart(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["figure", "2", "--out", str(first)]) == 0
        never = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run([*RUNS["fm"][0], "--x", "3", "--out", str(never)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: dopplerlab fm ")
        assert run(["figure", "2", "--out", str(second)]) == 0
        assert not never.exists()
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"^    (\S+)", out, re.M))
        assert listed == set(cli_mod.COMMANDS) == set(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", [c for c in RUNS if c != "compare"])
    def test_eps_list_only_for_compare(self, tmp_path, capsys, command):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run([*RUNS[command][0], "--eps", "0.1,0.05", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --eps: invalid float value: '0.1,0.05'" in capsys.readouterr().err
        assert not out.exists()


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
