"""JSON configuration parsing and strictness."""

import json

import pytest

from dopplerlab.config import RunConfig, load_config, parse_config
from dopplerlab.errors import ConfigError


def test_defaults():
    cfg = RunConfig()
    assert cfg.omega == 1.0 and cfg.c == 1.0
    assert cfg.phase_shift is False
    assert cfg.frame == "lab" and cfg.source == "asymptotic"


def test_full_document_roundtrip(tmp_path):
    doc = {
        "medium": {"omega": 2.0, "c": 340.0},
        "motion": {"v": 34.0, "a": -170.0, "Omega": 0.2,
                   "profile": "decelerating"},
        "receiver": {"x": 100.0},
        "window": {"t_min": 1.0, "t_max": 50.0, "samples": 500},
        "flags": {"phase_shift": "on", "frame": "lab", "source": "oracle",
                  "window": "hann"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.omega == 2.0 and cfg.c == 340.0
    assert cfg.beta == pytest.approx(0.1)
    assert cfg.delta == pytest.approx(-0.1)
    assert cfg.eps == pytest.approx(0.1)
    assert cfg.x == 100.0
    assert (cfg.t_min, cfg.t_max, cfg.samples) == (1.0, 50.0, 500)
    assert cfg.phase_shift is True
    assert cfg.source == "oracle" and cfg.window == "hann"

    motion = cfg.boundary_motion()
    assert motion.v == 34.0 and motion.a == -170.0 and motion.Omega == 0.2
    assert motion.profile.kind == "decelerating"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        parse_config({"bogus": 1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError):
        parse_config({"medium": {"omega": 1.0, "speed": 3.0}})
    with pytest.raises(ConfigError):
        parse_config({"flags": {"phase_shift": "on", "color": "red"}})
    with pytest.raises(ConfigError):
        parse_config({"motion": {"profile": "oscillatory", "horizon": 10.0}})


def test_bad_flag_values_rejected():
    with pytest.raises(ConfigError):
        parse_config({"flags": {"phase_shift": "maybe"}})
    with pytest.raises(ConfigError):
        parse_config({"flags": {"frame": "rotating"}})
    with pytest.raises(ConfigError):
        parse_config({"motion": {"profile": "warp"}})


def test_numbers_must_be_numbers():
    with pytest.raises(ConfigError):
        parse_config({"medium": {"omega": True}})
    with pytest.raises(ConfigError):
        parse_config({"receiver": {"x": "far"}})


def test_compare_eps_list():
    cfg = parse_config({"compare": {"eps_list": [0.1, 0.05]}})
    assert cfg.eps_list == [0.1, 0.05]
    assert parse_config({"compare": {"eps_list": None}}).eps_list is None
    with pytest.raises(ConfigError):
        parse_config({"compare": {"eps_list": []}})
    with pytest.raises(ConfigError):
        parse_config({"compare": {"eps_list": "0.1"}})
    with pytest.raises(ConfigError):
        parse_config({"compare": {"eps_list": [0.1, 10**400]}})


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_custom_profile_not_expressible_in_json():
    cfg = parse_config({"motion": {"profile": "oscillatory", "v": 0.0,
                                   "a": 2.0, "Omega": 0.1}})
    assert cfg.motion_profile().kind == "oscillatory"
    with pytest.raises(ConfigError):
        RunConfig(profile=None).motion_profile()
