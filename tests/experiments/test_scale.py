"""Unit tests: experiment scaling knobs."""

import pytest

from repro.experiments.scale import ExperimentScale, default_scale


def test_defaults():
    s = ExperimentScale()
    assert s.commit_target > s.screen_target > 0
    assert s.max_mappings > 0


def test_scaled():
    s = ExperimentScale(commit_target=8000, screen_target=1500).scaled(0.5)
    assert s.commit_target == 4000
    assert s.screen_target == 750


def test_scaled_floor():
    s = ExperimentScale().scaled(0.0001)
    assert s.commit_target >= 500
    assert s.screen_target >= 300


def test_scaled_validation():
    with pytest.raises(ValueError):
        ExperimentScale().scaled(0)


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCALE", "2")
    s = default_scale()
    assert s.commit_target == ExperimentScale().commit_target * 2
    monkeypatch.setenv("REPRO_MAX_MAPPINGS", "5")
    assert default_scale().max_mappings == 5


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e308", "0", "-2",
                                 "abc"])
def test_env_scale_rejects_unusable_values(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SIM_SCALE", raw)
    with pytest.raises(ValueError, match="REPRO_SIM_SCALE"):
        default_scale()


@pytest.mark.parametrize("raw", ["0", "-1", "2.5", "abc"])
def test_env_max_mappings_rejects_unusable_values(monkeypatch, raw):
    monkeypatch.delenv("REPRO_SIM_SCALE", raising=False)
    monkeypatch.setenv("REPRO_MAX_MAPPINGS", raw)
    with pytest.raises(ValueError, match="REPRO_MAX_MAPPINGS"):
        default_scale()


def test_env_valid_values_parse_as_before(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCALE", "0.1")
    monkeypatch.setenv("REPRO_MAX_MAPPINGS", "1")
    s = default_scale()
    assert (s.commit_target, s.screen_target) == (800, 300)
    assert s.max_mappings == 1


def test_cache_key_distinguishes():
    a = ExperimentScale(commit_target=1000)
    b = ExperimentScale(commit_target=2000)
    assert a.cache_key != b.cache_key
