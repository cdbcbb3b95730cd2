"""Config parsing, validation, env overlay, and derived quantities."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartran.config import (
    ConfigError,
    ScenarioConfig,
    apply_env_overrides,
    load_config,
    parse_config,
    serialize_config,
)


def test_defaults_match_reference_deployment():
    cfg = ScenarioConfig()
    assert cfg.rrs_count == 4
    assert cfg.subcarriers == 32
    assert cfg.cell_radius_m == 100.0
    assert cfg.area_radius_m == 500.0
    assert cfg.p_max_dbm == 40.0
    assert cfg.noise_dbm_hz == -174.0
    assert (cfg.bits_csi, cfg.bits_subcarrier, cfg.bits_power) == (16, 4, 4)
    assert cfg.hidden_sizes == (64, 64)
    assert cfg.scheme == "smart" and cfg.learner == "sac"
    # TOC weights are calibrated constants; changing them silently would
    # move every crossover result
    assert cfg.toc_beta == 300.0
    assert cfg.toc_alpha == 4.5e-4
    cfg.validate()


def test_derived_powers():
    cfg = ScenarioConfig()
    assert cfg.p_max_w == pytest.approx(10.0, rel=1e-12)  # 40 dBm
    assert cfg.noise_power_w == pytest.approx(10.0 ** (-20.4) * 180e3, rel=1e-12)


def test_parse_overrides_comments_and_lists():
    text = """
    # radio
    rrs_count = 2
    subcarriers=8   # inline comment
    scheme = fixed-distributed

    hidden_sizes = 32, 16
    """
    cfg = parse_config(text)
    assert cfg.rrs_count == 2
    assert cfg.subcarriers == 8
    assert cfg.scheme == "fixed-distributed"
    assert cfg.hidden_sizes == (32, 16)
    # untouched keys keep their defaults
    assert cfg.n_users == 8


def test_parse_unknown_key_names_the_line():
    with pytest.raises(ConfigError, match=r"cfg\.txt:3: unknown key 'bogus'"):
        parse_config("rrs_count = 2\n\nbogus = 1\n", source="cfg.txt")


def test_parse_bad_value_names_the_line():
    with pytest.raises(ConfigError, match=r"cfg\.txt:1: invalid value 'eight'"):
        parse_config("subcarriers = eight\n", source="cfg.txt")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_config("just some words\n")


def test_parse_rejects_invalid_combination():
    with pytest.raises(ConfigError, match="max_users"):
        parse_config("n_users = 10\nmax_users = 4\n")


@pytest.mark.parametrize(
    "field,value,msg",
    [
        ("rrs_count", 0, "rrs_count"),
        ("subcarriers", 0, "subcarriers"),
        ("scheme", "bogus", "scheme"),
        ("learner", "sgd", "learner"),
        ("polyak", 0.0, "polyak"),
        ("min_distance_m", 150.0, "min_distance_m"),
        ("departure_prob", 1.5, "departure_prob"),
        ("seed", -1, "seed"),
        ("hidden_sizes", (0,), "hidden_sizes"),
    ],
)
def test_validate_rejects(field, value, msg):
    cfg = dataclasses.replace(ScenarioConfig(), **{field: value})
    with pytest.raises(ConfigError, match=msg):
        cfg.validate()


def test_env_overrides_apply_and_ignore_unrelated():
    cfg = ScenarioConfig()
    out = apply_env_overrides(
        cfg, environ={"SMARTRAN_SUBCARRIERS": "16", "OTHER": "x"}
    )
    assert out.subcarriers == 16
    assert cfg.subcarriers == 32  # original untouched
    same = apply_env_overrides(cfg, environ={})
    assert same is cfg


def test_env_override_bad_value_names_the_variable():
    with pytest.raises(ConfigError, match=r"\$SMARTRAN_SUBCARRIERS: invalid value"):
        apply_env_overrides(ScenarioConfig(), environ={"SMARTRAN_SUBCARRIERS": "x"})


def test_env_override_still_validated():
    with pytest.raises(ConfigError, match="seed"):
        apply_env_overrides(ScenarioConfig(), environ={"SMARTRAN_SEED": "-3"})


def test_serialize_roundtrip_defaults_and_modified():
    for cfg in (
        ScenarioConfig(),
        ScenarioConfig(rrs_count=2, hidden_sizes=(8, 4, 2), toc_alpha=1e-5,
                       scheme="equal-power-baseline", arrival_rate=1.5),
    ):
        again = parse_config(serialize_config(cfg))
        assert again == cfg


@settings(max_examples=50, deadline=None)
@given(
    rrs=st.integers(1, 8),
    sub=st.integers(1, 64),
    users=st.integers(0, 50),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    hidden=st.lists(st.integers(1, 128), min_size=1, max_size=4),
)
def test_serialize_roundtrip_property(rrs, sub, users, alpha, hidden):
    cfg = ScenarioConfig(
        rrs_count=rrs,
        subcarriers=sub,
        n_users=users,
        toc_alpha=alpha,
        hidden_sizes=tuple(hidden),
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("rrs_count = 2\nsubcarriers = 8\n")
    cfg = load_config(str(p))
    assert (cfg.rrs_count, cfg.subcarriers) == (2, 8)


def test_effective_max_users_rules():
    # explicit capacity wins
    assert ScenarioConfig(n_users=4, max_users=9).effective_max_users == 9
    # birth-death traffic gets headroom above the starting population
    assert ScenarioConfig(n_users=4, arrival_rate=0.5).effective_max_users == 16
    # static population: exactly the population (floor 1 for empty runs)
    assert ScenarioConfig(n_users=4).effective_max_users == 4
    assert ScenarioConfig(n_users=0).effective_max_users == 1


def test_effective_draw_capacity_and_agent_seed():
    cfg = ScenarioConfig(n_users=4, draw_capacity=20)
    assert cfg.effective_draw_capacity == 20
    assert ScenarioConfig(n_users=4).effective_draw_capacity == 4
    assert ScenarioConfig(seed=5).effective_agent_seed == 5
    assert ScenarioConfig(seed=5, agent_seed=9).effective_agent_seed == 9


def test_effective_complexity_episodes():
    assert ScenarioConfig(train_slots=123).effective_complexity_episodes == 123
    assert ScenarioConfig(train_slots=123, complexity_episodes=7).effective_complexity_episodes == 7


def test_effective_buffer_capacity_never_exceeds_the_pushes_a_run_makes():
    assert ScenarioConfig(train_slots=200).effective_buffer_capacity == 200
    assert ScenarioConfig(train_slots=200, buffer_capacity=50).effective_buffer_capacity == 50
    assert ScenarioConfig(train_slots=0, eval_slots=10).effective_buffer_capacity == 1
