"""Scenario configuration.

A ScenarioConfig carries every knob of a run: radio geometry, traffic,
signaling bit budget, TOC weights, learner hyperparameters, and the
slot schedule.  Configs load from a flat ``key = value`` text format
(one pair per line, ``#`` comments), can be overridden from environment
variables prefixed ``SMARTRAN_``, and round-trip through serialize().

Defaults reproduce the reference deployment: four RRSs each covering
100 m inside a 500 m service area, 32 subcarriers, 40 dBm per-site
budget, -174 dBm/Hz noise density, and a {16, 4, 4} bit budget for
CSI / subcarrier indicator / power level signaling.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for unparseable files, unknown keys, or invalid values."""


SCHEMES = ("smart", "fixed-centralized", "fixed-distributed", "equal-power-baseline")
LEARNERS = ("sac", "dqn", "ddpg")

ENV_PREFIX = "SMARTRAN_"


@dataclass
class ScenarioConfig:
    # Radio geometry
    rrs_count: int = 4
    area_radius_m: float = 500.0
    cell_radius_m: float = 100.0
    subcarriers: int = 32
    p_max_dbm: float = 40.0
    bandwidth_hz: float = 180e3  # per subcarrier
    noise_dbm_hz: float = -174.0
    path_loss_exponent: float = 3.0
    # exclusion zone: path gain is clamped at this distance so a user on
    # top of a mast does not see a near-field singularity
    min_distance_m: float = 35.0
    # 0.0 means: calibrate the reference gain so a cell-edge user at
    # cell_radius_m sees cell_edge_snr_db when the full site budget is
    # spent on one subcarrier.
    reference_gain: float = 0.0
    cell_edge_snr_db: float = 10.0

    # Traffic
    n_users: int = 8
    max_users: int = 0  # 0 -> auto (n_users, or headroom when traffic is on)
    # placement/fading draws consume the stream at this many users so
    # sweeps over n_users at a common value see nested environments;
    # 0 -> effective_max_users (no extra headroom)
    draw_capacity: int = 0
    arrival_rate: float = 0.0  # Poisson arrivals per slot
    departure_prob: float = 0.0  # per-user Bernoulli departure per slot

    # Signaling bit budget per (user, subcarrier) pair
    bits_power: int = 4
    bits_csi: int = 16
    bits_subcarrier: int = 4

    # TOC weights (calibrated on the desk preset; see README)
    toc_alpha: float = 4.5e-4
    toc_beta: float = 300.0

    # Learners
    learner: str = "sac"  # allocator learner: sac | dqn | ddpg
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 3e-4
    batch_size: int = 64
    buffer_capacity: int = 100_000
    alloc_discount: float = 0.0
    sdn_discount: float = 0.99
    polyak: float = 0.005  # fraction of the online net blended into the target
    init_temperature: float = 0.2
    dqn_epsilon: float = 0.1
    dqn_actions: int = 32
    ddpg_noise: float = 0.2

    # SDN controller
    memory_depth: int = 10
    norm_warmup_slots: int = 50

    # Run control
    scheme: str = "smart"
    train_slots: int = 1600
    eval_slots: int = 400
    complexity_episodes: int = 0  # 0 -> use train_slots as E in the complexity model
    seed: int = 0
    agent_seed: int = -1  # -1 -> follow seed

    # ---- derived quantities ----

    @property
    def p_max_w(self) -> float:
        return 10.0 ** ((self.p_max_dbm - 30.0) / 10.0)

    @property
    def noise_power_w(self) -> float:
        """Thermal noise power in one subcarrier bandwidth."""
        return 10.0 ** ((self.noise_dbm_hz - 30.0) / 10.0) * self.bandwidth_hz

    @property
    def effective_max_users(self) -> int:
        if self.max_users > 0:
            return self.max_users
        if self.arrival_rate > 0.0:
            # headroom for a birth-death population that starts at n_users
            return 2 * self.n_users + 8
        return max(self.n_users, 1)

    @property
    def effective_draw_capacity(self) -> int:
        return max(self.draw_capacity, self.effective_max_users)

    @property
    def effective_agent_seed(self) -> int:
        return self.seed if self.agent_seed < 0 else self.agent_seed

    @property
    def effective_complexity_episodes(self) -> int:
        return self.complexity_episodes if self.complexity_episodes > 0 else self.train_slots

    @property
    def effective_buffer_capacity(self) -> int:
        # each training slot pushes at most one transition per agent, so
        # a ring longer than train_slots would never fill
        return max(1, min(self.buffer_capacity, self.train_slots))

    @property
    def total_slots(self) -> int:
        return self.train_slots + self.eval_slots

    def validate(self) -> None:
        if self.rrs_count < 1:
            raise ConfigError("rrs_count must be >= 1")
        if self.subcarriers < 1:
            raise ConfigError("subcarriers must be >= 1")
        if self.area_radius_m <= 0 or self.cell_radius_m <= 0:
            raise ConfigError("radii must be positive")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be positive")
        if self.min_distance_m < 0:
            raise ConfigError("min_distance_m must be >= 0")
        if self.min_distance_m >= self.cell_radius_m:
            raise ConfigError("min_distance_m must be below cell_radius_m")
        if self.n_users < 0:
            raise ConfigError("n_users must be >= 0")
        if self.max_users > 0 and self.max_users < self.n_users:
            raise ConfigError("max_users must be 0 (auto) or >= n_users")
        if self.draw_capacity < 0:
            raise ConfigError("draw_capacity must be >= 0")
        if not (0.0 <= self.departure_prob <= 1.0):
            raise ConfigError("departure_prob must be in [0, 1]")
        if self.arrival_rate < 0.0:
            raise ConfigError("arrival_rate must be >= 0")
        for name in ("bits_power", "bits_csi", "bits_subcarrier"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.toc_alpha < 0 or self.toc_beta < 0:
            raise ConfigError("toc weights must be >= 0")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.learner not in LEARNERS:
            raise ConfigError(f"learner must be one of {LEARNERS}, got {self.learner!r}")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be positive integers")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1 or self.buffer_capacity < 1:
            raise ConfigError("batch_size and buffer_capacity must be >= 1")
        if not (0.0 <= self.alloc_discount < 1.0) or not (0.0 <= self.sdn_discount < 1.0):
            raise ConfigError("discounts must be in [0, 1)")
        if not (0.0 < self.polyak <= 1.0):
            raise ConfigError("polyak must be in (0, 1]")
        if not (0.0 <= self.dqn_epsilon <= 1.0):
            raise ConfigError("dqn_epsilon must be in [0, 1]")
        if self.dqn_actions < 2:
            raise ConfigError("dqn_actions must be >= 2")
        if self.ddpg_noise < 0:
            raise ConfigError("ddpg_noise must be >= 0")
        if self.memory_depth < 1:
            raise ConfigError("memory_depth must be >= 1")
        if self.norm_warmup_slots < 1:
            raise ConfigError("norm_warmup_slots must be >= 1")
        if self.train_slots < 0 or self.eval_slots < 0:
            raise ConfigError("slot counts must be >= 0")
        if self.complexity_episodes < 0:
            raise ConfigError("complexity_episodes must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _parse_value(key: str, raw: str, where: str):
    """Convert a raw string to the declared type of config field `key`."""
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        if f.type in ("str", str):
            return raw
        if key == "hidden_sizes":
            parts = [p for p in raw.replace(",", " ").split() if p]
            if not parts:
                raise ValueError("empty list")
            return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value {raw!r} for key '{key}' ({exc})") from None
    raise ConfigError(f"{where}: key '{key}' has unsupported type")


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse flat ``key = value`` text into a validated ScenarioConfig.

    Unknown keys and malformed lines raise ConfigError naming the line.
    An empty file yields all defaults.
    """
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        overrides[key] = _parse_value(key, raw, f"{source}:{lineno}")
    cfg = ScenarioConfig(**overrides)
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=path)


def apply_env_overrides(cfg: ScenarioConfig, environ=None) -> ScenarioConfig:
    """Overlay SMARTRAN_<KEY> environment variables onto a config."""
    environ = os.environ if environ is None else environ
    overrides = {}
    for key in _FIELDS:
        raw = environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            overrides[key] = _parse_value(key, raw, f"${ENV_PREFIX}{key.upper()}")
    if not overrides:
        return cfg
    out = dataclasses.replace(cfg, **overrides)
    out.validate()
    return out


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config in the same flat format parse_config accepts."""
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        val = getattr(cfg, f.name)
        if f.name == "hidden_sizes":
            val = ",".join(str(v) for v in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"
