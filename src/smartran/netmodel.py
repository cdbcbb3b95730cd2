"""Radio environment: sites, users, channels, traffic.

The service area is a disc. Remote radio sites (RRSs) sit on a ring of
half the area radius at equal angles with a seed-dependent rotation,
which keeps sites separated and makes the layout a pure function of the
seed. Each user has a home cell (its id modulo the site count, so
populations stay balanced as they grow) and is dropped uniformly inside
that cell's disc, which it is served by for its whole lifetime.

Channel gains factor as h = h_large * fading, where h_large is a
power-law path gain c * d^(-eta) and the fading is a unit-mean
exponential (the squared magnitude of a Rayleigh fade), drawn
independently per (site, user, subcarrier) and per slot with
Generator.standard_exponential, which yields the same values as
exponential(1.0) without its scaling pass. A ChannelTensor keeps
h_large and h; the fading is not stored.

All randomness is keyed by (seed, stream, slot) substreams, so channel
realizations for a given slot do not depend on how many draws any other
component consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .config import ScenarioConfig


@dataclass(frozen=True)
class PathLossModel:
    """Bounded power-law large-scale gain:
    gain(d) = reference_gain * max(d, min_distance_m)^(-exponent).

    The clamp keeps the near-field singularity out of the model; a user
    standing next to a mast sees the gain of the exclusion-zone edge.
    """

    exponent: float
    reference_gain: float
    min_distance_m: float = 0.0

    def gain(self, distance_m):
        d = np.asarray(distance_m, dtype=np.float64)
        if np.any(d <= 0.0):
            raise ValueError("path gain requires strictly positive distance")
        return self.reference_gain * np.maximum(d, self.min_distance_m) ** (-self.exponent)

    @classmethod
    def calibrated(
        cls,
        exponent: float,
        p_max_w: float,
        cell_radius_m: float,
        noise_power_w: float,
        edge_snr_db: float,
        min_distance_m: float = 0.0,
    ) -> "PathLossModel":
        """Choose reference_gain so that a user at cell_radius_m sees
        edge_snr_db of SNR when the whole site budget lands on one
        subcarrier: p_max * g(R) / noise = 10^(snr/10)."""
        target = 10.0 ** (edge_snr_db / 10.0)
        ref = target * noise_power_w * cell_radius_m**exponent / p_max_w
        return cls(exponent=exponent, reference_gain=ref, min_distance_m=min_distance_m)

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "PathLossModel":
        if cfg.reference_gain > 0.0:
            return cls(
                exponent=cfg.path_loss_exponent,
                reference_gain=cfg.reference_gain,
                min_distance_m=cfg.min_distance_m,
            )
        return cls.calibrated(
            exponent=cfg.path_loss_exponent,
            p_max_w=cfg.p_max_w,
            cell_radius_m=cfg.cell_radius_m,
            noise_power_w=cfg.noise_power_w,
            edge_snr_db=cfg.cell_edge_snr_db,
            min_distance_m=cfg.min_distance_m,
        )


@dataclass
class Topology:
    """Static deployment: site positions and radio constants."""

    area_radius_m: float
    positions: np.ndarray  # (B, 2)
    cell_radius_m: float
    p_max_w: np.ndarray  # (B,)
    subcarrier_count: int

    @property
    def rrs_count(self) -> int:
        return int(self.positions.shape[0])

    def validate(self) -> None:
        b = self.rrs_count
        if b < 1:
            raise ValueError("topology needs at least one RRS")
        if self.positions.shape != (b, 2):
            raise ValueError("positions must be (B, 2)")
        radial = np.linalg.norm(self.positions, axis=1)
        if np.any(radial > self.area_radius_m + 1e-9):
            raise ValueError("RRS positions must lie inside the service area")
        if self.cell_radius_m <= 0 or np.any(self.p_max_w <= 0):
            raise ValueError("cell radius and power budgets must be positive")
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")


def generate_topology(cfg: ScenarioConfig, seed: int) -> Topology:
    """Deterministic site layout for a scenario seed."""
    rng = streams.substream(seed, streams.TOPOLOGY)
    b = cfg.rrs_count
    ring = 0.5 * cfg.area_radius_m
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    angles = rotation + 2.0 * np.pi * np.arange(b) / b
    positions = ring * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    topo = Topology(
        area_radius_m=cfg.area_radius_m,
        positions=positions,
        cell_radius_m=cfg.cell_radius_m,
        p_max_w=np.full(b, cfg.p_max_w, dtype=np.float64),
        subcarrier_count=cfg.subcarriers,
    )
    topo.validate()
    return topo


@dataclass
class UserSet:
    """Current user population and its per-site partition.

    Rows are ordered by ascending user id; ids are never reused within a
    run. rrs_members[b] holds row indices (not ids) of the users served
    by site b. Reuse is full: every site may schedule every subcarrier.
    """

    ids: np.ndarray  # (U,) int64
    positions: np.ndarray  # (U, 2)
    serving: np.ndarray  # (U,) int64, site index per user
    rrs_members: list[np.ndarray]
    next_id: int

    @property
    def n_users(self) -> int:
        return int(self.ids.shape[0])

    def user_counts(self) -> np.ndarray:
        return np.array([len(m) for m in self.rrs_members], dtype=np.int64)

    def validate(self, topology: Topology) -> None:
        u = self.n_users
        if self.positions.shape != (u, 2) or self.serving.shape != (u,):
            raise ValueError("inconsistent user array shapes")
        if u and np.any(np.diff(self.ids) <= 0):
            raise ValueError("user ids must be strictly increasing")
        if u and (self.serving.min() < 0 or self.serving.max() >= topology.rrs_count):
            raise ValueError("serving indices out of range")
        if len(self.rrs_members) != topology.rrs_count or not all(
            np.array_equal(m, np.flatnonzero(self.serving == b))
            for b, m in enumerate(self.rrs_members)
        ):
            raise ValueError("rrs_members must partition the rows by serving site, ascending")
        if u:
            serve_d = np.linalg.norm(
                self.positions - topology.positions[self.serving], axis=1
            )
            if np.any(serve_d > topology.cell_radius_m + 1e-9):
                raise ValueError("users must lie inside their serving cell's disc")


def _uniform_disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    u = rng.random((n, 2))
    r = radius * np.sqrt(u[:, 0])
    theta = 2.0 * np.pi * u[:, 1]
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _place_in_cells(
    rng: np.random.Generator, topology: Topology, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop each user uniformly inside its home cell's disc.

    The home cell is id % B, so populations stay balanced under growth
    and the placement of user i never depends on how many users follow.
    """
    serving = (ids % topology.rrs_count).astype(np.int64)
    positions = topology.positions[serving] + _uniform_disc(rng, len(ids), topology.cell_radius_m)
    return positions, serving


def _partition(topology: Topology, serving: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(serving == b) for b in range(topology.rrs_count)]


def spawn_users(
    topology: Topology, n_users: int, seed: int, draw_capacity: int = 0
) -> UserSet:
    """Spawn n_users round-robin across cells, uniform inside each disc.

    Positions are drawn at max(n_users, draw_capacity) and truncated, so
    sweeps over the user count at a common capacity see nested
    populations: the n-user set is a prefix of the n'-user set (n' > n).
    """
    if n_users < 0:
        raise ValueError("n_users must be >= 0")
    rng = streams.substream(seed, streams.USER_PLACEMENT)
    draw = max(n_users, draw_capacity)
    positions, serving = _place_in_cells(rng, topology, np.arange(draw, dtype=np.int64))
    positions, serving = positions[:n_users], serving[:n_users]
    users = UserSet(
        ids=np.arange(n_users, dtype=np.int64),
        positions=positions,
        serving=serving,
        rrs_members=_partition(topology, serving),
        next_id=n_users,
    )
    users.validate(topology)
    return users


@dataclass
class ChannelTensor:
    """One slot of channel state: path gains h_large, faded gains h."""

    h_large: np.ndarray  # (B, U)
    h: np.ndarray  # (B, U, K)


def sample_channels(
    topology: Topology,
    users: UserSet,
    model: PathLossModel,
    seed: int,
    slot: int,
    draw_capacity: int = 0,
) -> ChannelTensor:
    """Draw the (B, U, K) channel tensor for one slot.

    Pure in (seed, slot): the same key always yields the same tensor,
    independent of draws consumed elsewhere. Fading is drawn at
    max(U, draw_capacity) rows and sliced, so runs at a common capacity
    share the first U rows regardless of how many users are active.
    """
    rng = streams.substream(seed, streams.CHANNELS, slot)
    b, u, k = topology.rrs_count, users.n_users, topology.subcarrier_count
    if u == 0:
        return ChannelTensor(h_large=np.empty((b, 0)), h=np.empty((b, 0, k)))
    d = np.linalg.norm(topology.positions[:, None, :] - users.positions[None, :, :], axis=2)
    h_large = model.gain(d)
    # unit-mean exponential = |Rayleigh|^2 fading power. standard_exponential
    # is exponential(1.0) without the scale pass: the same values, and it
    # leaves the generator in the same state. Floor away the measure-zero
    # exact-zero draw so gains stay strictly positive
    draw = max(u, draw_capacity)
    h = np.maximum(rng.standard_exponential(size=(b, draw, k))[:, :u, :], 1e-300)
    h *= h_large[:, :, None]
    return ChannelTensor(h_large=h_large, h=h)


def step_traffic(
    topology: Topology,
    users: UserSet,
    arrival_rate: float,
    departure_prob: float,
    seed: int,
    slot: int,
    max_users: int = 0,
) -> UserSet:
    """One birth-death step: Bernoulli departures, Poisson arrivals.

    Surviving users keep their id, position, and serving site; arrivals
    get fresh increasing ids and spawn in their home cell (no
    re-association afterwards). With max_users > 0, arrivals beyond the
    capacity are blocked. (0, 0) rates return the population unchanged.
    The result meets UserSet.validate by construction and is not
    re-checked here, as this runs every slot.
    """
    if arrival_rate < 0 or not (0.0 <= departure_prob <= 1.0):
        raise ValueError("invalid traffic rates")
    rng = streams.substream(seed, streams.TRAFFIC, slot)
    keep = rng.random(users.n_users) >= departure_prob if users.n_users else np.empty(0, bool)
    n_arrivals = int(rng.poisson(arrival_rate))
    if max_users > 0:
        room = max_users - int(keep.sum())
        n_arrivals = min(n_arrivals, max(room, 0))
    new_ids = users.next_id + np.arange(n_arrivals, dtype=np.int64)
    new_positions, new_serving = _place_in_cells(rng, topology, new_ids)
    ids = np.concatenate([users.ids[keep], new_ids])
    positions = np.vstack([users.positions[keep], new_positions])
    serving = np.concatenate([users.serving[keep], new_serving]).astype(np.int64)
    return UserSet(
        ids=ids.astype(np.int64),
        positions=positions,
        serving=serving,
        rrs_members=_partition(topology, serving),
        next_id=users.next_id + n_arrivals,
    )
