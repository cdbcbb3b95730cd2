"""Per-slot network metrics.

Everything the mode decision trades off lives here:

* signaling overhead tau (bits) of running the allocation distributed
  at each site versus centralized at the BBU pool,
* sum rate under the two interference models (centralized allocations
  see the actual cross-cell transmissions; a site planning alone only
  knows large-scale gains and assumes neighbors split their budget
  equally over their own users and subcarriers); both kernels score
  only the granted links, in numpy's dense summation order (see the
  comments in rate_total_centralized),
* training complexity Gamma (weight multiplications) of the deep
  networks each mode would have to train at the current population,
* and the scalar TOC objective combining the three.

Conventions: powers in watts, gains linear, rates returned as summed
log2(1 + SINR) per subcarrier (multiply by the subcarrier bandwidth for
bits/s). Overheads and complexities are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .netmodel import ChannelTensor, Topology, UserSet


class Mode(str, Enum):
    CNT = "cnt"  # centralized: BBU pool allocates for all sites
    DST = "dst"  # distributed: each site allocates for its own users

    def __str__(self) -> str:  # keeps CSV cells as bare strings
        return self.value


@dataclass(frozen=True)
class BitBudget:
    """Signaling bits per (user, subcarrier) pair, by field."""

    power: int
    csi: int
    subcarriers: int

    def __post_init__(self):
        for name in ("power", "csi", "subcarriers"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"bit budget field {name} must be a non-negative int")

    @property
    def per_pair(self) -> int:
        return int(self.power) + int(self.csi) + int(self.subcarriers)


@dataclass
class Allocation:
    """One slot's downlink grant: p[b, u, k] watts and rho[b, u, k] in {0, 1}."""

    p: np.ndarray  # (B, U, K) float64
    rho: np.ndarray  # (B, U, K) int8

    def validate(self, p_max_w: np.ndarray, atol: float = 1e-9) -> None:
        if self.p.shape != self.rho.shape:
            raise ValueError("p and rho shapes differ")
        if not np.all((self.rho == 0) | (self.rho == 1)):
            raise ValueError("rho must be 0/1")
        if np.any(self.p < -atol):
            raise ValueError("negative power")
        if np.any((self.rho == 0) & (self.p > atol)):
            raise ValueError("power granted on an unassigned pair")
        # one user per subcarrier per site
        if self.rho.size and np.any(self.rho.sum(axis=1) > 1):
            raise ValueError("subcarrier assigned to more than one user at a site")
        totals = self.p.sum(axis=(1, 2))
        if np.any(totals > np.asarray(p_max_w) + atol):
            raise ValueError("site power budget exceeded")


# ---------------------------------------------------------------------------
# Signaling overhead


def overhead_distributed(budget: BitBudget, n_users: int, n_subcarriers: int) -> int:
    """Bits a site must exchange to allocate locally:
    (power + csi + subcarrier bits) * |U_b| * |K_b|. Exact integer."""
    if n_users < 0 or n_subcarriers < 0:
        raise ValueError("counts must be non-negative")
    return budget.per_pair * int(n_users) * int(n_subcarriers)


def overhead_centralized(per_rrs_overheads) -> int:
    """Bits the BBU pool must exchange: the sum of every site's local
    overhead (it needs all sites' CSI and returns all grants)."""
    total = 0
    for v in per_rrs_overheads:
        iv = int(v)
        if iv < 0:
            raise ValueError("per-site overhead must be non-negative")
        total += iv
    return total


# ---------------------------------------------------------------------------
# Interference and rates


def rate_total_centralized(channels: ChannelTensor, alloc: Allocation, noise_w: float) -> float:
    """Sum over all links of log2(1 + SINR) with the actual-grant
    interference model. Unassigned links contribute zero.

    The victim of grant (b, u, k) hears every other site b' through its
    own gain h[b', u, k], at the power b' spends on k minus anything b'
    granted to u itself. Only the G granted links are evaluated: O(B*G)
    work instead of the dense (B, U, K) interference tensor. Each site's
    spend per subcarrier is scattered from the grants when no (site,
    subcarrier) holds two of them, as every allocator's grant does;
    otherwise it is the dense sum over users, whose order a grant-order
    sum would not keep. The grant scan and gathers cost a fixed ~12 us
    more per call than the dense formula at desk shapes (2 sites x 8
    subcarriers, ~26 against ~14 us); at 4 x 200 x 32 it is ~8x faster
    (~51 against ~430 us), both on a 2-vCPU Xeon VM with numpy 2.4."""
    if noise_w <= 0:
        raise ValueError("noise power must be positive")
    n_b, n_u, n_k = alloc.rho.shape
    n_pairs = n_u * n_k
    grants = np.flatnonzero(alloc.rho != 0)
    site, pair = np.divmod(grants, n_pairs)
    k = pair % n_k
    cols = np.arange(len(grants))
    h = channels.h.reshape(n_b, n_pairs)
    p_g, rho_g = alloc.p.ravel()[grants], alloc.rho.ravel()[grants]
    # (B, G) power every site puts on each granted victim's own (u, k)
    pr = alloc.p.reshape(n_b, n_pairs)[:, pair] * alloc.rho.reshape(n_b, n_pairs)[:, pair]
    cell = site * n_k + k
    if not len(grants) or np.bincount(cell).max() == 1:
        # one term per cell: the dense sum adds only exact zeros to it
        totals = np.zeros(n_b * n_k)
        totals[cell] = p_g * rho_g
        totals = totals.reshape(n_b, n_k)
    else:
        totals = (alloc.p * alloc.rho).sum(axis=1)  # (B, K) power each site spends on k
    # C order, so that numpy sums it over sites one slice after another as
    # it does the dense tensor; the gather comes back Fortran-ordered,
    # which it would sum pairwise once B >= 8
    contrib = np.ascontiguousarray(h[:, pair] * (totals[:, k] - pr))
    interference = contrib.sum(axis=0) - contrib[site, cols]
    signal = h.ravel()[grants] * p_g * rho_g
    # summed over the dense layout: an ungranted link's term is exactly 0.0
    # there, and numpy's pairwise order over B*U*K terms stays the same
    terms = np.zeros(alloc.rho.size)
    terms[grants] = np.log2(1.0 + signal / (noise_w + interference))
    return float(terms.sum())


def equal_share_power(p_max_w: float, n_users: int, n_subcarriers: int) -> float:
    """Budget split evenly over a site's (user, subcarrier) pairs."""
    pairs = int(n_users) * int(n_subcarriers)
    return 0.0 if pairs == 0 else float(p_max_w) / pairs


def interference_vector_distributed(
    channels: ChannelTensor, topology: Topology, users: UserSet
) -> np.ndarray:
    """(U,) worst-case planning interference per user, vectorized."""
    counts = users.user_counts().astype(np.float64)  # (B,)
    k = float(topology.subcarrier_count)
    # |U_b'| interferers each at p_max/(|U_b'| K) collapse to p_max/K per site
    site_load = np.where(counts > 0, np.asarray(topology.p_max_w) / k, 0.0)
    # (B, U) in C order whatever h_large's layout, so that numpy sums it
    # over sites one row after another; an F-ordered product would be
    # summed pairwise once B >= 8
    per_site = np.multiply(channels.h_large, site_load[:, None], order="C")
    total = per_site.sum(axis=0)
    return total - per_site[users.serving, np.arange(users.n_users)]


def rate_matrix_distributed(
    channels: ChannelTensor,
    alloc: Allocation,
    topology: Topology,
    users: UserSet,
    noise_w: float,
) -> np.ndarray:
    """(B, U, K) per-link log2(1 + SINR) under the planning model.
    Nonzero only where the serving site granted the pair; a grant to
    another site's user scores nothing."""
    if noise_w <= 0:
        raise ValueError("noise power must be positive")
    rates = np.zeros_like(alloc.p)
    n_u, n_k = alloc.rho.shape[1:]
    grants = np.flatnonzero(alloc.rho != 0)
    site, pair = np.divmod(grants, n_u * n_k)
    row = pair // n_k
    served = users.serving[row] == site
    grants, row = grants[served], row[served]
    interference = interference_vector_distributed(channels, topology, users)  # (U,)
    signal = channels.h.ravel()[grants] * alloc.p.ravel()[grants] * alloc.rho.ravel()[grants]
    rates.put(grants, np.log2(1.0 + signal / (noise_w + interference[row])))
    return rates


# ---------------------------------------------------------------------------
# Training complexity


@dataclass(frozen=True)
class ComplexityShape:
    """Size card of a training run: episodes E, minibatch M, and the
    dense layer chain input -> hidden* -> output."""

    episodes: int
    batch: int
    input_size: int
    hidden_sizes: tuple[int, ...]
    output_size: int

    def __post_init__(self):
        if self.episodes < 0 or self.batch < 0:
            raise ValueError("episodes and batch must be non-negative")
        if self.input_size < 1 or self.output_size < 1:
            raise ValueError("layer sizes must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("need at least one positive hidden layer")

    @property
    def layer_chain(self) -> tuple[int, ...]:
        return (self.input_size, *self.hidden_sizes, self.output_size)


def _chain_multiplications(chain: tuple[int, ...]) -> int:
    return sum(int(a) * int(b) for a, b in zip(chain[:-1], chain[1:]))


def complexity_forward_cost(shape: ComplexityShape) -> int:
    """Weight multiplications of one forward pass (exact integer)."""
    return _chain_multiplications(shape.layer_chain)


def _training_complexity(shape: ComplexityShape) -> int:
    return int(shape.episodes) * int(shape.batch) * complexity_forward_cost(shape)


def centralized_shape(
    episodes: int,
    batch: int,
    hidden_sizes,
    n_users: int,
    n_subcarriers: int,
    n_rrs: int,
) -> ComplexityShape:
    """Layer chain of the BBU-pool network: the input spans every
    (site, user, subcarrier) gain, the output one power level and one
    assignment indicator per triple. Zero-user populations clamp to 1
    so the chain stays well formed."""
    pairs = max(int(n_users) * int(n_subcarriers) * int(n_rrs), 1)
    return ComplexityShape(
        episodes=episodes,
        batch=batch,
        input_size=pairs,
        hidden_sizes=tuple(int(h) for h in hidden_sizes),
        output_size=2 * pairs,
    )


def distributed_shape(
    episodes: int,
    batch: int,
    hidden_sizes,
    n_users_b: int,
    n_subcarriers_b: int,
) -> ComplexityShape:
    """Layer chain of one site's local network over its own pairs."""
    pairs = max(int(n_users_b) * int(n_subcarriers_b), 1)
    return ComplexityShape(
        episodes=episodes,
        batch=batch,
        input_size=pairs,
        hidden_sizes=tuple(int(h) for h in hidden_sizes),
        output_size=2 * pairs,
    )


def complexity_centralized(shape: ComplexityShape) -> int:
    """Gamma_Cnt = E * M * (sum of consecutive layer products)."""
    return _training_complexity(shape)


def complexity_distributed(shape: ComplexityShape) -> int:
    """Gamma_Dst at one site; same counting rule on the local chain."""
    return _training_complexity(shape)


# ---------------------------------------------------------------------------
# TOC objective


@dataclass(frozen=True)
class TocWeights:
    """Linear trade-off weights: TOC = rate - beta*tau - alpha*Gamma."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("TOC weights must be non-negative")


def toc_centralized(rate: float, tau_cnt: float, gamma_cnt: float, w: TocWeights) -> float:
    return float(rate) - w.beta * float(tau_cnt) - w.alpha * float(gamma_cnt)


def toc_distributed(rate: float, per_rrs_tau, per_rrs_gamma, w: TocWeights) -> float:
    """Distributed TOC is penalized by the slowest site on each axis:
    the max per-site overhead and the max per-site complexity."""
    taus = [float(t) for t in per_rrs_tau]
    gammas = [float(g) for g in per_rrs_gamma]
    if not taus or not gammas:
        raise ValueError("need at least one site")
    return float(rate) - w.beta * max(taus) - w.alpha * max(gammas)
