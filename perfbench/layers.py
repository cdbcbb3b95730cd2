"""The traced layers: which simulator functions get spans, what each
per-layer metric reads from them, and the audits that run on the
traced calls (grant feasibility, sampled rates, replay reservations).
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, replace

import numpy as np

import checks

# metric -> (span name, field); busy and self are seconds per traced round
PER_LAYER = {
    "learning.sac_update.cnt.s": ("learning.sac_update.cnt", "busy"),
    "learning.sac_update.cnt.calls": ("learning.sac_update.cnt", "calls"),
    "learning.sac_update.dst.s": ("learning.sac_update.dst", "busy"),
    "learning.sac_update.dst.calls": ("learning.sac_update.dst", "calls"),
    "learning.sac_update.sdn.s": ("learning.sac_update.sdn", "busy"),
    "learning.sac_update.sdn.calls": ("learning.sac_update.sdn", "calls"),
    "learning.adam_step.s": ("learning.adam_step", "busy"),
    "learning.adam_step.calls": ("learning.adam_step", "calls"),
    "learning.mlp_forward_cached.s": ("learning.mlp_forward_cached", "busy"),
    "learning.mlp_gradient.s": ("learning.mlp_gradient", "busy"),
    "learning.mlp_forward.s": ("learning.mlp_forward", "busy"),
    "learning.polyak_update.s": ("learning.polyak_update", "busy"),
    "learning.sac_select_action.s": ("learning.sac_select_action", "busy"),
    "learning.replay.push.s": ("learning.replay.push", "busy"),
    "learning.replay.sample.s": ("learning.replay.sample", "busy"),
    "netmodel.sample_channels.s": ("netmodel.sample_channels", "busy"),
    "netmodel.step_traffic.s": ("netmodel.step_traffic", "busy"),
    "metrics.rate_total_centralized.s": ("metrics.rate_total_centralized", "busy"),
    "metrics.rate_matrix_distributed.s": ("metrics.rate_matrix_distributed", "busy"),
    "metrics.overhead_complexity.s": ("metrics.overhead_complexity", "busy"),
    "allocators.build_centralized_observation.s": ("allocators.build_centralized_observation", "busy"),
    "allocators.build_distributed_observations.s": ("allocators.build_distributed_observations", "busy"),
    "allocators.allocate_centralized.self.s": ("allocators.allocate_centralized", "self"),
    "allocators.allocate_distributed.self.s": ("allocators.allocate_distributed", "self"),
    "allocators.decode_action.s": ("allocators.decode_action", "busy"),
    "allocators.decode_action.calls": ("allocators.decode_action", "calls"),
    "allocators.allocate_equal_power.s": ("allocators.allocate_equal_power", "busy"),
    "controller.decide.s": ("controller.decide", "busy"),
    "controller.record_slot.s": ("controller.record_slot", "busy"),
    "controller.update.self.s": ("controller.update", "self"),
    "engine.run_episode.s": ("engine.run_episode", "busy"),
    "engine.self.s": ("engine.run_episode", "self"),
    "cli.write_csv.s": ("cli.write_csv", "busy"),
}
FIELD = {"calls": 0, "busy": 1, "self": 2}
OVERHEAD_COMPLEXITY = (
    "overhead_distributed", "overhead_centralized", "distributed_shape",
    "centralized_shape", "complexity_distributed", "complexity_centralized",
)
LEARNING = {
    "smartran.learning.adam": ("adam_step",),
    "smartran.learning.mlp": ("mlp_forward_cached", "mlp_gradient", "mlp_forward", "polyak_update"),
    "smartran.learning.sac": ("sac_select_action",),
}
ALLOCATORS = (
    "build_centralized_observation", "build_distributed_observations",
    "decode_action", "allocate_equal_power",
)


@dataclass
class RateSample:
    """One rate-kernel call, copied for the loop check and the self-test."""

    kind: str  # "cnt" or "dst"
    slot: int
    h: np.ndarray
    h_large: np.ndarray
    p: np.ndarray
    rho: np.ndarray
    serving: np.ndarray
    p_max: np.ndarray
    noise: float
    rate: float


class Audit:
    """Checks every grant that reaches a rate kernel, recomputes the rate
    of every `sample_every`-th slot with the benchmark's loop, tracks
    which agent plays which role, and sums replay reservations."""

    def __init__(self, sample_every: int):
        self.sample_every = sample_every
        self.errors: list[str] = []
        self.grants_checked = 0
        self.samples: dict[str, RateSample] = {}
        self.roles: dict[int, str] = {}
        self.reserved_bytes = 0
        self._episode_bytes = 0
        self._buffers: set[int] = set()
        self._draw = None

    def new_episode(self, args, kwargs) -> None:
        # agents and buffers live for one episode, so ids cannot be reused within it
        self.roles.clear()
        self._buffers.clear()
        self._episode_bytes = 0

    def role(self, kind: str):
        def note(args, kwargs) -> None:
            agents = args[0] if kind == "dst" else [args[0]]
            for agent in agents:
                self.roles[id(agent)] = kind
        return note

    def note_sdn(self, args, kwargs) -> None:
        self.roles[id(args[0].agent)] = "sdn"

    def sac_update_span(self, args) -> str:
        return "learning.sac_update." + self.roles.get(id(args[0]), "other")

    def on_push(self, args, kwargs, result) -> None:
        buf = args[0]
        if id(buf) not in self._buffers:
            self._buffers.add(id(buf))
            self._episode_bytes += sum(v.nbytes for v in vars(buf).values() if isinstance(v, np.ndarray))
            self.reserved_bytes = max(self.reserved_bytes, self._episode_bytes)

    def on_channels(self, bound, result) -> None:
        self._draw = (bound["topology"], bound["users"], int(bound["slot"]), result)

    def on_rate(self, kind: str, bound, result) -> None:
        topology, users, slot, channels = self._draw
        if bound["channels"] is not channels:
            self.errors.append(f"slot {slot} {kind}: rate kernel scored channels of another draw")
            return
        alloc = bound["alloc"]
        serving = np.asarray(users.serving)
        self.grants_checked += 1
        errors = checks.allocation_errors(alloc.p, alloc.rho, serving, topology.p_max_w)
        rate = float(result) if kind == "cnt" else float(np.sum(result))
        if kind == "dst" and np.any(np.asarray(result)[alloc.rho == 0] != 0):
            errors.append(f"slot {slot} dst: rate on an ungranted pair")
        if not errors and slot % self.sample_every == 0:
            sample = RateSample(
                kind, slot, channels.h.copy(), channels.h_large.copy(), alloc.p.copy(),
                alloc.rho.copy(), serving.copy(), np.array(topology.p_max_w), float(bound["noise_w"]), rate,
            )
            errors = checks.rate_sample_errors(sample)
            if len(serving) >= 2:  # the self-test needs a second user
                self.samples.setdefault(kind, sample)
        self.errors.extend(errors[: max(0, 20 - len(self.errors))])

    def self_test(self) -> list[str]:
        """Each corruption of a captured call must be rejected."""
        failures = []
        for kind, s in self.samples.items():
            # subcarrier 0 also granted to user 0 by the next site (not
            # its server), or to a second user at user 0's own site
            site = int(s.serving[0])
            foreign = s.rho.copy()
            foreign[(site + 1) % s.p.shape[0], 0, 0] = 1
            doubled = s.rho.copy()
            doubled[site, int(np.flatnonzero(doubled[site, :, 0] == 0)[0]), 0] = 1
            cases = {
                "rate off by 1e-6 relative": replace(s, rate=s.rate * (1 + 1e-6)),
                "site power off by 1e-6 relative": replace(s, p=s.p * (1 + 1e-6)),
                "grant to a user of another site": replace(s, rho=foreign),
                "two users on one subcarrier": replace(s, rho=doubled),
            }
            for label, corrupted in cases.items():
                if not checks.rate_sample_errors(corrupted):
                    failures.append(f"self-test: {kind} rate audit accepted '{label}'")
        return failures


def _binder(module_name: str, attr: str):
    signature = inspect.signature(getattr(sys.modules[module_name], attr))
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def instrument(tracer, audit: Audit) -> None:
    """Wrap every traced layer; tracer.restore() undoes it."""
    import smartran.cli  # noqa: F401  imports every module the patches reach
    from smartran.controller import SdnController
    from smartran.learning.replay import ReplayBuffer

    def patch(module_name, attr, name, before=None, after=None):
        if tracer.patch(module_name, attr, name, before, after) == 0:
            raise RuntimeError(f"{module_name}.{attr} is referenced by no smartran module")

    bind_draw = _binder("smartran.netmodel", "sample_channels")
    patch("smartran.netmodel", "sample_channels", "netmodel.sample_channels",
          after=lambda a, k, r: audit.on_channels(bind_draw(a, k), r))
    patch("smartran.netmodel", "step_traffic", "netmodel.step_traffic")

    for attr, kind in (("rate_total_centralized", "cnt"), ("rate_matrix_distributed", "dst")):
        bind = _binder("smartran.metrics", attr)
        patch("smartran.metrics", attr, f"metrics.{attr}",
              after=lambda a, k, r, bind=bind, kind=kind: audit.on_rate(kind, bind(a, k), r))
    for attr in OVERHEAD_COMPLEXITY:
        patch("smartran.metrics", attr, "metrics.overhead_complexity")

    for attr in ALLOCATORS:
        patch("smartran.allocators", attr, f"allocators.{attr}")
    patch("smartran.allocators", "allocate_centralized", "allocators.allocate_centralized",
          before=audit.role("cnt"))
    patch("smartran.allocators", "allocate_distributed", "allocators.allocate_distributed",
          before=audit.role("dst"))

    patch("smartran.learning.sac", "sac_update", audit.sac_update_span)
    for module_name, attrs in LEARNING.items():
        for attr in attrs:
            patch(module_name, attr, f"learning.{attr}")
    tracer.patch_method(ReplayBuffer, "push", "learning.replay.push", after=audit.on_push)
    tracer.patch_method(ReplayBuffer, "sample", "learning.replay.sample")

    tracer.patch_method(SdnController, "decide", "controller.decide")
    tracer.patch_method(SdnController, "record_slot", "controller.record_slot")
    tracer.patch_method(SdnController, "update", "controller.update", before=audit.note_sdn)

    patch("smartran.engine", "run_episode", "engine.run_episode", before=audit.new_episode)
    patch("smartran.cli", "write_csv", "cli.write_csv")


def per_layer_metrics(tracer, audit: Audit) -> dict:
    totals = tracer.totals()
    out = {}
    for metric, (span, field) in PER_LAYER.items():
        value = totals.get(span, [0, 0.0, 0.0])[FIELD[field]]
        out[metric] = {"value": value, "unit": "count" if field == "calls" else "s"}
    out["learning.replay.reserved_mb"] = {"value": audit.reserved_bytes / 2**20, "unit": "MB"}
    return out
