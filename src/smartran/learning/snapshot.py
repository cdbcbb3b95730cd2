"""Parameter snapshots.

Networks serialize to plain JSON: a layer-size header plus row-major
parameter lists. Python's float repr round-trips float64 exactly, so a
save/load cycle reproduces parameters bit for bit. Snapshots capture
inference state (networks and temperature), not optimizer moments,
and hold only the networks the agent has: a SAC agent built with
gamma = 0 has no target critics.
"""

from __future__ import annotations

import json

import numpy as np

from .ddpg import DdpgAgent
from .dqn import DqnAgent
from .mlp import Mlp, arena_size
from .sac import SacAgent


def mlp_to_dict(net: Mlp) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "activation": net.activation,
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_dict(d: dict) -> Mlp:
    sizes = tuple(int(s) for s in d["layer_sizes"])
    net = Mlp(layer_sizes=sizes, flat=np.zeros(arena_size(sizes)), activation=d["activation"])
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = np.array(d["weights"][i], dtype=np.float64).reshape(fan_out, fan_in)
        b = np.array(d["biases"][i], dtype=np.float64)
        if b.shape != (fan_out,):
            raise ValueError("bias length does not match the layer header")
        net.weights[i][...] = w
        net.biases[i][...] = b
    return net


def _agent_nets(agent) -> dict[str, Mlp]:
    if isinstance(agent, SacAgent):
        nets = {"actor": agent.actor, "critic1": agent.critic1, "critic2": agent.critic2}
        if agent.target1 is not None:
            nets.update(target1=agent.target1, target2=agent.target2)
        return nets
    if isinstance(agent, DqnAgent):
        return {"qnet": agent.qnet, "target": agent.target}
    if isinstance(agent, DdpgAgent):
        return {
            "actor": agent.actor,
            "critic": agent.critic,
            "actor_target": agent.actor_target,
            "critic_target": agent.critic_target,
        }
    raise TypeError(f"unsupported agent type {type(agent).__name__}")


def save_agent(agent, path: str) -> None:
    payload = {
        "kind": type(agent).__name__,
        "nets": {name: mlp_to_dict(net) for name, net in _agent_nets(agent).items()},
    }
    if isinstance(agent, SacAgent):
        payload["log_alpha"] = float(agent.log_alpha[0])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_agent(path: str, agent) -> None:
    """Restore a snapshot into an agent of matching kind and sizes. Every
    network the agent has must be in the snapshot; networks it does not
    have (the targets of a gamma = 0 SAC agent) are ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["kind"] != type(agent).__name__:
        raise ValueError(f"snapshot holds a {payload['kind']}, not a {type(agent).__name__}")
    nets = _agent_nets(agent)
    missing = [name for name in nets if name not in payload["nets"]]
    if missing:
        raise ValueError(f"snapshot lacks the {', '.join(missing)} network(s) of this agent")
    for name, net in nets.items():
        loaded = mlp_from_dict(payload["nets"][name])
        if loaded.layer_sizes != net.layer_sizes:
            raise ValueError(f"{name}: snapshot sizes {loaded.layer_sizes} != {net.layer_sizes}")
        net.flat[...] = loaded.flat
        net.bump()
    if isinstance(agent, SacAgent):
        agent.log_alpha[0] = float(payload["log_alpha"])
