"""From-scratch float64 deep-RL toolkit on numpy.

Dense networks with exact hand-written backprop (parameter and input
gradients), bias-corrected Adam, a ring replay buffer, and three
off-policy learners: soft actor-critic with twin critics and learned
temperature, DQN over a discrete action set, and DDPG. Everything is
deterministic given the Generators passed in; nothing here owns global
random state.

Each network keeps all its parameters in one contiguous vector (the
arena, Mlp.flat) with per-layer views on top, and an AdamState steps one
array (an arena, or the temperature's log_alpha), so a learner's Adam
step, Polyak blend and finiteness check are one vector operation per
network.
Updates do only the work whose result they use: the backward forms
parameter gradients or input gradients only where asked, and when every
sampled transition has zero discount (a contextual bandit, as the
allocators are) sac_update skips the next-state target forwards but
still draws the next-state noise. A SAC agent built with zero discount
has no target critics to blend, and a replay buffer stores no next
state for a terminal transition. sac_update writes every batch- or
arena-sized intermediate into a SacWork that callers keep across
updates (and share between same-shape agents), so a steady update
allocates none. None of this changes a single float of
the results.
"""

from .mlp import (
    Mlp,
    MlpBuffers,
    MlpCache,
    mlp_init,
    mlp_forward,
    mlp_forward_cached,
    mlp_gradient,
    polyak_update,
)
from .adam import AdamState, adam_init, adam_step, apply_gradients
from .replay import ReplayBuffer, TransitionBatch
from .sac import SacAgent, SacLosses, SacWork, make_sac_agent, sac_select_action, sac_update
from .dqn import DqnAgent, make_dqn_agent, dqn_select_action, dqn_update
from .ddpg import DdpgAgent, make_ddpg_agent, ddpg_select_action, ddpg_update

__all__ = [
    "Mlp",
    "MlpBuffers",
    "MlpCache",
    "mlp_init",
    "mlp_forward",
    "mlp_forward_cached",
    "mlp_gradient",
    "polyak_update",
    "AdamState",
    "adam_init",
    "adam_step",
    "apply_gradients",
    "ReplayBuffer",
    "TransitionBatch",
    "SacAgent",
    "SacLosses",
    "SacWork",
    "make_sac_agent",
    "sac_select_action",
    "sac_update",
    "DqnAgent",
    "make_dqn_agent",
    "dqn_select_action",
    "dqn_update",
    "DdpgAgent",
    "make_ddpg_agent",
    "ddpg_select_action",
    "ddpg_update",
]
