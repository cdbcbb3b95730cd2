"""Structural checks on the three learners: action contracts, update
mechanics, and target-network tracking. Convergence quality against the
value-iteration oracle lives in the acceptance suite."""

from unittest import mock

import numpy as np
import pytest

from smartran.learning import sac
from smartran.learning import (
    TransitionBatch,
    ddpg_select_action,
    ddpg_update,
    dqn_select_action,
    dqn_update,
    make_ddpg_agent,
    make_dqn_agent,
    make_sac_agent,
    sac_select_action,
    sac_update,
)


def _fill_buffer(agent, rng, n=96, state_dim=3, action_dim=None, discrete=False):
    for _ in range(n):
        s = rng.standard_normal(state_dim)
        if discrete:
            a = [float(rng.integers(0, 2))]
        else:
            a = rng.uniform(-1.0, 1.0, size=action_dim)
        agent.buffer.push(s, a, float(rng.standard_normal()), rng.standard_normal(state_dim), False)


def test_sac_actions_bounded_and_deterministic_mode_repeats():
    rng = np.random.default_rng(0)
    agent = make_sac_agent(3, 2, rng, hidden_sizes=(8,))
    s = rng.standard_normal(3)
    a1 = sac_select_action(agent, s, rng, deterministic=True)
    a2 = sac_select_action(agent, s, rng, deterministic=True)
    assert np.array_equal(a1, a2)
    assert a1.shape == (2,)
    draws = np.stack([sac_select_action(agent, s, rng) for _ in range(32)])
    assert np.all(np.abs(draws) <= 1.0)
    assert draws.std(axis=0).max() > 0.0  # stochastic mode explores


def test_sac_update_returns_finite_losses_and_moves_nets():
    rng = np.random.default_rng(1)
    agent = make_sac_agent(3, 2, rng, hidden_sizes=(8,), lr=1e-3)
    _fill_buffer(agent, rng, action_dim=2)
    w_actor = agent.actor.weights[0].copy()
    w_target = agent.target1.weights[0].copy()
    losses = None
    for _ in range(5):
        losses = sac_update(agent, agent.buffer.sample(64, rng), rng)
    for v in (losses.critic1, losses.critic2, losses.actor, losses.temperature):
        assert np.isfinite(v)
    assert not np.allclose(agent.actor.weights[0], w_actor)
    # targets trail the online critics by polyak blending
    assert not np.allclose(agent.target1.weights[0], w_target)
    assert not np.allclose(agent.target1.weights[0], agent.critic1.weights[0])


def test_sac_fixed_temperature_stays_fixed():
    rng = np.random.default_rng(2)
    agent = make_sac_agent(3, 1, rng, hidden_sizes=(8,), init_alpha=0.05, auto_alpha=False)
    _fill_buffer(agent, rng, action_dim=1)
    before = agent.alpha
    for _ in range(5):
        sac_update(agent, agent.buffer.sample(64, rng), rng)
    assert agent.alpha == before


def test_sac_auto_temperature_adapts():
    rng = np.random.default_rng(3)
    agent = make_sac_agent(3, 1, rng, hidden_sizes=(8,), init_alpha=0.2, auto_alpha=True)
    _fill_buffer(agent, rng, action_dim=1)
    before = agent.alpha
    for _ in range(20):
        sac_update(agent, agent.buffer.sample(64, rng), rng)
    assert agent.alpha != before


def test_dqn_greedy_is_argmax_and_epsilon_explores():
    rng = np.random.default_rng(4)
    agent = make_dqn_agent(3, 4, rng, hidden_sizes=(8,), epsilon=1.0)
    s = rng.standard_normal(3)
    from smartran.learning import mlp_forward

    greedy = dqn_select_action(agent, s, rng, greedy=True)
    assert greedy == int(np.argmax(mlp_forward(agent.qnet, s)))
    draws = {dqn_select_action(agent, s, rng) for _ in range(64)}
    assert len(draws) > 1  # epsilon=1 must explore
    assert all(0 <= a < 4 for a in draws)


def test_dqn_update_moves_qnet_and_target():
    rng = np.random.default_rng(5)
    agent = make_dqn_agent(3, 2, rng, hidden_sizes=(8,), lr=1e-3)
    _fill_buffer(agent, rng, discrete=True)
    w_q = agent.qnet.weights[0].copy()
    w_t = agent.target.weights[0].copy()
    for _ in range(5):
        loss = dqn_update(agent, agent.buffer.sample(64, rng))
        assert np.isfinite(loss)
    assert not np.allclose(agent.qnet.weights[0], w_q)
    assert not np.allclose(agent.target.weights[0], w_t)


def test_ddpg_action_contract_and_update():
    rng = np.random.default_rng(6)
    agent = make_ddpg_agent(3, 2, rng, hidden_sizes=(8,), lr=1e-3, noise_std=0.5)
    s = rng.standard_normal(3)
    det1 = ddpg_select_action(agent, s, rng, deterministic=True)
    det2 = ddpg_select_action(agent, s, rng, deterministic=True)
    assert np.array_equal(det1, det2)
    noisy = np.stack([ddpg_select_action(agent, s, rng) for _ in range(32)])
    assert np.all(np.abs(noisy) <= 1.0)
    assert noisy.std(axis=0).max() > 0.0
    _fill_buffer(agent, rng, action_dim=2)
    w_actor = agent.actor.weights[0].copy()
    for _ in range(5):
        critic_loss, actor_obj = ddpg_update(agent, agent.buffer.sample(64, rng))
        assert np.isfinite(critic_loss) and np.isfinite(actor_obj)
    assert not np.allclose(agent.actor.weights[0], w_actor)


def test_learner_factories_validate_sizes():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        make_sac_agent(0, 1, rng)
    with pytest.raises(ValueError):
        make_sac_agent(1, 1, rng, init_alpha=0.0)
    with pytest.raises(ValueError):
        make_dqn_agent(3, 1, rng)  # needs at least two actions


@pytest.mark.parametrize("gamma, blends", [(0.0, 0), (0.9, 2)])
def test_only_a_discounting_sac_agent_has_targets_to_blend(gamma, blends):
    rng = np.random.default_rng(8)
    agent = make_sac_agent(3, 2, rng, hidden_sizes=(8,), gamma=gamma)
    assert (agent.target1 is None and agent.target2 is None) == (gamma == 0.0)
    _fill_buffer(agent, rng, action_dim=2)
    with mock.patch.object(sac, "polyak_update", wraps=sac.polyak_update) as blend:
        sac_update(agent, agent.buffer.sample(16, rng), rng)
    assert blend.call_count == blends


def _terminal_pair(agent, rng, discrete):
    # the buffer keeps no next state for terminal rows, so they sample as
    # zeros; the same rows with the states as next states must update a
    # twin agent to the same bits, as (1 - done) zeroes the bootstrap
    for _ in range(32):
        s = rng.standard_normal(3)
        a = [float(rng.integers(0, 2))] if discrete else rng.uniform(-1.0, 1.0, 2)
        agent.buffer.push(s, a, float(rng.standard_normal()), s, True)
    zeros = agent.buffer.sample(16, rng)
    assert np.all(zeros.next_states == 0.0)
    states = TransitionBatch(
        zeros.states, zeros.actions, zeros.rewards, zeros.states.copy(), zeros.dones
    )
    return zeros, states


def _nets_equal(a, b, names):
    return all(np.array_equal(getattr(a, n).flat, getattr(b, n).flat) for n in names)


def test_dqn_terminal_rows_update_the_same_without_next_states():
    agents = [make_dqn_agent(3, 2, np.random.default_rng(9), hidden_sizes=(8,)) for _ in range(2)]
    zeros, states = _terminal_pair(agents[0], np.random.default_rng(10), discrete=True)
    assert dqn_update(agents[0], zeros) == dqn_update(agents[1], states)
    assert _nets_equal(*agents, ("qnet", "target"))


def test_ddpg_terminal_rows_update_the_same_without_next_states():
    agents = [make_ddpg_agent(3, 2, np.random.default_rng(11), hidden_sizes=(8,)) for _ in range(2)]
    zeros, states = _terminal_pair(agents[0], np.random.default_rng(12), discrete=False)
    assert ddpg_update(agents[0], zeros) == ddpg_update(agents[1], states)
    assert _nets_equal(*agents, ("actor", "critic", "actor_target", "critic_target"))
