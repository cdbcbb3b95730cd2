"""Network forward/backward, Adam, polyak and replay."""

import numpy as np
import pytest

import oracles
from smartran.allocators import update_allocator
from smartran.learning import (
    MlpBuffers,
    ReplayBuffer,
    TransitionBatch,
    adam_init,
    adam_step,
    apply_gradients,
    make_sac_agent,
    mlp_forward,
    mlp_forward_cached,
    mlp_gradient,
    mlp_init,
    polyak_update,
)


def test_forward_single_and_batch_agree():
    rng = np.random.default_rng(0)
    net = mlp_init((3, 8, 2), rng)
    xs = rng.standard_normal((5, 3))
    batch = mlp_forward(net, xs)
    assert batch.shape == (5, 2)
    for i in range(5):
        single = mlp_forward(net, xs[i])
        assert single.shape == (2,)
        assert np.allclose(single, batch[i], rtol=1e-14)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradients_match_central_differences(activation):
    rng = np.random.default_rng(1)
    net = mlp_init((4, 6, 5, 2), rng, activation=activation)
    x = rng.standard_normal(4)
    w = rng.standard_normal(2)  # fixed upstream weights: loss = w . y

    def loss():
        return float(w @ mlp_forward(net, x))

    y, cache = mlp_forward_cached(net, x)
    grads, dx = mlp_gradient(net, w, cache)
    fd = oracles.fd_gradients(loss, net.params())
    for got, want in zip(grads, fd):
        assert np.allclose(got, want, rtol=1e-5, atol=1e-8)
    fd_x = oracles.fd_gradients(loss, [x])[0]
    assert np.allclose(dx, fd_x, rtol=1e-5, atol=1e-8)


def test_gradient_rejects_stale_cache():
    rng = np.random.default_rng(2)
    net = mlp_init((2, 4, 1), rng)
    _, cache = mlp_forward_cached(net, np.ones(2))
    opt = adam_init(net.flat, lr=1e-3)
    grads, _ = mlp_gradient(net, np.ones(1), cache, params="flat")
    apply_gradients(net, opt, grads)
    with pytest.raises(ValueError, match="stale cache"):
        mlp_gradient(net, np.ones(1), cache)


def test_gradient_rejects_cache_whose_buffers_were_overwritten():
    rng = np.random.default_rng(3)
    net = mlp_init((3, 5, 2), rng)
    x1, x2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    buffers = MlpBuffers(net.layer_sizes, 4)
    _, first = mlp_forward_cached(net, x1, out=buffers)
    _, second = mlp_forward_cached(net, x2, out=buffers)
    g = rng.standard_normal((4, 2))
    with pytest.raises(ValueError, match="stale cache"):
        mlp_gradient(net, g, first)
    # the live cache gives exactly what a fresh forward would
    _, alone = mlp_forward_cached(net, x2)
    got, want = mlp_gradient(net, g, second), mlp_gradient(net, g, alone)
    for a, b in zip(got[0] + [got[1]], want[0] + [want[1]]):
        assert np.array_equal(a, b)


def test_final_scale_shrinks_output_layer_only():
    rng = np.random.default_rng(3)
    net = mlp_init((4, 16, 2), rng, final_scale=0.0)
    assert np.all(net.weights[-1] == 0.0)
    assert np.any(net.weights[0] != 0.0)


def test_mlp_init_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        mlp_init((3,), rng)
    with pytest.raises(ValueError):
        mlp_init((3, 0, 2), rng)
    with pytest.raises(ValueError):
        mlp_init((3, 4, 2), rng, activation="sigmoid")


def test_adam_first_step_known_value():
    p = np.zeros(1)
    opt = adam_init(p, lr=0.1)
    adam_step(opt, p, np.ones(1))
    # bias-corrected first step: -lr * 1 / (1 + eps)
    assert p[0] == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-12)
    assert opt.step == 1


def test_adam_rejects_nonfinite_gradients():
    p = np.zeros(2)
    opt = adam_init(p, lr=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(opt, p, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(opt, p, np.array([np.inf, 0.0]))
    assert np.all(p == 0.0)  # params untouched on rejection


def test_adam_shape_mismatch():
    p = np.zeros(2)
    opt = adam_init(p, lr=0.1)
    with pytest.raises(ValueError, match="do not match"):
        adam_step(opt, p, np.zeros(3))
    with pytest.raises(ValueError, match="do not match"):
        adam_step(opt, np.zeros(3), np.zeros(3))
    assert opt.step == 0 and np.all(p == 0.0)


def test_apply_gradients_bumps_version():
    rng = np.random.default_rng(5)
    net = mlp_init((2, 3, 1), rng)
    opt = adam_init(net.flat, lr=1e-3)
    v0 = net.version
    apply_gradients(net, opt, np.zeros_like(net.flat))
    assert net.version == v0 + 1


def test_polyak_blend_and_full_copy():
    rng = np.random.default_rng(6)
    online = mlp_init((2, 4, 1), rng)
    target = mlp_init((2, 4, 1), rng)
    w_t = target.weights[0].copy()
    w_o = online.weights[0].copy()
    polyak_update(target, online, 0.25)
    assert np.allclose(target.weights[0], 0.75 * w_t + 0.25 * w_o, rtol=1e-14)
    polyak_update(target, online, 1.0)
    assert np.allclose(target.weights[0], online.weights[0], rtol=1e-15)
    assert target.weights[0] is not online.weights[0]


def test_replay_fifo_eviction_and_sampling():
    buf = ReplayBuffer(capacity=4)
    for i in range(6):
        buf.push([float(i)], [0.0], float(i), [float(i + 1)], False)
    assert len(buf) == 4
    rng = np.random.default_rng(7)
    batch = buf.sample(64, rng)
    # entries 0 and 1 were overwritten by 4 and 5
    assert set(np.unique(batch.rewards)).issubset({2.0, 3.0, 4.0, 5.0})
    assert batch.states.shape == (64, 1)
    assert batch.dones.shape == (64,)


def test_replay_sample_into_caller_batch_matches_fresh_rows():
    buf = ReplayBuffer(capacity=8)
    data = np.random.default_rng(8)
    for _ in range(8):
        buf.push(data.standard_normal(3), data.standard_normal(2), data.standard_normal(),
                 data.standard_normal(3), bool(data.random() < 0.5))
    fields = ("states", "actions", "rewards", "next_states", "dones")
    fresh = buf.sample(16, np.random.default_rng(9))
    out = TransitionBatch(*(np.full_like(getattr(fresh, f), np.nan) for f in fields))
    assert buf.sample(16, np.random.default_rng(9), out=out) is out
    idx = np.random.default_rng(9).integers(0, 8, size=16)
    for f in fields:
        assert np.array_equal(getattr(out, f), getattr(fresh, f))
        assert np.array_equal(getattr(fresh, f), getattr(buf, "_" + f)[idx])
    with pytest.raises(ValueError):
        buf.sample(15, np.random.default_rng(9), out=out)


def test_steady_sac_updates_do_not_refault_memory():
    # the pool agent's shape on the sites-8 benchmark: 8 sites x 18 users
    # x 4 subcarriers, batch 64; every update reuses one SacWork
    resource = pytest.importorskip("resource")
    state_dim, action_dim, n = 576, 1152, 64
    rng = np.random.default_rng(10)
    agent = make_sac_agent(state_dim, action_dim, rng, gamma=0.0, buffer_capacity=n)
    for _ in range(n):
        s = rng.standard_normal(state_dim)
        agent.buffer.push(s, rng.uniform(-1.0, 1.0, action_dim), rng.standard_normal(), s, True)
    work = None
    for _ in range(3):
        work = update_allocator(agent, rng, n, work)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        work = update_allocator(agent, rng, n, work)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000, f"{faults} minor faults in 20 steady updates"


def test_terminal_only_buffer_holds_no_next_states():
    buf = ReplayBuffer(capacity=8)
    data = np.random.default_rng(11)
    for _ in range(5):
        s = data.standard_normal(3)
        buf.push(s, data.standard_normal(2), data.standard_normal(), s, True)
    assert buf._next_states is None
    batch = buf.sample(6, np.random.default_rng(12))
    assert batch.next_states.shape == (6, 3) and np.all(batch.next_states == 0.0)
    out = TransitionBatch(np.empty((6, 3)), np.empty((6, 2)), np.empty(6), None, np.empty(6))
    assert buf.sample(6, np.random.default_rng(12), out=out).next_states is None
    assert np.array_equal(out.states, batch.states)


def test_mixed_buffer_samples_terminal_next_states_as_zeros():
    buf = ReplayBuffer(capacity=4)
    data = np.random.default_rng(13)
    stored = []
    for i in range(7):  # wraps: push 5 (terminal) overwrites push 1's row
        done = i in (0, 3, 5)
        s2 = data.standard_normal(3)
        buf.push(data.standard_normal(3), [0.0], float(i), s2, done)
        stored.append(np.zeros(3) if done else s2)
    batch = buf.sample(64, np.random.default_rng(14))
    assert set(batch.rewards) == {3.0, 4.0, 5.0, 6.0}
    for reward, done, s2 in zip(batch.rewards, batch.dones, batch.next_states):
        assert done == (reward in (3.0, 5.0))
        assert np.array_equal(s2, stored[int(reward)])


def test_replay_rejects_shape_drift():
    buf = ReplayBuffer(capacity=4)
    buf.push([1.0, 2.0], [0.0], 0.0, [1.0, 2.0], False)
    with pytest.raises(ValueError):
        buf.push([1.0], [0.0], 0.0, [1.0], False)


def test_replay_rejects_empty_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
