"""The arena learning core against the per-layer reference in oracles.

The arena layout, the in-place Adam, the one-sided backward, the SAC
bandit skip and the reusable work buffers keep every per-element float
operation of the per-layer code, in the same order, so every comparison
here is exact.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smartran.learning import adam
from smartran.learning import (
    ReplayBuffer,
    SacWork,
    TransitionBatch,
    adam_init,
    adam_step,
    apply_gradients,
    make_sac_agent,
    mlp_forward_cached,
    mlp_gradient,
    mlp_init,
    polyak_update,
    sac_update,
)

SETTINGS = settings(max_examples=30, deadline=None)

# small widths find edge cases; up to 70 reaches the blocked BLAS paths
# that the engine's 64-wide layers and batches of 64 take
width = st.one_of(st.integers(1, 7), st.integers(8, 70))
layer_sizes = st.lists(width, min_size=2, max_size=4).map(tuple)


@SETTINGS
@given(
    sizes=layer_sizes,
    batch=width,
    activation=st.sampled_from(["tanh", "relu"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mlp_gradient_matches_reference_in_every_mode(sizes, batch, activation, seed):
    rng = np.random.default_rng(seed)
    net = mlp_init(sizes, rng, activation=activation)
    x = rng.standard_normal((batch, sizes[0]))
    g = rng.standard_normal((batch, sizes[-1]))
    ref = oracles.SeedNet(net)
    _, inputs, preacts = oracles.seed_forward_cached(ref, x)
    want_grads, want_in = oracles.seed_mlp_gradient(ref, g, inputs, preacts)

    _, cache = mlp_forward_cached(net, x)
    grads, grad_in = mlp_gradient(net, g, cache)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(grad_in, want_in)

    flat, none_in = mlp_gradient(net, g, cache, params="flat", input_grad=False)
    assert none_in is None
    assert np.array_equal(flat, np.concatenate([w.ravel() for w in want_grads]))

    none_grads, only_in = mlp_gradient(net, g, cache, params=None)
    assert none_grads is None
    assert np.array_equal(only_in, want_in)


def test_mlp_gradient_rejects_unknown_params_mode():
    net = mlp_init((2, 3, 1), np.random.default_rng(0))
    _, cache = mlp_forward_cached(net, np.ones(2))
    with pytest.raises(ValueError, match="params"):
        mlp_gradient(net, np.ones(1), cache, params="list")


@SETTINGS
@given(
    sizes=layer_sizes,
    steps=st.integers(1, 4),
    block=st.sampled_from([1, 7, 64, adam._BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_arena_adam_matches_per_layer_adam(sizes, steps, block, seed):
    rng = np.random.default_rng(seed)
    net = mlp_init(sizes, rng)
    ref = oracles.SeedNet(net)
    opt = adam_init(net.flat, lr=1e-2)
    ref_opt = oracles.SeedAdam(ref.params(), lr=1e-2)
    for _ in range(steps):
        layer_grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-3, 3) for p in ref.params()]
        with mock.patch.object(adam, "_BLOCK", block):  # block edges anywhere
            apply_gradients(net, opt, np.concatenate([g.ravel() for g in layer_grads]))
        oracles.seed_adam_step(ref_opt, ref.params(), layer_grads)
    assert opt.step == ref_opt.step == steps
    assert np.array_equal(net.flat, ref.flat())
    for got, want in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
        assert np.array_equal(got, np.concatenate([w.ravel() for w in want]))


@SETTINGS
@given(
    sizes=layer_sizes,
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_rejects_one_nonfinite_entry_anywhere_in_an_arena(sizes, bad, seed):
    rng = np.random.default_rng(seed)
    net = mlp_init(sizes, rng)
    opt = adam_init(net.flat, lr=1e-2)
    apply_gradients(net, opt, rng.standard_normal(net.flat.size))
    before = (net.flat.copy(), opt.m.copy(), opt.v.copy(), opt.step, net.version)
    grad = rng.standard_normal(net.flat.size)
    grad[int(rng.integers(0, grad.size))] = bad
    with pytest.raises(ValueError, match="non-finite"):
        apply_gradients(net, opt, grad)
    assert np.array_equal(net.flat, before[0])
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
    assert (opt.step, net.version) == before[3:]


def test_adam_accepts_finite_gradients_whose_sum_overflows():
    p = np.zeros(2)
    opt = adam_init(p, lr=0.1)
    with np.errstate(over="ignore"):  # g * g overflows, as it always did
        adam_step(opt, p, np.array([1e308, 1e308]))
    assert opt.step == 1 and np.all(np.isfinite(p))


def _batch(rng, n, state_dim, action_dim, dones):
    return TransitionBatch(
        states=rng.standard_normal((n, state_dim)),
        actions=rng.uniform(-1.0, 1.0, (n, action_dim)),
        rewards=rng.standard_normal(n),
        next_states=rng.standard_normal((n, state_dim)),
        dones=dones,
    )


@SETTINGS
@given(
    state_dim=width,
    action_dim=st.integers(1, 3) | st.integers(4, 40),
    hidden=st.lists(width, min_size=1, max_size=2).map(tuple),
    n=width,
    gamma=st.sampled_from([0.0, 0.99]),
    done_mix=st.sampled_from(["all", "none", "mixed"]),
    auto_alpha=st.booleans(),
    updates=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sac_update_matches_reference_bit_for_bit(
    state_dim, action_dim, hidden, n, gamma, done_mix, auto_alpha, updates, seed
):
    lr = 3e-3
    agent = make_sac_agent(
        state_dim, action_dim, np.random.default_rng(seed), hidden_sizes=hidden,
        lr=lr, gamma=gamma, auto_alpha=auto_alpha,
    )
    ref = oracles.SeedSac(agent, lr)
    data = np.random.default_rng(seed + 1)
    rng = np.random.default_rng(seed + 2)
    ref_rng = np.random.default_rng(seed + 2)
    for _ in range(updates):
        if done_mix == "mixed":
            dones = (data.random(n) < 0.5).astype(np.float64)
        else:
            dones = np.full(n, 1.0 if done_mix == "all" else 0.0)
        batch = _batch(data, n, state_dim, action_dim, dones)
        losses = sac_update(agent, batch, rng)
        want = oracles.seed_sac_update(ref, batch, ref_rng)
        assert (losses.critic1, losses.critic2, losses.actor, losses.temperature) == want

    _assert_nets_match_reference(agent, ref)
    for name in ("actor_opt", "critic1_opt", "critic2_opt"):
        got, want = getattr(agent, name), getattr(ref, name)
        assert got.step == want.step
        assert np.array_equal(got.m, np.concatenate([m.ravel() for m in want.m]))
        assert np.array_equal(got.v, np.concatenate([v.ravel() for v in want.v]))
    assert np.array_equal(agent.log_alpha, ref.log_alpha)
    assert np.array_equal(agent.alpha_opt.m, ref.alpha_opt.m[0])
    assert np.array_equal(agent.alpha_opt.v, ref.alpha_opt.v[0])
    assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))


def _assert_nets_match_reference(agent, ref):
    # a gamma = 0 agent has no targets, and neither has its reference
    assert (agent.target1 is None) == (agent.gamma == 0)
    for name in oracles.SeedSac.NETS:
        got, want = getattr(agent, name), getattr(ref, name)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.flat, want.flat())


def _make_sac(gamma, seed):
    return make_sac_agent(
        5, 3, np.random.default_rng(seed), hidden_sizes=(16, 16), lr=3e-3, gamma=gamma
    )


def test_bandit_skip_equals_the_full_target_path():
    # gamma = 0 with terminal rows takes the skip; a discount of 1e-300
    # on continuing rows takes the full path, yet rounds every target
    # back to the reward, so both must land on the same bits. The
    # skipping agent has no targets: reading one would raise.
    fast, full = _make_sac(0.0, 7), _make_sac(1e-300, 7)
    nets = [n for n, v in vars(full).items() if hasattr(v, "flat")]
    targets = [n for n in nets if "target" in n]
    assert targets and len(targets) < len(nets)
    assert all(getattr(fast, name) is None for name in targets)
    data = np.random.default_rng(8)
    rng_fast, rng_full = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        batch = _batch(data, 16, 5, 3, np.ones(16))
        continuing = TransitionBatch(
            batch.states, batch.actions, batch.rewards, batch.next_states, np.zeros(16)
        )
        assert sac_update(fast, batch, rng_fast) == sac_update(full, continuing, rng_full)
    for name in nets:
        if name not in targets:
            assert np.array_equal(getattr(fast, name).flat, getattr(full, name).flat)
    assert np.array_equal(rng_fast.standard_normal(4), rng_full.standard_normal(4))


@SETTINGS
@given(
    state_dim=width,
    action_dim=st.integers(1, 3) | st.integers(4, 40),
    hidden=st.lists(width, min_size=1, max_size=2).map(tuple),
    n=width,
    gamma=st.sampled_from([0.0, 0.99]),
    done_mix=st.sampled_from(["all", "none", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_agents_sharing_one_work_match_fresh_work_and_reference(
    state_dim, action_dim, hidden, n, gamma, done_mix, seed
):
    # two same-shape agents updated in turn through one SacWork, as the
    # engine updates its site agents, sampling into the work's batch
    lr = 3e-3

    def agent(i):
        return make_sac_agent(
            state_dim, action_dim, np.random.default_rng(seed + i), hidden_sizes=hidden,
            lr=lr, gamma=gamma, buffer_capacity=2 * n,
        )

    shared, fresh = [agent(0), agent(1)], [agent(0), agent(1)]
    refs = [oracles.SeedSac(a, lr) for a in fresh]
    ref_buffers = [ReplayBuffer(2 * n), ReplayBuffer(2 * n)]
    rngs = {k: [np.random.default_rng(seed + 10 + i) for i in range(2)] for k in ("s", "f", "r")}
    data = np.random.default_rng(seed + 20)
    work = SacWork(shared[0], n)
    for _ in range(3):
        for i in range(2):
            if done_mix == "mixed":
                dones = (data.random(n) < 0.5).astype(np.float64)
            else:
                dones = np.full(n, 1.0 if done_mix == "all" else 0.0)
            rows = _batch(data, n, state_dim, action_dim, dones)
            transitions = list(
                zip(rows.states, rows.actions, rows.rewards, rows.next_states, rows.dones)
            )
            for buf in (shared[i].buffer, fresh[i].buffer, ref_buffers[i]):
                for transition in transitions:
                    buf.push(*transition)
            rs, rf, rr = (rngs[k][i] for k in ("s", "f", "r"))
            got = sac_update(shared[i], shared[i].buffer.sample(n, rs, out=work.batch), rs, work)
            alone = sac_update(fresh[i], fresh[i].buffer.sample(n, rf), rf)
            want = oracles.seed_sac_update(refs[i], ref_buffers[i].sample(n, rr), rr)
            assert got == alone
            assert (got.critic1, got.critic2, got.actor, got.temperature) == want

    for i in range(2):
        s, f, r = shared[i], fresh[i], refs[i]
        _assert_nets_match_reference(s, r)
        for name in oracles.SeedSac.NETS:
            if getattr(s, name) is not None:
                assert np.array_equal(getattr(s, name).flat, getattr(f, name).flat)
        for name in ("actor_opt", "critic1_opt", "critic2_opt", "alpha_opt"):
            for moments in ("m", "v"):
                got = getattr(getattr(s, name), moments)
                assert np.array_equal(got, getattr(getattr(f, name), moments))
                want = getattr(getattr(r, name), moments)
                assert np.array_equal(got, np.concatenate([w.ravel() for w in want]))
        assert np.array_equal(s.log_alpha, f.log_alpha) and np.array_equal(s.log_alpha, r.log_alpha)
        draws = [rngs[k][i].standard_normal(4) for k in ("s", "f", "r")]
        assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])


def test_sac_update_rejects_work_of_another_shape():
    agent = make_sac_agent(3, 2, np.random.default_rng(0), hidden_sizes=(4,))
    batch = _batch(np.random.default_rng(1), 5, 3, 2, np.ones(5))
    with pytest.raises(ValueError, match="work buffers"):
        sac_update(agent, batch, np.random.default_rng(2), SacWork(agent, 6))
    wider = make_sac_agent(3, 2, np.random.default_rng(0), hidden_sizes=(5,))
    with pytest.raises(ValueError, match="work buffers"):
        sac_update(agent, batch, np.random.default_rng(2), SacWork(wider, 5))
    # a zero-discount agent's work has no next-state rows to sample into
    bandit = make_sac_agent(3, 2, np.random.default_rng(0), hidden_sizes=(4,), gamma=0.0)
    assert SacWork(bandit, 5).batch.next_states is None
    with pytest.raises(ValueError, match="work buffers"):
        sac_update(agent, batch, np.random.default_rng(2), SacWork(bandit, 5))


@pytest.mark.parametrize("offset", [-1, 0, 1, adam._BLOCK + 1])
def test_blockwise_polyak_matches_reference_around_the_block_size(offset):
    # a (k, 1) network has k + 1 parameters: arenas one short of, equal
    # to, one past and one past two blocks
    sizes = (adam._BLOCK + offset - 1, 1)
    rng = np.random.default_rng(offset + 5)
    online, target = mlp_init(sizes, rng), mlp_init(sizes, rng)
    online.flat[...] = rng.standard_normal(online.flat.size)
    ref = oracles.SeedNet(target)
    polyak_update(target, online, 0.005)
    oracles.seed_polyak(ref, oracles.SeedNet(online), 0.005)
    assert np.array_equal(target.flat, ref.flat())


@SETTINGS
@given(
    sizes=layer_sizes,
    rho=st.sampled_from([0.0, 0.005, 0.3, 1.0]),
    block=st.sampled_from([1, 7, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_polyak_matches_reference_at_any_block_edge(sizes, rho, block, seed):
    rng = np.random.default_rng(seed)
    online, target = mlp_init(sizes, rng), mlp_init(sizes, rng)
    ref = oracles.SeedNet(target)
    with mock.patch.object(adam, "_BLOCK", block):
        polyak_update(target, online, rho)
    oracles.seed_polyak(ref, oracles.SeedNet(online), rho)
    assert np.array_equal(target.flat, ref.flat())


def _arena_learner(seed: int, steps: int):
    """Arenas past two blocks and the gradients for `steps` Adam steps and
    Polyak blends: (run, result), where run() steps them on the calling
    thread and result() copies out the parameters, moments and target."""
    rng = np.random.default_rng(seed)
    sizes = (2 * adam._BLOCK + 3, 1)  # 2 * _BLOCK + 4 parameters
    online, target = mlp_init(sizes, rng), mlp_init(sizes, rng)
    opt = adam_init(online.flat, lr=1e-3)
    grads = [rng.standard_normal(online.flat.size) for _ in range(steps)]

    def run():
        for g in grads:
            apply_gradients(online, opt, g)
            polyak_update(target, online, 0.005)

    def result():
        return [online.flat.copy(), opt.m.copy(), opt.v.copy(), target.flat.copy()]

    return run, result


def test_adam_and_polyak_on_concurrent_threads_match_sequential_bits():
    # learners on different threads step at once (the engine's pool and
    # site agents); each thread's block scratch keeps their blocks apart.
    # More threads than cores, switching as often as the interpreter can.
    threads, steps = 4, 6
    sequential = []
    for seed in range(threads):
        run, result = _arena_learner(seed, steps)
        run()
        sequential.append(result())

    learners = [_arena_learner(seed, steps) for seed in range(threads)]
    start = threading.Barrier(threads)
    errors = []

    def work(run):
        try:
            start.wait(timeout=10)
            run()
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(run,)) for run, _ in learners]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    for (_, result), want in zip(learners, sequential):
        for got, ref in zip(result(), want):
            assert np.array_equal(got, ref)
