import json
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import learn
from qoesim.errors import ShapeMismatch


def tiny_net():
    """2-in, one hidden pair, 2 branches x 2 actions, documented weights."""
    net = learn.BdqNetwork(2, (2,), 2, 2, rng=None)
    net.trunk_w[0] = np.array([[1.0, 0.0], [0.0, 1.0]])
    net.trunk_b[0] = np.array([0.1, -0.2])
    net.value_w = np.array([[0.5], [1.0]])
    net.value_b = np.array([0.25])
    net.adv_w[0] = np.array([[1.0, -1.0], [0.5, 0.5]])
    net.adv_b[0] = np.array([0.0, 0.1])
    net.adv_w[1] = np.array([[0.2, 0.3], [-0.4, 0.6]])
    net.adv_b[1] = np.array([0.05, -0.05])
    return net


def rand_net(rng, input_dim=3, hidden=(4,), branches=2, actions=3):
    return learn.BdqNetwork(input_dim, hidden, branches, actions, rng=rng)


def rand_batch(rng, net, n=5):
    return learn.Batch(
        states=rng.normal(size=(n, net.input_dim)),
        actions=rng.integers(0, net.actions_per_branch, (n, net.num_branches)),
        rewards=rng.normal(size=n),
        next_states=rng.normal(size=(n, net.input_dim)),
        alive=(rng.random(n) >= 0.3).astype(float))


class TestForward:
    def test_zero_network_all_zero(self):
        net = learn.BdqNetwork(4, (8, 8), 3, 5, rng=None)
        q = learn.forward(net, np.ones(4))
        assert np.all(q == 0.0)

    def test_dueling_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            net = rand_net(rng)
            s = rng.normal(size=3)
            q = learn.forward(net, s)
            h = learn._trunk_forward(net, s[None, :])[-1]
            v = (h @ net.value_w + net.value_b)[0, 0]
            assert np.allclose(q.mean(axis=1), v, atol=1e-9)

    def test_golden_tiny_net(self):
        # state (1, 0): h = relu([1.1, -0.2]) = [1.1, 0]; V = 0.55 + 0.25 = 0.8
        # branch 0 adv = [1.1, -1.0], mean 0.05 -> Q = [1.85, -0.25]
        # branch 1 adv = [0.27, 0.28], mean 0.275 -> Q = [0.795, 0.805]
        q = learn.forward(tiny_net(), np.array([1.0, 0.0]))
        assert np.allclose(q[0], [1.85, -0.25], atol=1e-12)
        assert np.allclose(q[1], [0.795, 0.805], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            learn.forward(tiny_net(), np.zeros(3))

    def test_argmax_invariant_to_advantage_shift(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            net = rand_net(rng)
            s = rng.normal(size=3)
            base = learn.greedy_actions(net, s)
            d = int(rng.integers(0, net.num_branches))
            net.adv_b[d] += 3.7  # constant shift of one branch's advantages
            assert np.array_equal(learn.greedy_actions(net, s), base)


class TestBackward:
    def test_zero_lr_no_change(self):
        rng = np.random.default_rng(2)
        net = rand_net(rng)
        before = [p.copy() for p in net.params()]
        learn.backward(net, rand_batch(rng, net), net.copy(), 0.9, lr=0.0,
                       ws=learn.Workspace(net, 5))
        for b, a in zip(before, net.params()):
            assert np.array_equal(b, a)

    def test_gamma_zero_loss_closed_form(self):
        rng = np.random.default_rng(3)
        net = rand_net(rng)
        batch = learn.Batch(rng.normal(size=(1, 3)), np.array([[1, 2]]),
                            np.array([0.7]), rng.normal(size=(1, 3)), np.ones(1))
        q = learn.forward(net, batch.states[0])
        expected = np.mean([(q[0, 1] - 0.7) ** 2, (q[1, 2] - 0.7) ** 2])
        loss = learn.backward(net, batch, net.copy(), 0.0, lr=0.0,
                              ws=learn.Workspace(net, 1))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_check_central_differences(self):
        # analytic gradients vs central finite differences across 100 seeds
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            net = rand_net(rng)
            batch = rand_batch(rng, net, n=4)
            ws = learn.Workspace(net, 4)
            targets = learn.td_targets(net.copy(), batch, 0.9, ws)
            _, grads = learn.loss_and_gradients(net, batch, targets, ws)
            flat_grads = np.concatenate([
                *(g.ravel() for g in grads["trunk_w"]),
                *(g.ravel() for g in grads["trunk_b"]),
                grads["value_w"].ravel(), grads["value_b"].ravel(),
                *(g.ravel() for g in grads["adv_w"]),
                *(g.ravel() for g in grads["adv_b"])])
            params = net.params()
            fd = []
            eps = 1e-6
            for p in params:
                flat = p.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = learn.loss_and_gradients(net, batch, targets, ws)[0]
                    flat[i] = orig - eps
                    dn = learn.loss_and_gradients(net, batch, targets, ws)[0]
                    flat[i] = orig
                    fd.append((up - dn) / (2 * eps))
            fd = np.array(fd)
            rel = np.abs(fd - flat_grads) / np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_loss_nonincreasing_on_fixed_batch(self):
        rng = np.random.default_rng(5)
        net = rand_net(rng)
        target = net.copy()
        batch = rand_batch(rng, net, n=8)
        ws = learn.Workspace(net, 8)
        losses = [learn.backward(net, batch, target, 0.9, lr=1e-3, ws=ws)
                  for _ in range(50)]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9

    def test_empty_batch(self):
        net = tiny_net()
        empty = learn.Batch(np.empty((0, 2)), np.empty((0, 2), dtype=int),
                            np.empty(0), np.empty((0, 2)), np.empty(0))
        ws = learn.Workspace(net, 0)
        with pytest.raises(ShapeMismatch, match="empty batch"):
            learn.backward(net, empty, net.copy(), 0.9, 0.1, ws)
        with pytest.raises(ShapeMismatch, match="empty batch"):
            learn.loss_and_gradients(net, empty, np.empty(0), ws)

    def test_state_width_rejected(self):
        rng = np.random.default_rng(7)
        net = rand_net(rng)
        batch = rand_batch(rng, net, n=3)
        wide = batch._replace(states=rng.normal(size=(3, net.input_dim + 1)))
        with pytest.raises(ShapeMismatch, match="state dim"):
            learn.loss_and_gradients(net, wide, np.zeros(3), learn.Workspace(net, 3))

    def test_workspace_of_another_batch_size_rejected(self):
        rng = np.random.default_rng(8)
        net = rand_net(rng)
        batch = rand_batch(rng, net, n=5)
        with pytest.raises(ShapeMismatch, match="batch of 5 rows, workspace of 4"):
            learn.backward(net, batch, net.copy(), 0.9, 0.1, learn.Workspace(net, 4))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_action_rejected(self, bad):
        # a negative index would wrap to the last action and mislead the gradient
        rng = np.random.default_rng(6)
        net = rand_net(rng)
        batch = rand_batch(rng, net, n=3)
        batch.actions[1, 0] = bad
        with pytest.raises(ShapeMismatch):
            learn.loss_and_gradients(net, batch, np.zeros(3), learn.Workspace(net, 3))


class BanditEnv:
    """2-branch contextual bandit with a known best joint action."""

    state_dim = 2
    num_branches = 2
    actions_per_branch = 3
    OPTIMA = {0: (2, 0), 1: (0, 1)}

    def __init__(self, rng):
        self.rng = rng
        self.ctx = 0

    def reset(self):
        self.ctx = int(self.rng.integers(0, 2))
        return np.eye(2)[self.ctx]

    def step(self, actions):
        opt = self.OPTIMA[self.ctx]
        reward = 0.5 * (actions[0] == opt[0]) + 0.5 * (actions[1] == opt[1])
        return np.eye(2)[self.ctx], reward, True


def bandit_hp(**over):
    base = dict(episodes=500, max_steps=1, lr=0.01, gamma=0.0,
                eps_start=1.0, eps_end=0.02, eps_decay_steps=350,
                batch_size=32, replay_capacity=2000, target_sync=50)
    base.update(over)
    return learn.Hyperparams(**base)


def train(env, hp, rng, hidden=(16,), loop=learn.train_episodes):
    """A net of the env's shape drawn from `rng`, then trained by `loop`
    with `rng`; returns the net and its reward curve."""
    net = learn.BdqNetwork(env.state_dim, hidden, env.num_branches,
                           env.actions_per_branch, rng=rng)
    return net, loop(env, net, hp, rng)


class TestTraining:
    def test_bandit_reaches_optimal_policy(self):
        rng = np.random.default_rng(42)
        net, _ = train(BanditEnv(rng), bandit_hp(), rng)
        hits = 0
        for ctx in (0, 1):
            for _ in range(50):
                actions = learn.greedy_actions(net, np.eye(2)[ctx])
                hits += tuple(actions) == BanditEnv.OPTIMA[ctx]
        assert hits / 100 >= 0.95

    def test_pure_exploration_flat_curve(self):
        rng = np.random.default_rng(43)
        _, curve = train(BanditEnv(rng), bandit_hp(eps_end=1.0), rng)
        first, second = np.mean(curve[:250]), np.mean(curve[250:])
        assert abs(first - second) < 0.1

    def test_deterministic_given_seed(self):
        c1 = train(BanditEnv(np.random.default_rng(9)), bandit_hp(episodes=100),
                   np.random.default_rng(9))[1]
        c2 = train(BanditEnv(np.random.default_rng(9)), bandit_hp(episodes=100),
                   np.random.default_rng(9))[1]
        assert c1 == c2


class NoiseEnv:
    """Random states and rewards at the per-user BDQ's size (16 users)."""

    state_dim = 128
    num_branches = 32
    actions_per_branch = 11

    def __init__(self, rng):
        self.rng = rng

    def reset(self):
        return self.rng.normal(size=self.state_dim)

    def step(self, actions):
        return self.reset(), float(self.rng.normal()), False


class TestUpdateWorkspace:
    def test_warm_update_allocates_less_than_one_advantage_array(self, monkeypatch):
        # a cold update would hold its gradients and g_a, over 1 MB here
        hp = bandit_hp(episodes=1, max_steps=72, gamma=0.9, batch_size=64,
                       target_sync=4)
        env = NoiseEnv(np.random.default_rng(4))
        peaks = []
        backward = learn.backward

        def traced(*args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loss = backward(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return loss

        monkeypatch.setattr(learn, "backward", traced)
        tracemalloc.start()
        try:
            train(env, hp, np.random.default_rng(4), hidden=(64, 64, 64))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 9
        one_advantage_array = env.num_branches * hp.batch_size * env.actions_per_branch * 8
        assert max(peaks[1:]) < one_advantage_array

    def test_training_matches_the_reference_update(self, monkeypatch):
        # the training loop's shared workspace against the allocating reference
        hp = bandit_hp(episodes=1, max_steps=40, gamma=0.9, batch_size=16,
                       target_sync=5)
        monkeypatch.setattr(NoiseEnv, "state_dim", 12)
        monkeypatch.setattr(NoiseEnv, "num_branches", 9)
        nets = []
        for update in (learn.backward, ref_backward):
            monkeypatch.setattr(learn, "backward", update)
            nets.append(train(NoiseEnv(np.random.default_rng(6)), hp,
                              np.random.default_rng(6), hidden=(24, 16))[0])
        for p, r in zip(*(net.params() for net in nets)):
            assert_same_bits(p, r)


# -- the list-of-transitions replay buffer the column buffer replaced --------


class Transition(NamedTuple):
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    terminal: bool


class ListReplayBuffer:
    """One object per transition; every sample restacks the batch."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.pos = 0

    def push(self, state, action, reward, next_state, terminal):
        tr = Transition(np.asarray(state, dtype=float), action.copy(),
                        float(reward), np.asarray(next_state, dtype=float),
                        bool(terminal))
        if len(self.items) < self.capacity:
            self.items.append(tr)
        else:
            self.items[self.pos] = tr
        self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.items), batch_size)
        picked = [self.items[i] for i in idx]
        return learn.Batch(np.stack([tr.state for tr in picked]),
                           np.stack([tr.action for tr in picked]),
                           np.array([tr.reward for tr in picked]),
                           np.stack([tr.next_state for tr in picked]),
                           np.array([0.0 if tr.terminal else 1.0 for tr in picked]))


def list_buffer_train_episodes(env, net, hp, rng):
    """`learn.train_episodes` on a `ListReplayBuffer` of `hp.replay_capacity`."""
    target = net.copy()
    ws = learn.Workspace(net, hp.batch_size)
    buffer = ListReplayBuffer(hp.replay_capacity)
    curve = []
    step_count = 0
    for _ in range(hp.episodes):
        state = np.asarray(env.reset(), dtype=float)
        ep_rewards = []
        for _ in range(hp.max_steps):
            frac = min(step_count / hp.eps_decay_steps, 1.0)
            eps = hp.eps_start + (hp.eps_end - hp.eps_start) * frac
            explore = rng.random(net.num_branches) < eps
            random_actions = rng.integers(0, net.actions_per_branch,
                                          net.num_branches)
            actions = np.where(explore, random_actions,
                               learn.greedy_actions(net, state))
            next_state, reward, done = env.step(actions)
            buffer.push(state, actions, reward, next_state, done)
            ep_rewards.append(float(reward))
            state = np.asarray(next_state, dtype=float)
            step_count += 1
            if len(buffer.items) >= hp.batch_size:
                learn.backward(net, buffer.sample(hp.batch_size, rng), target,
                               hp.gamma, hp.lr, ws)
                if step_count % hp.target_sync == 0:
                    target.sync_from(net)
            if done:
                break
        curve.append(float(np.mean(ep_rewards)))
    return curve


class StickyBanditEnv(BanditEnv):
    """`BanditEnv` whose episodes run on: a step ends one with chance 0.3."""

    def step(self, actions):
        state, reward, _ = super().step(actions)
        return state, reward, bool(self.rng.random() < 0.3)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestReplayMatchesListBuffer:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 12), extra=st.integers(1, 30),
           state_dim=st.integers(1, 4), branches=st.integers(1, 3),
           batch_size=st.integers(1, 16), seed=st.integers(0, 2**16))
    def test_sampled_columns_bit_identical(self, capacity, extra, state_dim,
                                           branches, batch_size, seed):
        # more pushes than rows: the ring wraps, and is sampled throughout
        rng = np.random.default_rng(seed)
        cols = learn.ReplayBuffer(capacity, state_dim, branches)
        ref = ListReplayBuffer(capacity)
        col_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(capacity + extra):
            row = (rng.normal(size=state_dim), rng.integers(0, 5, branches),
                   rng.normal(), rng.normal(size=state_dim), rng.random() < 0.3)
            cols.push(*row)
            ref.push(*row)
            assert cols.size == len(ref.items)
            for got, want in zip(cols.sample(batch_size, col_rng),
                                 ref.sample(batch_size, ref_rng)):
                assert_same_bits(got, want)
        assert_same_bits(col_rng.random(4), ref_rng.random(4))

    def test_push_copies_the_callers_arrays(self):
        buf = learn.ReplayBuffer(4, 2, 2)
        state, next_state = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        action = np.array([0, 1])
        buf.push(state, action, 0.5, next_state, False)
        state[:], action[:], next_state[:] = -1.0, 2, -1.0
        got = buf.sample(3, np.random.default_rng(0))
        assert np.array_equal(got.states, [[1.0, 2.0]] * 3)
        assert np.array_equal(got.actions, [[0, 1]] * 3)
        assert np.array_equal(got.next_states, [[3.0, 4.0]] * 3)
        assert np.array_equal(got.rewards, [0.5] * 3)
        assert np.array_equal(got.alive, [1.0] * 3)

    @pytest.mark.parametrize("env_cls,gamma", [(BanditEnv, 0.0),
                                               (StickyBanditEnv, 0.9)])
    @pytest.mark.parametrize("capacity", [40, 10_000])
    def test_training_bit_identical(self, env_cls, gamma, capacity):
        # 40 rows wrap the ring; 10,000 is cut to the 120-episode run's pushes
        hp = bandit_hp(episodes=120, max_steps=4, batch_size=16, gamma=gamma,
                       eps_decay_steps=200, replay_capacity=capacity,
                       target_sync=10)
        (net, curve), (ref_net, ref_curve) = [
            train(env_cls(np.random.default_rng(5)), hp, np.random.default_rng(5),
                  loop=loop)
            for loop in (learn.train_episodes, list_buffer_train_episodes)]
        assert curve == ref_curve
        for p, r in zip(net.params(), ref_net.params()):
            assert_same_bits(p, r)


# -- per-branch reference for the stacked advantage heads --------------------


def ref_forward_batch(net, states):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    h = learn._trunk_forward(net, states)[-1]
    v = h @ net.value_w + net.value_b
    q = np.empty((states.shape[0], net.num_branches, net.actions_per_branch))
    for d in range(net.num_branches):
        a = h @ net.adv_w[d] + net.adv_b[d]
        q[:, d, :] = v + a - a.mean(axis=1, keepdims=True)
    return q


def ref_td_targets(target_net, batch, gamma):
    q_next = ref_forward_batch(target_net, batch.next_states)
    bootstrap = q_next.max(axis=2).mean(axis=1)
    return batch.rewards + gamma * batch.alive * bootstrap


def ref_loss_and_gradients(net, batch, targets):
    states, actions = batch.states, batch.actions
    n = len(states)
    acts = learn._trunk_forward(net, states)
    h = acts[-1]
    v = h @ net.value_w + net.value_b
    d_count, a_count = net.num_branches, net.actions_per_branch
    rows = np.arange(n)
    q_sel = np.empty((n, d_count))
    for d in range(d_count):
        a = h @ net.adv_w[d] + net.adv_b[d]
        q_sel[:, d] = (v[:, 0] + a[rows, actions[:, d]] - a.mean(axis=1))
    td = q_sel - targets[:, None]
    loss = float((td * td).mean())
    g_q = 2.0 * td / (n * d_count)
    grads = {"trunk_w": [np.zeros_like(w) for w in net.trunk_w],
             "trunk_b": [np.zeros_like(b) for b in net.trunk_b],
             "adv_w": [np.zeros_like(w) for w in net.adv_w],
             "adv_b": [np.zeros_like(b) for b in net.adv_b]}
    dh = np.zeros_like(h)
    g_v = g_q.sum(axis=1, keepdims=True)
    grads["value_w"] = h.T @ g_v
    grads["value_b"] = g_v.sum(axis=0)
    dh += g_v @ net.value_w.T
    for d in range(d_count):
        g_a = np.full((n, a_count), -1.0 / a_count) * g_q[:, d:d + 1]
        g_a[rows, actions[:, d]] += g_q[:, d]
        grads["adv_w"][d][...] = h.T @ g_a
        grads["adv_b"][d][...] = g_a.sum(axis=0)
        dh += g_a @ net.adv_w[d].T
    for layer in reversed(range(len(net.trunk_w))):
        dz = dh * (acts[layer + 1] > 0.0)
        grads["trunk_w"][layer][...] = acts[layer].T @ dz
        grads["trunk_b"][layer][...] = dz.sum(axis=0)
        dh = dz @ net.trunk_w[layer].T
    return loss, grads


def ref_backward(net, batch, target_net, gamma, lr, ws=None):
    """`learn.backward` with per-branch arithmetic; it allocates its own
    arrays, so it ignores the workspace."""
    loss, grads = ref_loss_and_gradients(net, batch,
                                         ref_td_targets(target_net, batch, gamma))
    for w, g in zip(net.trunk_w, grads["trunk_w"]):
        w -= lr * g
    for b, g in zip(net.trunk_b, grads["trunk_b"]):
        b -= lr * g
    net.value_w -= lr * grads["value_w"]
    net.value_b -= lr * grads["value_b"]
    for w, g in zip(net.adv_w, grads["adv_w"]):
        w -= lr * g
    for b, g in zip(net.adv_b, grads["adv_b"]):
        b -= lr * g
    return loss


def _flat(grads):
    return [*grads["trunk_w"], *grads["trunk_b"], grads["value_w"],
            grads["value_b"], *grads["adv_w"], *grads["adv_b"]]


class TestStackedHeadsMatchReference:
    @settings(max_examples=40, deadline=None)
    @given(branches=st.integers(1, 32), actions=st.integers(2, 11),
           n=st.one_of(st.just(1), st.integers(2, 64)),
           hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3),
           input_dim=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_bit_identical(self, branches, actions, n, hidden, input_dim, seed):
        rng = np.random.default_rng(seed)
        net = rand_net(rng, input_dim, tuple(hidden), branches, actions)
        batch = rand_batch(rng, net, n=n)
        states = batch.states

        q = learn.forward_batch(net, states)
        assert q.flags.c_contiguous
        assert np.array_equal(q, ref_forward_batch(net, states))
        for s in states:
            assert np.array_equal(learn.greedy_actions(net, s),
                                  ref_forward_batch(net, s).argmax(axis=2)[0])

        ws = learn.Workspace(net, n)
        targets = learn.td_targets(net, batch, 0.9, ws)
        assert np.array_equal(targets, ref_td_targets(net, batch, 0.9))
        loss, grads = learn.loss_and_gradients(net, batch, targets, ws)
        ref_loss, ref_grads = ref_loss_and_gradients(net, batch, targets)
        assert loss == ref_loss
        got, want = _flat(grads), _flat(ref_grads)
        assert grads["adv_w"].shape == net.adv_w.shape
        assert np.array_equal(np.concatenate([g.ravel() for g in got]),
                              np.concatenate([g.ravel() for g in want]))

        # SGD steps with a target sync part way through
        nets = [net, net.copy()]
        targets_nets = [net.copy(), net.copy()]
        for step in range(6):
            sample = rand_batch(rng, net, n=n)
            losses = [fn(nt, sample, tg, 0.9, 0.01, ws) for fn, nt, tg in
                      zip((learn.backward, ref_backward), nets, targets_nets)]
            assert losses[0] == losses[1]
            if step == 2:
                for nt, tg in zip(nets, targets_nets):
                    tg.sync_from(nt)
        for p, r in zip(nets[0].params(), nets[1].params()):
            assert np.array_equal(p, r)


MISSING = object()  # a manifest key the checkpoint lacks


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        net = rand_net(rng, input_dim=5, hidden=(8, 6), branches=3, actions=4)
        path = str(tmp_path / "policy.json")
        learn.save_network(net, path)
        loaded = learn.load_network(path)
        s = rng.normal(size=5)
        assert np.array_equal(learn.forward(net, s), learn.forward(loaded, s))

    def test_heads_saved_per_branch(self, tmp_path):
        rng = np.random.default_rng(13)
        net = rand_net(rng, input_dim=4, hidden=(5,), branches=6, actions=11)
        path = tmp_path / "policy.json"
        learn.save_network(net, str(path))
        doc = json.loads(path.read_text())
        assert [o["shape"] for o in doc["adv_w"]] == [[5, 11]] * 6
        assert [o["shape"] for o in doc["adv_b"]] == [[11]] * 6
        loaded = learn.load_network(str(path))
        assert loaded.adv_w.shape == (6, 5, 11) and loaded.adv_b.shape == (6, 11)
        for p, q in zip(net.params(), loaded.params()):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("field,index,tamper", [
        ("input_dim", None, 4),
        ("hidden", None, [8, 7]),
        ("num_branches", None, 4),
        ("actions_per_branch", None, 5),
        ("adv_w", 1, [4, 6]),
        ("trunk_b", 0, [9]),
        ("hidden", None, MISSING),
    ])
    def test_tampered_checkpoint_names_the_field(self, tmp_path, field, index, tamper):
        rng = np.random.default_rng(14)
        net = rand_net(rng, input_dim=5, hidden=(8, 6), branches=3, actions=4)
        path = tmp_path / "policy.json"
        learn.save_network(net, str(path))
        doc = json.loads(path.read_text())
        if tamper is MISSING:
            del doc[field]
            named = repr(field)
        elif index is None:
            doc[field] = tamper  # the manifest no longer matches the arrays
            named = "trunk_w" if field in ("input_dim", "hidden") else "adv_w"
        else:
            doc[field][index]["shape"] = tamper
            named = f"{field}[{index}]"
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatch, match=re.escape(named)):
            learn.load_network(str(path))

    def test_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(12)
        net = rand_net(rng)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        learn.save_network(net, p1)
        learn.save_network(net, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
