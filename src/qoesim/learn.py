"""Self-contained neural Q-learning with a branch-dueling head.

A multilayer perceptron trunk feeds one state-value head and one advantage
head per action branch; branch Q-values recombine as

    Q_d(s, a) = V(s) + A_d(s, a) - mean_a' A_d(s, a')

The D advantage heads live in one stacked array: weights `adv_w` of shape
(D, H, A) and biases `adv_b` of shape (D, A), where H is the trunk's top
width and A the actions per branch.  Every head product is one batched
`np.matmul` over the branch axis.  A batched matmul makes one BLAS call of
the same shape per branch, exactly as a loop over `h @ adv_w[d]` would, so
Q-values, losses, gradients and trained parameters are bit-identical to
the per-branch form.  A single 2-D GEMM over the concatenated (H, D*A)
heads is one wider BLAS call that accumulates in another order, and its
results differ in the last bits.  Two summation orders are kept on
purpose: Q arrays are made C-contiguous (n, D, A) before any reduction over
the branch axis, and the trunk's input gradient adds the value-head term
first and then each branch's term in branch order, one in-place add per
branch.  The branch terms are computed `_DH_CHUNK` branches at a time into
one reused block, so the update holds no (D, n, H) array of them.

Training is plain DQN-style TD learning with an experience replay buffer,
a periodically synced target network, epsilon-greedy exploration and
hand-written backpropagation (no autograd dependency).  The replay buffer
holds one array per `Batch` column, and each update samples rows from them;
it is sized to the pushes a run can make, as full-size columns raised a
250-epoch run's peak RSS by over 2%.  Checkpoints keep one entry per branch
for the heads, and loading checks every array's shape against the
checkpoint's own dimensions.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch

_DH_CHUNK = 8  # advantage branches whose input-gradient terms one block holds


class Batch(NamedTuple):
    """One row per transition, one array per column."""
    states: np.ndarray  # (n, input_dim)
    actions: np.ndarray  # (n, num_branches): one action index per branch
    rewards: np.ndarray  # (n,)
    next_states: np.ndarray  # (n, input_dim)
    alive: np.ndarray  # (n,): 0.0 after a terminal step, else 1.0


class BdqNetwork:
    """MLP trunk + dueling value/advantage heads, parameters in plain arrays."""

    def __init__(self, input_dim: int, hidden: tuple[int, ...],
                 num_branches: int, actions_per_branch: int,
                 rng: np.random.Generator | None):
        if num_branches < 1:
            raise ShapeMismatch(f"num_branches {num_branches} must be >= 1")
        self.input_dim = input_dim
        self.hidden = tuple(hidden)
        self.num_branches = num_branches
        self.actions_per_branch = actions_per_branch
        dims = [input_dim, *hidden]
        self.trunk_w = []
        self.trunk_b = []
        for d_in, d_out in zip(dims, dims[1:]):
            self.trunk_w.append(self._init_w(d_in, d_out, rng))
            self.trunk_b.append(np.zeros(d_out))
        top = dims[-1]
        self.value_w = self._init_w(top, 1, rng)
        self.value_b = np.zeros(1)
        # (D, H, A) and (D, A): one draw per branch, in branch order
        self.adv_w = np.array([self._init_w(top, actions_per_branch, rng)
                               for _ in range(num_branches)])
        self.adv_b = np.zeros((num_branches, actions_per_branch))

    @staticmethod
    def _init_w(d_in, d_out, rng):
        """Xavier-uniform weights, or zeros without a generator."""
        if rng is None:
            return np.zeros((d_in, d_out))
        limit = math.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-limit, limit, (d_in, d_out))

    def params(self) -> list[np.ndarray]:
        return [*self.trunk_w, *self.trunk_b, self.value_w, self.value_b,
                self.adv_w, self.adv_b]

    def copy(self) -> "BdqNetwork":
        clone = BdqNetwork(self.input_dim, self.hidden, self.num_branches,
                           self.actions_per_branch, rng=None)
        for dst, src in zip(clone.params(), self.params()):
            dst[...] = src
        return clone

    def sync_from(self, other: "BdqNetwork") -> None:
        for dst, src in zip(self.params(), other.params()):
            dst[...] = src


def _trunk_forward(net: BdqNetwork, states: np.ndarray):
    """Returns hidden activations per layer (post-ReLU), input included."""
    acts = [states]
    h = states
    for w, b in zip(net.trunk_w, net.trunk_b):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    return acts


def _advantages(net: BdqNetwork, h: np.ndarray) -> np.ndarray:
    """Every branch's advantages, shape (D, n, A)."""
    return np.matmul(h, net.adv_w) + net.adv_b[:, None, :]


def forward_batch(net: BdqNetwork, states: np.ndarray) -> np.ndarray:
    """Q-values for a batch: shape (n, num_branches, actions_per_branch)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] != net.input_dim:
        raise ShapeMismatch(f"state dim {states.shape[1]} != {net.input_dim}")
    h = _trunk_forward(net, states)[-1]
    v = h @ net.value_w + net.value_b  # (n, 1)
    a = _advantages(net, h)
    q = v + a - a.mean(axis=2, keepdims=True)
    # C order (n, D, A): a later mean over branches (`td_targets`) sums in
    # the order it would over an array filled branch by branch
    return np.ascontiguousarray(q.transpose(1, 0, 2))


def forward(net: BdqNetwork, state) -> np.ndarray:
    """Per-branch Q-vectors for one state: shape (num_branches, actions)."""
    return forward_batch(net, np.asarray(state, dtype=float)[None, :])[0]


def greedy_actions(net: BdqNetwork, state) -> np.ndarray:
    """Argmax per branch; ties resolve to the lowest index."""
    return forward(net, state).argmax(axis=1)


def td_targets(target_net: BdqNetwork, batch: Batch, gamma: float) -> np.ndarray:
    """r + gamma * mean_d max_a Q_d(s', a) for non-terminal transitions."""
    if not len(batch.rewards):
        raise ShapeMismatch("empty batch")
    q_next = forward_batch(target_net, batch.next_states)
    bootstrap = q_next.max(axis=2).mean(axis=1)
    return batch.rewards + gamma * batch.alive * bootstrap


def loss_and_gradients(net: BdqNetwork, batch: Batch, targets: np.ndarray):
    """Mean (over batch and branches) squared TD error and its gradients.

    Targets are treated as constants, as in standard TD learning.
    """
    states, actions = batch.states, batch.actions
    n = len(states)
    if n == 0:
        raise ShapeMismatch("empty batch")
    if states.shape[1] != net.input_dim:
        raise ShapeMismatch(f"state dim {states.shape[1]} != {net.input_dim}")
    if (actions.shape[1] != net.num_branches or actions.min() < 0
            or actions.max() >= net.actions_per_branch):
        raise ShapeMismatch("action indices incompatible with network branches")

    acts = _trunk_forward(net, states)
    h = acts[-1]
    v = h @ net.value_w + net.value_b  # (n, 1)
    d_count = net.num_branches
    a_count = net.actions_per_branch
    # (D, n) index of each transition's chosen action in every branch
    sel = (np.arange(d_count)[:, None], np.arange(n)[None, :], actions.T)

    a = _advantages(net, h)
    q_sel = np.ascontiguousarray((v[:, 0] + a[sel] - a.mean(axis=2)).T)

    td = q_sel - targets[:, None]
    loss = float((td * td).mean())
    g_q = 2.0 * td / (n * d_count)  # dL/dQ_d(s, a_d)

    grads = {"trunk_w": [np.zeros_like(w) for w in net.trunk_w],
             "trunk_b": [np.zeros_like(b) for b in net.trunk_b]}
    # value head: dQ_d/dv = 1 for every branch
    g_v = g_q.sum(axis=1, keepdims=True)
    grads["value_w"] = h.T @ g_v
    grads["value_b"] = g_v.sum(axis=0)
    # advantage heads: dQ_d/dA_d[j] = 1[j = a_d] - 1/A
    g_a = np.full((d_count, n, a_count), -1.0 / a_count) * g_q.T[:, :, None]
    g_a[sel] += g_q.T
    grads["adv_w"] = np.matmul(h.T, g_a)
    grads["adv_b"] = g_a.sum(axis=1)
    # dh adds the value term, then each branch's term, in branch order; the
    # branch terms come _DH_CHUNK at a time through one reused block
    dh = g_v @ net.value_w.T
    block = np.empty((min(_DH_CHUNK, d_count), *h.shape))
    for c in range(0, d_count, _DH_CHUNK):
        part = block[:min(_DH_CHUNK, d_count - c)]
        np.matmul(g_a[c:c + _DH_CHUNK], net.adv_w[c:c + _DH_CHUNK].transpose(0, 2, 1),
                  out=part)
        for term in part:
            dh += term
    # trunk
    for layer in reversed(range(len(net.trunk_w))):
        mask = acts[layer + 1] > 0.0
        dz = dh * mask
        grads["trunk_w"][layer][...] = acts[layer].T @ dz
        grads["trunk_b"][layer][...] = dz.sum(axis=0)
        if layer:  # the input layer's dh would be the unused d(state)
            dh = dz @ net.trunk_w[layer].T
    return loss, grads


def backward(net: BdqNetwork, batch: Batch, target_net: BdqNetwork,
             gamma: float, lr: float) -> float:
    """One SGD step on the branch-averaged squared TD error; returns the loss."""
    targets = td_targets(target_net, batch, gamma)
    loss, grads = loss_and_gradients(net, batch, targets)
    for w, g in zip(net.trunk_w, grads["trunk_w"]):
        w -= lr * g
    for b, g in zip(net.trunk_b, grads["trunk_b"]):
        b -= lr * g
    net.value_w -= lr * grads["value_w"]
    net.value_b -= lr * grads["value_b"]
    net.adv_w -= lr * grads["adv_w"]
    net.adv_b -= lr * grads["adv_b"]
    return loss


class ReplayBuffer:
    """A ring of transitions held as one array per `Batch` column."""
    def __init__(self, capacity: int, state_dim: int, num_branches: int):
        self.capacity = capacity
        self.cols = Batch(np.empty((capacity, state_dim)),
                          np.empty((capacity, num_branches), dtype=int),
                          np.empty(capacity), np.empty((capacity, state_dim)),
                          np.empty(capacity))
        self.size = self.pos = 0

    def push(self, state, action, reward, next_state, terminal) -> None:
        row = (state, action, reward, next_state, not terminal)
        for col, value in zip(self.cols, row):
            col[self.pos] = value
        self.pos = (self.pos + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        idx = rng.integers(0, self.size, batch_size)
        return Batch(*(col[idx] for col in self.cols))


@dataclass
class Hyperparams:
    episodes: int
    max_steps: int
    hidden: tuple[int, ...]
    lr: float
    gamma: float
    eps_start: float
    eps_end: float
    eps_decay_steps: int  # steps over which epsilon falls to eps_end
    batch_size: int
    replay_capacity: int
    target_sync: int


def train_episodes(env, hp: Hyperparams, rng: np.random.Generator):
    """Epsilon-greedy BDQ training loop; returns (net, per-episode mean reward).

    The env exposes: state_dim, num_branches, actions_per_branch,
    reset() -> state, step(actions) -> (next_state, reward, done).
    """
    net = BdqNetwork(env.state_dim, hp.hidden, env.num_branches,
                     env.actions_per_branch, rng=rng)
    target = net.copy()
    # rows past the pushes would never be written, yet raise the peak RSS
    buffer = ReplayBuffer(min(hp.replay_capacity, hp.episodes * hp.max_steps),
                          env.state_dim, env.num_branches)
    rewards_per_episode = []
    step_count = 0
    for _ in range(hp.episodes):
        state = env.reset()
        ep_rewards = []
        for _ in range(hp.max_steps):
            frac = min(step_count / hp.eps_decay_steps, 1.0)
            eps = hp.eps_start + (hp.eps_end - hp.eps_start) * frac
            explore = rng.random(env.num_branches) < eps
            random_actions = rng.integers(0, env.actions_per_branch,
                                          env.num_branches)
            actions = np.where(explore, random_actions, greedy_actions(net, state))
            next_state, reward, done = env.step(actions)
            buffer.push(state, actions, reward, next_state, done)
            ep_rewards.append(float(reward))
            state = next_state
            step_count += 1
            if buffer.size >= hp.batch_size:
                batch = buffer.sample(hp.batch_size, rng)
                backward(net, batch, target, hp.gamma, hp.lr)
                if step_count % hp.target_sync == 0:
                    target.sync_from(net)
            if done:
                break
        rewards_per_episode.append(float(np.mean(ep_rewards)))
    return net, rewards_per_episode


# --- checkpoint format: JSON manifest with base64 little-endian float64 ------

def _encode(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode()}


def _decode_like(name: str, objs: list, like) -> list[np.ndarray]:
    """Decode one checkpoint field's arrays, each checked against the shape
    the manifest's dimensions give it."""
    if len(objs) != len(like):
        raise ShapeMismatch(f"{name}: {len(objs)} arrays, manifest gives {len(like)}")
    out = []
    for i, (obj, ref) in enumerate(zip(objs, like)):
        arr = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
        if tuple(obj["shape"]) != ref.shape or arr.size != ref.size:
            raise ShapeMismatch(f"{name}[{i}]: stored shape {obj['shape']} with "
                                f"{arr.size} values, manifest gives {list(ref.shape)}")
        out.append(arr.reshape(ref.shape).copy())
    return out


def save_network(net: BdqNetwork, path: str) -> None:
    doc = {
        "input_dim": net.input_dim,
        "hidden": list(net.hidden),
        "num_branches": net.num_branches,
        "actions_per_branch": net.actions_per_branch,
        "trunk_w": [_encode(w) for w in net.trunk_w],
        "trunk_b": [_encode(b) for b in net.trunk_b],
        "value_w": _encode(net.value_w),
        "value_b": _encode(net.value_b),
        "adv_w": [_encode(w) for w in net.adv_w],  # one entry per branch
        "adv_b": [_encode(b) for b in net.adv_b],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_network(path: str) -> BdqNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    net = BdqNetwork(doc["input_dim"], tuple(doc["hidden"]), doc["num_branches"],
                     doc["actions_per_branch"], rng=None)
    net.trunk_w = _decode_like("trunk_w", doc["trunk_w"], net.trunk_w)
    net.trunk_b = _decode_like("trunk_b", doc["trunk_b"], net.trunk_b)
    net.value_w, = _decode_like("value_w", [doc["value_w"]], [net.value_w])
    net.value_b, = _decode_like("value_b", [doc["value_b"]], [net.value_b])
    net.adv_w = np.array(_decode_like("adv_w", doc["adv_w"], net.adv_w))
    net.adv_b = np.array(_decode_like("adv_b", doc["adv_b"], net.adv_b))
    return net
