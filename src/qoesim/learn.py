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
purpose: every reduction over the branch axis runs over a C-contiguous
(n, D) array, branch last, and the trunk's input gradient adds the
value-head term first and then each branch's term in branch order, one
in-place add per branch.  The branch terms are computed `_DH_CHUNK`
branches at a time into one reused block, so the update holds no
(D, n, H) array of them.

A BDQ update (`backward`) writes into the `Workspace` it is given, sized
to the batch, its float arrays views of one allocation (`_carve`).
`train_episodes` makes one per training run and passes it to every update
of the online net against the target.  The two nets share it: `td_targets`
finishes before the online forward starts, and the online pass reads only
the targets of what the target wrote.  Every elementwise op writes through `out=`,
the advantage heads' gradient `g_a` reuses the advantages' buffer, and the
SGD step scales each gradient in place.  Without the workspace an update
allocated about 1.2 MB of temporaries, which glibc handed back to the OS
and faulted in again on every call; a warm update now allocates no array.
At D 32, A 11, input 128, hidden 64 x 3 and n 64 the traced peak fell from
1.2 MB to 62 KB (numpy's iterator buffers) and the call from 2.1 to 1.2 ms.
Nothing else changes the arithmetic:
  - the target's bootstrap takes the max over the advantages, one
    `np.maximum` per action column, before it adds V and subtracts the
    mean.  Rounding is monotone, so max_j fl(fl(v + a_j) - m) =
    fl(fl(v + max_j a_j) - m), bit for bit;
  - every matmul keeps its operands and their layout.  The input-gradient
    loop multiplies by the view `adv_w.transpose(0, 2, 1)`: a contiguous
    copy of it is another BLAS call, and at n = 1 it changed the gradients
    in 207 of 300 random shapes.

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


def _trunk_forward(net: BdqNetwork, states: np.ndarray, out=None):
    """Returns hidden activations per layer (post-ReLU), input included,
    written into `out` (one (n, width) array per layer) when given."""
    acts = [states]
    for w, b, h in zip(net.trunk_w, net.trunk_b, out or [None] * len(net.trunk_w)):
        h = np.matmul(acts[-1], w, out=h)
        np.add(h, b, out=h)
        acts.append(np.maximum(h, 0.0, out=h))
    return acts


def _value(net: BdqNetwork, h: np.ndarray, out=None) -> np.ndarray:
    """The state values, shape (n, 1)."""
    v = np.matmul(h, net.value_w, out=out)
    return np.add(v, net.value_b, out=v)


def _advantages(net: BdqNetwork, h: np.ndarray, out=None) -> np.ndarray:
    """Every branch's advantages, shape (D, n, A)."""
    a = np.matmul(h, net.adv_w, out=out)
    return np.add(a, net.adv_b[:, None, :], out=a)


def forward_batch(net: BdqNetwork, states: np.ndarray) -> np.ndarray:
    """Q-values for a batch: shape (n, num_branches, actions_per_branch)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] != net.input_dim:
        raise ShapeMismatch(f"state dim {states.shape[1]} != {net.input_dim}")
    h = _trunk_forward(net, states)[-1]
    v = _value(net, h)  # (n, 1)
    a = _advantages(net, h)
    q = v + a - a.mean(axis=2, keepdims=True)
    # C order (n, D, A), as an array filled branch by branch would be
    return np.ascontiguousarray(q.transpose(1, 0, 2))


def forward(net: BdqNetwork, state) -> np.ndarray:
    """Per-branch Q-vectors for one state: shape (num_branches, actions)."""
    return forward_batch(net, np.asarray(state, dtype=float)[None, :])[0]


def greedy_actions(net: BdqNetwork, state) -> np.ndarray:
    """Argmax per branch; ties resolve to the lowest index."""
    return forward(net, state).argmax(axis=1)


def _carve(groups: list[list[tuple[int, ...]]]) -> list[list[np.ndarray]]:
    """Float arrays of these shapes, group by group, as views of one
    allocation, each a multiple of 64 bytes into it.  Freed as one block,
    they leave no holes in the heap: as separate arrays, the workspace's
    1 MB raised the peak RSS of a round of `pdrl-l1` runs by 1.3 MB."""
    shapes = [shape for group in groups for shape in group]
    sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]
    buf = np.empty(sum(sizes))
    starts = np.cumsum([0, *sizes]).tolist()
    views = iter([buf[i:i + math.prod(shape)].reshape(shape)
                  for i, shape in zip(starts, shapes)])
    return [[next(views) for _ in group] for group in groups]


class Workspace:
    """Every array one BDQ update writes, for one network shape and batch
    size n; the online and the target net share it (module docstring)."""

    def __init__(self, net: BdqNetwork, n: int):
        d_count, a_count = net.num_branches, net.actions_per_branch
        top = net.value_w.shape[0]
        self.acts, self.dh, grads, (
            self.adv,  # the advantages, then g_a
            self.block,  # the input gradient's branch terms
            self.picked,  # per-branch max, or chosen advantage and its gradient
            self.mean,  # mean advantage
            self.q,  # max or chosen Q, then td, then g_q
            self.sq, self.v, self.g_v, self.bootstrap, self.targets) = _carve([
                [(n, w) for w in net.hidden],  # post-ReLU activations
                [(n, w) for w in net.hidden or (top,)],  # dL/dh, then dL/dz
                [p.shape for p in net.params()],
                [(d_count, n, a_count), (min(_DH_CHUNK, d_count), n, top),
                 (d_count, n), (d_count, n), (n, d_count), (n, d_count),
                 (n, 1), (n, 1), (n,), (n,)]])
        layers = len(net.hidden)
        self.grads = {"trunk_w": grads[:layers], "trunk_b": grads[layers:-4],
                      "value_w": grads[-4], "value_b": grads[-3],
                      "adv_w": grads[-2], "adv_b": grads[-1]}
        self.masks = [np.empty((n, w), dtype=bool) for w in net.hidden]
        # flat index of (d, i, 0) in a (D, n, A) array; plus the actions, of
        # each transition's chosen action in every branch
        self.row0 = (np.arange(d_count)[:, None] * n + np.arange(n)) * a_count
        self.pick = np.empty((d_count, n), dtype=self.row0.dtype)


def _heads(net: BdqNetwork, ws: Workspace, states: np.ndarray):
    """Trunk, value and advantages of the batch into the workspace; returns
    the top activations."""
    if len(states) != len(ws.v):
        raise ShapeMismatch(f"batch of {len(states)} rows, workspace of {len(ws.v)}")
    h = _trunk_forward(net, states, ws.acts)[-1]
    _value(net, h, ws.v)
    _advantages(net, h, ws.adv).mean(axis=2, out=ws.mean)
    return h


def td_targets(target_net: BdqNetwork, batch: Batch, gamma: float,
               ws: Workspace) -> np.ndarray:
    """r + gamma * mean_d max_a Q_d(s', a) for non-terminal transitions."""
    if not len(batch.rewards):
        raise ShapeMismatch("empty batch")
    _heads(target_net, ws, batch.next_states)
    # max_a Q_d = fl(fl(v + max_a A_d) - mean_a A_d), as rounding is monotone
    a, amax = ws.adv, ws.picked
    np.copyto(amax, a[:, :, 0])
    for j in range(1, a.shape[2]):
        np.maximum(amax, a[:, :, j], out=amax)
    q = ws.q
    np.add(ws.v, amax.T, out=q)
    np.subtract(q, ws.mean.T, out=q)
    q.mean(axis=1, out=ws.bootstrap)
    t = np.multiply(batch.alive, gamma, out=ws.targets)
    np.multiply(t, ws.bootstrap, out=t)
    return np.add(batch.rewards, t, out=t)


def loss_and_gradients(net: BdqNetwork, batch: Batch, targets: np.ndarray,
                       ws: Workspace):
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

    grads = ws.grads
    h = _heads(net, ws, states)
    d_count = net.num_branches
    a_count = net.actions_per_branch
    # Q_d(s, a_d) of each transition's chosen actions, (n, D)
    np.add(ws.row0, actions.T, out=ws.pick)
    picked = np.take(ws.adv, ws.pick, out=ws.picked, mode="clip")
    q = ws.q
    np.add(ws.v, picked.T, out=q)
    np.subtract(q, ws.mean.T, out=q)

    td = np.subtract(q, targets[:, None], out=q)
    loss = float(np.multiply(td, td, out=ws.sq).mean())
    g_q = np.multiply(td, 2.0, out=q)
    np.divide(g_q, n * d_count, out=g_q)  # dL/dQ_d(s, a_d)

    # value head: dQ_d/dv = 1 for every branch
    g_v = g_q.sum(axis=1, keepdims=True, out=ws.g_v)
    np.matmul(h.T, g_v, out=grads["value_w"])
    g_v.sum(axis=0, out=grads["value_b"])
    # advantage heads: dQ_d/dA_d[j] = 1[j = a_d] - 1/A
    g_a = np.multiply(g_q.T[:, :, None], -1.0 / a_count, out=ws.adv)
    np.take(g_a, ws.pick, out=picked, mode="clip")
    np.add(picked, g_q.T, out=picked)
    np.put(g_a, ws.pick, picked)
    np.matmul(h.T, g_a, out=grads["adv_w"])
    g_a.sum(axis=1, out=grads["adv_b"])
    # dh adds the value term, then each branch's term, in branch order; the
    # branch terms come _DH_CHUNK at a time through one reused block
    dh = np.matmul(g_v, net.value_w.T, out=ws.dh[-1])
    for c in range(0, d_count, _DH_CHUNK):
        part = ws.block[:min(_DH_CHUNK, d_count - c)]
        np.matmul(g_a[c:c + _DH_CHUNK], net.adv_w[c:c + _DH_CHUNK].transpose(0, 2, 1),
                  out=part)
        for term in part:
            dh += term
    # trunk
    for layer in reversed(range(len(net.trunk_w))):
        mask = np.greater(ws.acts[layer], 0.0, out=ws.masks[layer])
        dz = np.multiply(dh, mask, out=dh)
        below = ws.acts[layer - 1] if layer else states
        np.matmul(below.T, dz, out=grads["trunk_w"][layer])
        dz.sum(axis=0, out=grads["trunk_b"][layer])
        if layer:  # the input layer's dh would be the unused d(state)
            dh = np.matmul(dz, net.trunk_w[layer].T, out=ws.dh[layer - 1])
    return loss, grads


def backward(net: BdqNetwork, batch: Batch, target_net: BdqNetwork,
             gamma: float, lr: float, ws: Workspace) -> float:
    """One SGD step on the branch-averaged squared TD error; returns the loss."""
    targets = td_targets(target_net, batch, gamma, ws)
    loss, grads = loss_and_gradients(net, batch, targets, ws)
    for p, g in zip(net.params(), [*grads["trunk_w"], *grads["trunk_b"],
                                   grads["value_w"], grads["value_b"],
                                   grads["adv_w"], grads["adv_b"]]):
        p -= np.multiply(g, lr, out=g)
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
    lr: float
    gamma: float
    eps_start: float
    eps_end: float
    eps_decay_steps: int  # steps over which epsilon falls to eps_end
    batch_size: int
    replay_capacity: int
    target_sync: int


def train_episodes(env, net: BdqNetwork, hp: Hyperparams,
                   rng: np.random.Generator) -> list[float]:
    """Epsilon-greedy BDQ training of `net`, in place; returns the per-episode
    mean reward.  The env exposes reset() -> state and step(actions) ->
    (next_state, reward, done), its states and actions of the net's shape."""
    target = net.copy()
    ws = Workspace(net, hp.batch_size)
    # rows past the pushes would never be written, yet raise the peak RSS
    buffer = ReplayBuffer(min(hp.replay_capacity, hp.episodes * hp.max_steps),
                          net.input_dim, net.num_branches)
    rewards_per_episode = []
    step_count = 0
    for _ in range(hp.episodes):
        state = env.reset()
        ep_rewards = []
        for _ in range(hp.max_steps):
            frac = min(step_count / hp.eps_decay_steps, 1.0)
            eps = hp.eps_start + (hp.eps_end - hp.eps_start) * frac
            explore = rng.random(net.num_branches) < eps
            random_actions = rng.integers(0, net.actions_per_branch,
                                          net.num_branches)
            actions = np.where(explore, random_actions, greedy_actions(net, state))
            next_state, reward, done = env.step(actions)
            buffer.push(state, actions, reward, next_state, done)
            ep_rewards.append(float(reward))
            state = next_state
            step_count += 1
            if buffer.size >= hp.batch_size:
                batch = buffer.sample(hp.batch_size, rng)
                backward(net, batch, target, hp.gamma, hp.lr, ws)
                if step_count % hp.target_sync == 0:
                    target.sync_from(net)
            if done:
                break
        rewards_per_episode.append(float(np.mean(ep_rewards)))
    return rewards_per_episode


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
    try:
        net = BdqNetwork(doc["input_dim"], tuple(doc["hidden"]), doc["num_branches"],
                         doc["actions_per_branch"], rng=None)
        net.trunk_w = _decode_like("trunk_w", doc["trunk_w"], net.trunk_w)
        net.trunk_b = _decode_like("trunk_b", doc["trunk_b"], net.trunk_b)
        net.value_w, = _decode_like("value_w", [doc["value_w"]], [net.value_w])
        net.value_b, = _decode_like("value_b", [doc["value_b"]], [net.value_b])
        net.adv_w = np.array(_decode_like("adv_w", doc["adv_w"], net.adv_w))
        net.adv_b = np.array(_decode_like("adv_b", doc["adv_b"], net.adv_b))
    except KeyError as e:
        raise ShapeMismatch(f"checkpoint lacks the key {e.args[0]!r}") from None
    return net
