"""Synthetic clustered learning tasks and tiny hand-written models.

Agents hold private shards drawn from one of K cluster distributions.  All
clusters share the same class-conditional Gaussian blobs in an informative
2-D plane, but cluster k's plane is rotated by 2*pi*k/K, so a single global
model cannot fit every cluster at once.  Remaining input dimensions are
pure noise.  Agent i belongs to cluster i mod K.

Models are multinomial logistic regression and a one-hidden-layer MLP with
explicit backprop; parameters travel as flat vectors so the consensus
machinery can treat them as points in R^d.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .errors import InvalidParameterError
from .objectives import DEFAULT_GRAD_BOUND, _clamp_rows


# Batched kernels walk the agents in blocks sized so that their largest
# temporary holds about this many doubles (1 MiB); this bounds the extra
# memory of a round whatever the number of agents.  It also caps each
# buffer of a model's workspace.
BLOCK_DOUBLES = 1 << 17


class WorkerPool:
    """Runs independent jobs on up to ``threads`` threads, capped at the CPUs
    this process may use (``os.sched_getaffinity``, else ``os.cpu_count()``);
    the calling thread is one of them.

    ``map`` hands out its items in order to whichever thread asks next and
    returns their results in item order once every item has run, so a job
    that writes only its own rows of a preallocated result gives the same
    bits on any number of threads.  The helper threads belong to a
    ``concurrent.futures`` executor, started by the first ``map`` that has
    work for them and shut down by ``close``; use the pool as a context
    manager so that no thread outlives it.  A pool of one, or a closed
    pool, starts no thread, and ``map`` is then a plain loop on the caller.
    A ``map`` called from an item of a running ``map`` takes only the
    helper threads that no other ``map`` holds, so it never queues work
    that no thread is free to start; on a pool of two it runs on its caller.
    """

    def __init__(self, threads=1):
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        self.size = max(1, min(int(threads), cpus))
        self._executor = None
        self._closed = False
        self._lock = threading.Lock()
        self._held = 0   # helpers that running maps have submitted

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def map(self, fn, items):
        """``[fn(item) for item in items]`` on at most ``min(size, len(items))``
        threads.  Once an item fails no further item starts; the exception
        of the lowest failed item is raised when every started item has
        finished."""
        items = list(items)
        results, failures = [None] * len(items), {}
        claim, lock = iter(range(len(items))), threading.Lock()

        def work():
            while True:
                with lock:
                    index = None if failures else next(claim, None)
                if index is None:
                    return
                try:
                    results[index] = fn(items[index])
                except BaseException as exc:
                    with lock:
                        failures[index] = exc

        def helper(errstate):
            with np.errstate(**errstate):
                work()

        with self._lock:
            helpers = 0 if self._closed else max(
                0, min(self.size - 1 - self._held, len(items) - 1))
            if helpers and self._executor is None:
                # Imported here: about 2 ms of start-up a one-thread command never needs.
                from concurrent.futures import ThreadPoolExecutor
                self._executor = ThreadPoolExecutor(self.size - 1,
                                                    thread_name_prefix="fedcbo-worker")
            self._held += helpers
        futures = [self._executor.submit(helper, np.geterr()) for _ in range(helpers)]
        try:
            work()
        finally:
            for future in futures:   # wait for each helper that has started
                if not future.cancel():
                    future.exception()
            with self._lock:
                self._held -= helpers
        if failures:
            raise failures[min(failures)]
        return results

    def close(self):
        """Shut down the helper threads; later maps run on the caller."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown()


class _Workspace:
    """A model's scratch memory: per thread, one flat, grow-only buffer per
    name, sliced and reshaped to each request.  Reusing it across steps and
    rounds spares the allocator the block-sized arrays it would otherwise
    free and fault back in at every step.  A buffer never holds more than
    BLOCK_DOUBLES doubles; a larger request gets a fresh temporary.  A view
    it hands out is valid until the same thread's next request under the
    same name, so nothing a model returns may be such a view."""

    def __init__(self):
        self._local = threading.local()

    @property
    def buffers(self):
        """The calling thread's buffers, by name."""
        try:
            return self._local.buffers
        except AttributeError:
            self._local.buffers = {}
            return self._local.buffers

    def take(self, name, shape):
        size = math.prod(shape)
        if size > BLOCK_DOUBLES:
            return np.empty(shape)
        buffers = self.buffers
        flat = buffers.get(name)
        if flat is None or flat.size < size:
            flat = buffers[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _softmax(logits):
    """Softmax over the last axis, computed in place of ``logits``."""
    # A running maximum over the few class columns is much faster than a max
    # reduction over a short last axis.  It can differ from that reduction
    # only in the sign of a zero, which exp() does not see.
    n_classes = logits.shape[-1]
    top = logits[..., :1].copy()
    for k in range(1, n_classes):
        np.maximum(top, logits[..., k:k + 1], out=top)
    logits -= top
    np.exp(logits, out=logits)
    if n_classes < 8:
        # NumPy sums fewer than 8 terms of a last axis in order, so adding
        # the columns in order gives its bits, faster.
        total = top
        np.copyto(total, logits[..., :1])
        for k in range(1, n_classes):
            total += logits[..., k:k + 1]
    else:
        total = logits.sum(axis=-1, keepdims=True)
    logits /= total
    return logits


def _label_index(probs, labels):
    """Flat indices of each sample's label entry in the C-contiguous
    ``probs`` (..., n, c), shaped like the samples (..., n)."""
    n_classes = probs.shape[-1]
    index = np.arange(0, probs.size, n_classes).reshape(probs.shape[:-1])
    index += labels
    return index


def _cross_entropy(probs, index):
    # The picked probabilities form a contiguous (..., n) array, so the
    # mean sums in the same order for a batch as for a single model.
    picked = probs.reshape(-1)[index]
    np.clip(picked, 1e-300, None, out=picked)
    return -np.mean(np.log(picked, out=picked), axis=-1)


def _output_delta(probs, index):
    """d(mean cross-entropy)/d(logits), computed in place of ``probs``,
    which must be C-contiguous for its flat view to write through."""
    probs.reshape(-1)[index] -= 1.0
    probs /= probs.shape[-2]
    return probs


def _t(a):
    return a.swapaxes(-1, -2)


class LogisticModel:
    """Multinomial logistic regression; params = [W.ravel(), b].

    Every method takes a parameter array of shape (..., n_params) with data
    x (..., n, d) and labels y (..., n) whose leading dimensions broadcast
    against it, and returns one result per model.  A single flat vector is
    the batch-of-one case of the same arithmetic, bit for bit.
    """

    def __init__(self, input_dim, n_classes):
        self.input_dim = input_dim
        self.n_classes = n_classes
        self.n_params = input_dim * n_classes + n_classes
        self.width = max(input_dim, n_classes)   # widest per-sample activation

    def init_params(self, rng, scale=None):
        if scale is None:
            scale = 0.1
        return scale * rng.standard_normal(self.n_params)

    def _unpack(self, theta):
        d, c = self.input_dim, self.n_classes
        lead = theta.shape[:-1]
        w = theta[..., : d * c].reshape(lead + (d, c))
        b = theta[..., d * c:]
        return w, b

    def logits(self, theta, x):
        w, b = self._unpack(theta)
        return x @ w + b[..., None, :]

    def loss(self, theta, x, y):
        probs = _softmax(self.logits(theta, x))
        return _cross_entropy(probs, _label_index(probs, y))

    def loss_grad(self, theta, x, y):
        lead = theta.shape[:-1]
        probs = _softmax(self.logits(theta, x))
        index = _label_index(probs, y)
        loss = _cross_entropy(probs, index)
        delta = _output_delta(probs, index)
        grad_w = _t(x) @ delta
        grad_b = delta.sum(axis=-2)
        return loss, np.concatenate([grad_w.reshape(lead + (-1,)), grad_b], axis=-1)


class MlpModel:
    """One-hidden-layer MLP with hand-coded backprop.

    params = [W1.ravel(), b1, W2.ravel(), b2].  Activation is tanh by
    default; relu is available for parity with larger setups.  Shapes
    broadcast as for ``LogisticModel``.

    The hidden layer, the logits and the back-propagated error live in a
    workspace owned by the instance and reused from call to call, one per
    thread, at most BLOCK_DOUBLES doubles per buffer (about 3 MiB per
    thread).  Every array a method returns is fresh and never shares memory
    with it, so threads may call one instance at once.
    """

    def __init__(self, input_dim, hidden, n_classes, activation="tanh"):
        if activation not in ("tanh", "relu"):
            raise InvalidParameterError(f"unknown activation {activation!r}")
        self.input_dim = input_dim
        self.hidden = hidden
        self.n_classes = n_classes
        self.activation = activation
        self.n_params = input_dim * hidden + hidden + hidden * n_classes + n_classes
        self.width = max(input_dim, hidden, n_classes)
        self._workspace = _Workspace()

    def init_params(self, rng, scale=None):
        d, h, c = self.input_dim, self.hidden, self.n_classes
        s1 = scale if scale is not None else 1.0 / np.sqrt(d)
        s2 = scale if scale is not None else 1.0 / np.sqrt(h)
        w1 = s1 * rng.standard_normal(d * h)
        b1 = np.zeros(h)
        w2 = s2 * rng.standard_normal(h * c)
        b2 = np.zeros(c)
        return np.concatenate([w1, b1, w2, b2])

    def _unpack(self, theta):
        d, h, c = self.input_dim, self.hidden, self.n_classes
        lead = theta.shape[:-1]
        i = 0
        w1 = theta[..., i:i + d * h].reshape(lead + (d, h)); i += d * h
        b1 = theta[..., i:i + h]; i += h
        w2 = theta[..., i:i + h * c].reshape(lead + (h, c)); i += h * c
        b2 = theta[..., i:]
        return w1, b1, w2, b2

    def _forward(self, theta, x):
        """(hidden layer, logits), both views into the workspace."""
        w1, b1, w2, b2 = self._unpack(theta)
        lead = np.broadcast_shapes(x.shape[:-2], w1.shape[:-2]) + x.shape[-2:-1]
        hid = np.matmul(x, w1, out=self._workspace.take("hid", lead + (self.hidden,)))
        hid += b1[..., None, :]
        if self.activation == "tanh":
            np.tanh(hid, out=hid)
        else:
            np.maximum(hid, 0.0, out=hid)
        logits = np.matmul(hid, w2, out=self._workspace.take("logits", lead + (self.n_classes,)))
        logits += b2[..., None, :]
        return hid, logits

    def logits(self, theta, x):
        return self._forward(theta, x)[1].copy()

    def loss(self, theta, x, y):
        probs = _softmax(self._forward(theta, x)[1])
        return _cross_entropy(probs, _label_index(probs, y))

    def loss_grad(self, theta, x, y):
        w1, b1, w2, b2 = self._unpack(theta)
        lead = theta.shape[:-1]
        hid, logits = self._forward(theta, x)
        probs = _softmax(logits)
        index = _label_index(probs, y)
        loss = _cross_entropy(probs, index)
        delta = _output_delta(probs, index)
        grad_w2 = _t(hid) @ delta
        grad_b2 = delta.sum(axis=-2)
        back = np.matmul(delta, _t(w2), out=self._workspace.take("back", hid.shape))
        if self.activation == "tanh":
            # 1 - hid**2, in place of hid now that grad_w2 has read it.
            np.multiply(hid, hid, out=hid)
            np.subtract(1.0, hid, out=hid)
            back *= hid
        else:
            # hid > 0 exactly where the pre-activation is > 0, NaN and -0 included.
            back *= hid > 0.0
        grad_w1 = _t(x) @ back
        grad_b1 = back.sum(axis=-2)
        return loss, np.concatenate(
            [grad_w1.reshape(lead + (-1,)), grad_b1, grad_w2.reshape(lead + (-1,)), grad_b2],
            axis=-1,
        )


def make_model(kind, input_dim, n_classes, hidden=16, activation="tanh"):
    if kind == "logistic":
        return LogisticModel(input_dim, n_classes)
    if kind == "mlp":
        return MlpModel(input_dim, hidden, n_classes, activation=activation)
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def predict(model, theta, x):
    return np.argmax(model.logits(theta, x), axis=-1)


def accuracy(model, theta, x, y):
    """Share of correct predictions, one per model in ``theta`` (..., n_params)."""
    return np.mean(predict(model, theta, x) == y, axis=-1)


def local_sgd(model, thetas, x, y, steps, rate, streams, batch_size=None,
              momentum=0.0, grad_bound=DEFAULT_GRAD_BOUND):
    """``steps`` clamped momentum-SGD steps of every model in ``thetas``.

    ``thetas`` is (b, n_params); model r trains on x[r], y[r] of shapes
    (b, n, d) and (b, n).  With ``batch_size`` below n, model r draws each
    step's mini-batch without replacement from ``streams[r]``, step after
    step, exactly as a one-model call on that stream would.  The momentum
    buffer is local to the call.  Returns the trained (b, n_params) copy.
    Every step's forward and backward pass reuses the model's workspace, so
    the steps allocate only parameter-sized arrays.
    """
    thetas = np.array(thetas, dtype=float)
    n = x.shape[-2]
    use_batch = batch_size is not None and batch_size < n
    rows = np.arange(len(thetas))[:, None]
    velocity = np.zeros_like(thetas)
    for _ in range(steps):
        if use_batch:
            idx = np.stack([rng.choice(n, size=batch_size, replace=False)
                            for rng in streams])
            xb, yb = x[rows, idx], y[rows, idx]
        else:
            xb, yb = x, y
        _, g = model.loss_grad(thetas, xb, yb)
        g = _clamp_rows(g, grad_bound)
        velocity = momentum * velocity + g
        thetas = thetas - rate * velocity
    return thetas


@dataclass
class ShardTask:
    """An agent's private data plus its local-training behavior.

    ``train`` runs the requested number of SGD steps with a momentum buffer
    local to the call; ``loss`` is the deterministic full-shard loss used
    for consensus weights and likelihood updates.  Both are the
    batch-of-one case of the model's batched kernels.
    """

    model: object
    x: np.ndarray
    y: np.ndarray
    batch_size: int = None
    momentum: float = 0.0
    grad_bound: float = DEFAULT_GRAD_BOUND

    def loss(self, theta):
        return self.model.loss(np.asarray(theta, dtype=float), self.x, self.y)

    def train(self, theta, steps, rate, rng):
        theta = np.asarray(theta, dtype=float)
        return local_sgd(self.model, theta[None], self.x[None], self.y[None],
                         steps, rate, [rng], batch_size=self.batch_size,
                         momentum=self.momentum, grad_bound=self.grad_bound)[0]


def agent_blocks(n_agents, per_agent, parts=1):
    """Consecutive slices covering ``n_agents`` agents, each of at most
    BLOCK_DOUBLES // per_agent agents (``per_agent``: doubles per agent).
    With ``parts`` > 1 the blocks are made about equal and about a multiple
    of ``parts`` in number, so that ``parts`` threads share them evenly."""
    size = max(1, BLOCK_DOUBLES // max(1, per_agent))
    if parts > 1 and n_agents:
        count = -(-n_agents // size)
        size = max(1, -(-n_agents // (-(-count // parts) * parts)))
    return [slice(i, i + size) for i in range(0, n_agents, size)]


class ShardTasks:
    """Every agent's local training and loss over shards stacked as
    x (A, n, d), y (A, n): the batched kernels over blocks of agents, equal
    bit for bit to each agent's ShardTask.

    The blocks run on ``pool`` (a ``WorkerPool``; by default a pool of one,
    the calling thread).  Each block writes only its own rows of the result,
    so the result has the same bits on any number of threads.  A block of
    agents whose ids form one ascending run, as under full participation,
    reads its shards as a view of the stack rather than a copy.  With the
    model's workspace, a round then allocates little more than its
    results."""

    def __init__(self, model, x, y, batch_size=None, momentum=0.0,
                 grad_bound=DEFAULT_GRAD_BOUND, pool=None):
        self.model, self.x, self.y = model, x, y
        self.batch_size, self.momentum, self.grad_bound = batch_size, momentum, grad_bound
        self.pool = pool if pool is not None else WorkerPool()

    def __len__(self):
        return len(self.x)

    def _shards(self, ids):
        """x[ids], y[ids]: views when ``ids`` is one ascending run."""
        if len(ids) and (np.diff(ids) == 1).all():
            ids = slice(ids[0], ids[-1] + 1)
        return self.x[ids], self.y[ids]

    def train(self, thetas, agents, steps, rate, streams):
        """Train agents[r] from thetas[r] on its own shard and stream."""
        out = np.empty_like(thetas)

        def train_block(block):
            ids = agents[block]
            x, y = self._shards(ids)
            out[block] = local_sgd(self.model, thetas[block], x, y,
                                   steps, rate, [streams[j] for j in ids],
                                   batch_size=self.batch_size, momentum=self.momentum,
                                   grad_bound=self.grad_bound)

        self.pool.map(train_block, agent_blocks(
            len(agents), self.x.shape[1] * self.model.width, self.pool.size))
        return out

    def losses(self, agents, candidates):
        """Loss of candidates[r, c] (a model) on agents[r]'s shard, (b, k)."""
        k = candidates.shape[1]
        out = np.empty(candidates.shape[:2])

        def score_block(block):
            x, y = self._shards(agents[block])
            out[block] = self.model.loss(candidates[block], x[:, None], y[:, None])

        self.pool.map(score_block, agent_blocks(
            len(agents), k * self.x.shape[1] * self.model.width, self.pool.size))
        return out


class ObjectiveTasks:
    """Every agent's analytic objective (``objectives[j]`` is agent j's),
    with the interface of ShardTasks.

    ``train`` is plain momentum gradient descent and never touches a
    stream, so runs are deterministic given the initial models.  Agents
    that share an objective are batched through its ``gradients`` and
    ``losses``, the calls ``run_sde`` makes; every row equals its
    batch-of-one result bit for bit.  ``pool``, which the round runs its
    aggregation blocks on, is a pool of one: an agent's rows here are too
    light to gain from splitting the blocks over threads.
    """

    def __init__(self, objectives, momentum=0.0):
        self.objectives = list(objectives)
        self.momentum = momentum
        self.pool = WorkerPool()
        # Each agent's index into the distinct objectives, by identity.
        first = {}
        self._index = np.array([first.setdefault(id(f), len(first))
                                for f in self.objectives], dtype=np.intp)
        self._distinct = list({id(f): f for f in self.objectives}.values())

    def __len__(self):
        return len(self.objectives)

    def _rows(self, agents):
        """(objective, the rows r whose agents[r] has it), per distinct objective."""
        keys = self._index[agents]
        for key in np.unique(keys):
            yield self._distinct[key], np.flatnonzero(keys == key)

    def train(self, thetas, agents, steps, rate, streams):
        """``steps`` descent steps of agents[r] from thetas[r]; returns the
        trained rows.  The momentum buffer is local to the call."""
        out = np.array(thetas, dtype=float)
        for objective, rows in self._rows(agents):
            theta, velocity = out[rows], np.zeros((len(rows), out.shape[1]))
            for _ in range(steps):
                velocity = self.momentum * velocity + objective.gradients(theta)
                theta = theta - rate * velocity
            out[rows] = theta
        return out

    def losses(self, agents, candidates):
        """Loss of candidates[r, c] (a point) under agents[r]'s objective, (b, k)."""
        b, k, dim = candidates.shape
        out = np.empty((b, k))
        for objective, rows in self._rows(agents):
            points = candidates[rows].reshape(-1, dim)
            out[rows] = objective.losses(points).reshape(len(rows), k)
        return out


@dataclass
class ClusteredDataset:
    """Shards for every agent plus per-cluster held-out test sets.

    Shards are stacked: agent i holds x[i] (n, d) and y[i] (n,).
    ``agent_cluster`` is the hidden assignment; protocol code never sees it,
    only the harness and diagnostics do.
    """

    x: np.ndarray                # (n_agents, n, d)
    y: np.ndarray                # (n_agents, n)
    agent_cluster: np.ndarray    # (n_agents,)
    test_sets: list              # per cluster: (x, y)

    @property
    def n_agents(self):
        return len(self.x)

    @property
    def n_clusters(self):
        return len(self.test_sets)


def rotation_matrix(angle, dim):
    """Planar rotation acting on coordinates (0, 1), identity elsewhere."""
    r = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    r[0, 0], r[0, 1] = c, -s
    r[1, 0], r[1, 1] = s, c
    return r


def _cluster_means(cluster, n_classes, n_clusters, radius):
    """Class means of ``cluster``: ``n_classes`` points evenly spaced on the
    circle of ``radius``, rotated by the cluster's angle."""
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return means @ rotation_matrix(2.0 * np.pi * cluster / n_clusters, 2).T


def _sample_cluster(rng, n, means, input_dim, blob_std, noise_std):
    y = rng.integers(0, len(means), size=n)
    x = np.empty((n, input_dim))
    x[:, :2] = means[y] + blob_std * rng.standard_normal((n, 2))
    if input_dim > 2:
        x[:, 2:] = noise_std * rng.standard_normal((n, input_dim - 2))
    return x, y


def generate_clustered_data(n_clusters, n_agents, n_per_agent, input_dim,
                            n_classes, seed, radius=2.0, blob_std=1.0,
                            noise_std=1.0, n_test=400):
    """Clustered blobs dataset; deterministic in ``seed``.

    Requires n_agents divisible by n_clusters and input_dim >= 2 (the
    rotation needs a plane).
    """
    if n_clusters < 1 or n_agents < 1 or n_per_agent < 1:
        raise InvalidParameterError("cluster/agent/sample counts must be >= 1")
    if n_agents % n_clusters != 0:
        raise InvalidParameterError(
            f"n_agents ({n_agents}) must be divisible by n_clusters ({n_clusters})"
        )
    if input_dim < 2:
        raise InvalidParameterError("input_dim must be >= 2")
    if n_classes < 2:
        raise InvalidParameterError("n_classes must be >= 2")

    agent_cluster = np.arange(n_agents) % n_clusters
    means = [_cluster_means(k, n_classes, n_clusters, radius) for k in range(n_clusters)]
    x = np.empty((n_agents, n_per_agent, input_dim))
    y = np.empty((n_agents, n_per_agent), dtype=np.int64)
    # Agent i's shard comes from stream i, cluster k's test set from stream
    # n_agents + k.
    gens = rng_mod.streams(seed, rng_mod.DATA, n_agents + n_clusters)
    for i, gen in enumerate(gens[:n_agents]):
        x[i], y[i] = _sample_cluster(gen, n_per_agent, means[agent_cluster[i]], input_dim,
                                     blob_std, noise_std)
    test_sets = [_sample_cluster(gen, n_test, means[k], input_dim, blob_std, noise_std)
                 for k, gen in enumerate(gens[n_agents:])]
    return ClusteredDataset(x=x, y=y, agent_cluster=agent_cluster,
                            test_sets=test_sets)

