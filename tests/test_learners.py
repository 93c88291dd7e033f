"""Models, gradients, local training, and the synthetic clustered dataset."""

import gc
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from fedcbo import learners
from fedcbo import rng as rng_mod
from fedcbo.errors import InvalidParameterError
from fedcbo.learners import (MlpModel, ShardTask, ShardTasks, WorkerPool, accuracy,
                             agent_blocks, generate_clustered_data, make_model, predict,
                             rotation_matrix)


def small_data(n=12, dim=3, n_classes=3, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, dim))
    y = gen.integers(0, n_classes, size=n)
    return x, y


def finite_difference_grad(f, theta, h=1e-6):
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


def test_zero_parameters_give_uniform_class_probabilities():
    x, y = small_data(n_classes=4)
    for kind in ("logistic", "mlp"):
        model = make_model(kind, 3, 4, hidden=5)
        loss = model.loss(np.zeros(model.n_params), x, y)
        assert abs(loss - math.log(4)) < 1e-12


@pytest.mark.parametrize("kind,activation", [
    ("logistic", None),
    ("mlp", "tanh"),
    ("mlp", "relu"),
])
def test_analytic_gradient_matches_finite_differences(kind, activation):
    x, y = small_data()
    kwargs = {"hidden": 4}
    if activation:
        kwargs["activation"] = activation
    model = make_model(kind, 3, 3, **kwargs)
    theta = 0.4 * np.random.default_rng(1).standard_normal(model.n_params)
    loss, grad = model.loss_grad(theta, x, y)
    assert abs(loss - model.loss(theta, x, y)) < 1e-12
    fd = finite_difference_grad(lambda t: model.loss(t, x, y), theta)
    assert np.allclose(grad, fd, atol=1e-5)


def test_mlp_rejects_unknown_activation():
    with pytest.raises(InvalidParameterError):
        make_model("mlp", 3, 3, activation="sigmoid")
    with pytest.raises(InvalidParameterError):
        make_model("tree", 3, 3)


def test_parameter_layout_and_init():
    model = make_model("mlp", 3, 2, hidden=4)
    assert model.n_params == 3 * 4 + 4 + 4 * 2 + 2
    theta = model.init_params(np.random.default_rng(0))
    w1, b1, w2, b2 = model._unpack(theta)
    assert w1.shape == (3, 4) and w2.shape == (4, 2)
    assert np.array_equal(b1, np.zeros(4))
    assert np.array_equal(b2, np.zeros(2))

    logistic = make_model("logistic", 3, 2)
    assert logistic.n_params == 3 * 2 + 2


def test_predict_and_accuracy_on_a_separable_toy():
    # One weight matrix that routes class k to logit k directly.
    model = make_model("logistic", 2, 2)
    theta = np.array([1.0, -1.0, -1.0, 1.0, 0.0, 0.0])  # W = [[1,-1],[-1,1]]
    x = np.array([[3.0, 0.0], [0.0, 3.0], [2.0, -1.0]])
    y = np.array([0, 1, 0])
    assert np.array_equal(predict(model, theta, x), y)
    assert accuracy(model, theta, x, y) == 1.0


def test_shard_task_train_matches_manual_descent():
    x, y = small_data()
    model = make_model("logistic", 3, 3)
    task = ShardTask(model, x, y)
    theta0 = np.zeros(model.n_params)
    trained = task.train(theta0, steps=2, rate=0.1, rng=None)

    manual = theta0.copy()
    for _ in range(2):
        _, g = model.loss_grad(manual, x, y)
        manual = manual - 0.1 * g
    assert np.allclose(trained, manual, atol=1e-12)
    assert np.array_equal(theta0, np.zeros(model.n_params))  # input untouched


def test_shard_task_momentum_buffer_is_local_to_each_call():
    x, y = small_data()
    model = make_model("logistic", 3, 3)
    task = ShardTask(model, x, y, momentum=0.9)
    theta0 = 0.1 * np.ones(model.n_params)
    a = task.train(theta0, steps=3, rate=0.05, rng=None)
    b = task.train(theta0, steps=3, rate=0.05, rng=None)
    assert np.array_equal(a, b)


def test_shard_task_loss_is_deterministic_full_shard():
    x, y = small_data()
    model = make_model("logistic", 3, 3)
    task = ShardTask(model, x, y, batch_size=4)
    theta = np.zeros(model.n_params)
    assert task.loss(theta) == model.loss(theta, x, y)


def traced_peak(call):
    """Peak bytes traced (NumPy reports its data buffers) while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["train", "losses"])
def test_repeated_training_and_scoring_allocate_less_than_a_mebibyte(kernel):
    # 40 agents fit one block of the 2^17-double bound, so before the model
    # kept a workspace each call held several block-sized temporaries at once.
    agents, n, d, h, c = 40, 100, 16, 16, 4
    gen = np.random.default_rng(0)
    model = MlpModel(d, h, c)
    tasks = ShardTasks(model, gen.standard_normal((agents, n, d)),
                       gen.integers(0, c, size=(agents, n)), momentum=0.9)
    ids = np.arange(agents)
    if kernel == "train":
        thetas = 0.3 * gen.standard_normal((agents, model.n_params))
        streams = rng_mod.agent_streams(0, agents)
        call = partial(tasks.train, thetas, ids, 5, 0.1, streams)
    else:
        candidates = 0.3 * gen.standard_normal((agents, 11, model.n_params))
        call = partial(tasks.losses, ids, candidates)
    call()   # warm-up: the workspace grows to its size here
    assert traced_peak(call) < 1 << 20


@pytest.mark.parametrize("batch_size", [None, 30])
def test_blocks_on_two_threads_equal_blocks_on_one(monkeypatch, batch_size):
    # A small bound splits 23 agents into many blocks, so both threads take
    # some; each block must still write exactly the rows it would alone.
    monkeypatch.setattr(learners, "BLOCK_DOUBLES", 3 * 40 * 6)
    agents, n, d, h, c = 23, 40, 5, 6, 3
    gen = np.random.default_rng(7)
    x, y = gen.standard_normal((agents, n, d)), gen.integers(0, c, size=(agents, n))
    thetas = 0.5 * gen.standard_normal((agents, MlpModel(d, h, c).n_params))
    candidates = 0.5 * gen.standard_normal((agents, 4, thetas.shape[1]))
    ids = np.arange(agents)[::-1].copy()   # not one ascending run: shards are copies
    assert len(agent_blocks(agents, n * h)) > 4

    def run(pool):
        tasks = ShardTasks(MlpModel(d, h, c), x, y, batch_size=batch_size, momentum=0.9,
                           pool=pool)
        streams = rng_mod.agent_streams(3, agents)
        trained = tasks.train(thetas, ids, 4, 0.1, streams)
        return trained, tasks.losses(ids, candidates), [s.random() for s in streams]

    serial = run(None)
    with WorkerPool(2) as pool:
        threaded = run(pool)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(serial[:2], threaded[:2], strict=True))
    assert serial[2] == threaded[2]   # every stream consumed alike


def test_pool_size_is_capped_and_a_pool_of_one_starts_no_thread():
    cpus = len(os.sched_getaffinity(0))
    assert WorkerPool(10 ** 6).size == cpus
    before = threading.active_count()
    seen = []
    with WorkerPool(1) as pool:
        pool.map(lambda i: seen.append((i, threading.active_count())), range(5))
    assert seen == [(i, before) for i in range(5)]


def test_pool_runs_every_item_once_and_joins_its_threads():
    # More threads than CPUs and a short switch interval, so that a lost
    # update of the shared item counter would run an item twice or never.
    before, interval = threading.active_count(), sys.getswitchinterval()
    with WorkerPool(1) as pool:
        pool.size = 4 * len(os.sched_getaffinity(0)) + 1
        try:
            sys.setswitchinterval(1e-6)
            for call in range(200):
                done = []
                pool.map(lambda i: time.sleep(0) or done.append(i), range(call % 40))
                assert sorted(done) == list(range(call % 40))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before + pool.size - 1
    assert threading.active_count() == before


def test_pool_items_run_under_the_callers_floating_point_error_state():
    # fedcbo_round silences overflow for its blocks; a worker thread starts
    # with NumPy's defaults and must take the caller's settings instead.
    seen = []
    with WorkerPool(2) as pool, np.errstate(over="ignore", invalid="raise"):
        pool.map(lambda i: time.sleep(0.01) or seen.append(np.geterr()), range(6))
    assert len(seen) == 6
    assert all(err["over"] == "ignore" and err["invalid"] == "raise" for err in seen)


def test_pool_raises_the_lowest_failure_after_started_items_finish():
    # On two threads, item 1 is still running when item 2 fails on the other
    # thread; the caller gets item 1's error, once item 1 has finished.
    finished = []
    gate = threading.Event()
    with WorkerPool(2) as pool:
        def job(i):
            if i == 1:
                gate.wait(5.0 if pool.size > 1 else 0.0)
                raise KeyError(i)
            if i == 2:
                gate.set()
                raise ValueError(i)
            finished.append(i)

        with pytest.raises(KeyError):
            pool.map(job, range(40))
    assert finished == [0]   # no item starts once one has failed


def test_pool_counts_cpus_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no sched_getaffinity; every learner command
    # builds a pool, so counting CPUs must not need it.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert WorkerPool(1).size == 1
    assert WorkerPool(10 ** 6).size == (os.cpu_count() or 1)


def test_a_closed_pool_stays_closed():
    before = threading.active_count()
    pool = WorkerPool(2)
    pool.size = 2   # two threads even on one CPU

    def failing(i):
        if i == 3:
            raise ValueError(i)

    with pytest.raises(ValueError):
        pool.map(failing, range(8))
    done = []
    pool.map(lambda i: time.sleep(0) or done.append(i), range(8))
    assert sorted(done) == list(range(8))   # a failed map leaves the pool usable
    pool.close()
    assert threading.active_count() == before
    seen = []
    pool.map(lambda i: seen.append((i, threading.active_count())), range(5))
    assert seen == [(i, before) for i in range(5)]   # on the caller, no new thread


def test_pool_returns_results_in_item_order():
    # Early items sleep longest, so on two threads they finish last.
    with WorkerPool(2) as pool:
        pool.size = 2
        assert pool.map(lambda i: time.sleep(0.002 * (6 - i)) or -i,
                        range(6)) == [0, -1, -2, -3, -4, -5]
        assert pool.map(str, []) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_pool_map_nested_in_an_item_of_the_same_pool(threads):
    # fedcbo_round's aggregation items map their loss blocks on the pool that
    # runs them.  The inner map must finish on the threads it has, keep item
    # order, and fail like a flat map.
    before = threading.active_count()
    runs, lock, failing = [], threading.Lock(), set()

    def inner(item):
        with lock:
            runs.append(item)
        time.sleep(0)
        if item in failing:
            raise ValueError(item)
        return item

    with WorkerPool(threads) as pool:
        pool.size = threads   # two threads even on one CPU
        for _ in range(200):
            runs.clear()
            got = pool.map(lambda o: pool.map(inner, [(o, i) for i in range(5)]), range(6))
            assert got == [[(o, i) for i in range(5)] for o in range(6)]
            assert sorted(runs) == [(o, i) for o in range(6) for i in range(5)]
        failing.update([(3, 2), (4, 0)])
        with pytest.raises(ValueError) as err:
            pool.map(lambda o: pool.map(inner, [(o, i) for i in range(5)]), range(6))
        assert err.value.args == ((3, 2),)
    assert threading.active_count() == before


def test_pool_map_nested_in_a_busy_pool_runs_on_its_caller_and_keeps_nothing():
    # While both threads of a pool of two are inside outer items, an inner
    # map has no free helper.  It runs on its caller and queues nothing: a
    # cancelled helper left in the executor's queue would keep the inner
    # items alive until the outer map ends, one block's data per inner map.
    class Block:
        pass

    both_inside = threading.Barrier(2, timeout=10)

    def outer(_):
        both_inside.wait()
        block, caller = Block(), threading.get_ident()
        ran_on = pool.map(lambda b: threading.get_ident(), [block] * 3)
        ref = weakref.ref(block)
        del block
        gc.collect()
        return ran_on == [caller] * 3, ref() is None

    with WorkerPool(2) as pool:
        pool.size = 2   # two threads even on one CPU
        assert pool.map(outer, range(2)) == [(True, True)] * 2


def test_rotation_matrix_geometry():
    r = rotation_matrix(np.pi / 2.0, 4)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0, 0.0]), [0.0, 1.0, 0.0, 0.0],
                       atol=1e-12)
    assert np.allclose(r @ np.array([0.0, 0.0, 1.0, 0.0]), [0.0, 0.0, 1.0, 0.0],
                       atol=1e-12)
    assert np.allclose(r @ r.T, np.eye(4), atol=1e-12)


def test_dataset_layout_and_determinism():
    ds = generate_clustered_data(n_clusters=2, n_agents=4, n_per_agent=10,
                                 input_dim=3, n_classes=2, seed=0)
    assert ds.n_agents == 4
    assert ds.n_clusters == 2
    assert np.array_equal(ds.agent_cluster, [0, 1, 0, 1])
    assert ds.x[0].shape == (10, 3)
    assert ds.test_sets[0][0].shape == (400, 3)
    assert list(np.bincount(ds.agent_cluster, minlength=ds.n_clusters)) == [2, 2]

    again = generate_clustered_data(n_clusters=2, n_agents=4, n_per_agent=10,
                                    input_dim=3, n_classes=2, seed=0)
    for xa, ya, xb, yb in zip(ds.x, ds.y, again.x, again.y):
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)


def test_dataset_validation():
    with pytest.raises(InvalidParameterError):
        generate_clustered_data(3, 4, 10, 3, 2, seed=0)   # 4 agents, 3 clusters
    with pytest.raises(InvalidParameterError):
        generate_clustered_data(2, 4, 10, 1, 2, seed=0)   # needs a 2-D plane
    with pytest.raises(InvalidParameterError):
        generate_clustered_data(2, 4, 10, 3, 1, seed=0)   # one class
    with pytest.raises(InvalidParameterError):
        generate_clustered_data(2, 4, 0, 3, 2, seed=0)


def test_cluster_rotation_places_class_means_on_rotated_circle():
    # With tiny blobs and no noise dimensions the empirical class means must
    # sit on the radius-2 circle rotated by each cluster's angle.
    ds = generate_clustered_data(n_clusters=4, n_agents=4, n_per_agent=1,
                                 input_dim=3, n_classes=3, seed=5, radius=2.0,
                                 blob_std=1e-3, noise_std=0.0, n_test=600)
    base = 2.0 * np.stack([
        [np.cos(2.0 * np.pi * c / 3), np.sin(2.0 * np.pi * c / 3)]
        for c in range(3)
    ])
    for k in range(4):
        x, y = ds.test_sets[k]
        rot = rotation_matrix(2.0 * np.pi * k / 4, 2)
        for c in range(3):
            empirical = x[y == c, :2].mean(axis=0)
            assert np.allclose(empirical, rot @ base[c], atol=0.01)
        assert np.array_equal(x[:, 2], np.zeros(len(x)))
