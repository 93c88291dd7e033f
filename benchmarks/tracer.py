"""Span tracing of fedcbo's layers from outside the package.

``install`` wraps a fixed list of layer-boundary functions and methods.  A
wrapped call records one span (name, start, end, parent, work) in memory;
``dump`` writes them all out once the traced command has finished.
``from .x import y`` binds ``y`` into the importing module at import time,
so every fedcbo module attribute that still holds the original function is
rebound to the wrapper as well (for example ``sde.consensus_point``,
``experiment.run_sde`` and ``diagnostics.run_sde``).  Methods are wrapped
on their class, so existing and future instances both see the wrapper.

``layer_metrics`` turns a dumped span file into the per-layer metrics.  A
span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so child spans never overlap.
"""

import functools
import json
import sys
import time

import numpy as np


# Hooks run after a wrapped call returns, outside its span.  Each gets
# (tracer, args, kwargs, result) and returns the span's units of work.

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(tracer, args, kwargs, result):
    return np.atleast_2d(_arg(args, kwargs, 0, "positions")).shape[0]


def _particle_steps(tracer, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    n_per_cluster = _arg(args, kwargs, 1, "n_per_cluster")
    t_steps = _arg(args, kwargs, 3, "t_steps")
    return problem.n_clusters * n_per_cluster * t_steps


def _projections(tracer, args, kwargs, result):
    projections = kwargs.get("projections")
    if projections is not None:
        return len(projections)
    return _arg(args, kwargs, 2, "n_projections", 64)


def _remember_labels(tracer, args, kwargs, result):
    tracer.labels = result.agent_cluster
    return 0


def _keep_round_log(tracer, args, kwargs, result):
    hp = _arg(args, kwargs, 3, "hp")
    tracer.rounds.append((tracer.labels, result[2], hp.download_budget))
    return 0


# (span name, module, attribute path, hook or None).  The span names
# are "<module>.<function>" so a reader can find the code they time.
TARGETS = [
    ("experiment.build_setup", "fedcbo.experiment", "build_setup", _remember_labels),
    ("experiment.run_protocol", "fedcbo.experiment", "run_protocol", None),
    ("protocol.fedcbo_round", "fedcbo.protocol", "fedcbo_round", _keep_round_log),
    ("protocol.greedy_sample", "fedcbo.protocol", "greedy_sample", None),
    ("protocol.local_aggregation", "fedcbo.protocol", "local_aggregation", None),
    ("consensus.consensus_point", "fedcbo.consensus", "consensus_point", _rows),
    ("consensus.consensus_point_for_agent", "fedcbo.consensus",
     "consensus_point_for_agent", None),
    ("learners.ShardTask.train", "fedcbo.learners", "ShardTask.train", None),
    ("learners.ShardTask.loss", "fedcbo.learners", "ShardTask.loss", None),
    ("learners.accuracy", "fedcbo.learners", "accuracy", None),
    ("learners.generate_clustered_data", "fedcbo.learners",
     "generate_clustered_data", None),
    ("baselines.fedavg_round", "fedcbo.baselines", "fedavg_round", None),
    ("baselines.ifca_round", "fedcbo.baselines", "ifca_round", None),
    ("baselines.local_only_round", "fedcbo.baselines", "local_only_round", None),
    ("sde.run_sde", "fedcbo.sde", "run_sde", _particle_steps),
    ("sde.make_cloud", "fedcbo.sde", "make_cloud", None),
    ("sde.cluster_consensus", "fedcbo.sde", "cluster_consensus", None),
    ("sde.cluster_variances", "fedcbo.sde", "cluster_variances", None),
    ("objectives.Objective.losses", "fedcbo.objectives", "Objective.losses", None),
    ("objectives.Objective.gradients", "fedcbo.objectives", "Objective.gradients",
     None),
    ("diagnostics.sliced_w1", "fedcbo.diagnostics", "sliced_w1", _projections),
    ("diagnostics.meanfield_scan", "fedcbo.diagnostics", "meanfield_scan", None),
    ("rng.stream", "fedcbo.rng", "stream", None),
]


class Tracer:
    """In-memory span recorder plus the round logs the protocol returns."""

    def __init__(self):
        self.names = []
        self.spans = []          # [name index, start, end, parent index, work]
        self._stack = []
        self.labels = None       # hidden cluster labels of the current setup
        self.rounds = []         # (labels, RoundLog, download budget)

    def wrap(self, name, fn, hook=None):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if hook is not None:
                span[4] = hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; fedcbo.cli must already be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fedcbo" or name.startswith("fedcbo.")]
        for span_name, module_name, path, hook in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, hook)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def round_counters(self):
        """Downloads, same-cluster downloads, dropped peers and budget clamps
        summed over every fedcbo round, scored with the hidden labels."""
        downloads = same = dropped = clamps = 0
        for labels, entry, budget in self.rounds:
            for j, picks in entry.selections.items():
                downloads += len(picks)
                same += sum(1 for i in picks if labels[i] == labels[j])
            dropped += sum(len(ids) for ids in entry.dropped.values())
            if budget > len(entry.participants) - 1:
                clamps += len(entry.participants)
        return {"downloads": downloads, "same_cluster": same,
                "dropped": dropped, "budget_clamps": clamps}

    def dump(self, path):
        doc = {"names": self.names, "spans": self.spans,
               "rounds": self.round_counters()}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _totals(doc):
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = dict.fromkeys(names, 0.0)
    self_time = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    work = dict.fromkeys(names, 0)
    top_level = 0.0
    for k, (name_index, start, end, parent, units) in enumerate(spans):
        name = names[name_index]
        total[name] += end - start
        self_time[name] += end - start - child[k]
        calls[name] += 1
        work[name] += units
        if parent < 0:
            top_level += end - start
    return total, self_time, calls, work, top_level


def layer_metrics(doc, run_s):
    """Per-layer metrics (name -> value) from one dumped span file.

    ``run_s`` is the traced command's wall time; ``trace.coverage`` is the
    share of it spent inside top-level spans.
    """
    total, self_time, calls, work, top_level = _totals(doc)
    rounds = doc["rounds"]
    point_calls = calls["consensus.consensus_point"]
    return {
        "protocol.round_s": total["protocol.fedcbo_round"],
        "protocol.select_s": total["protocol.greedy_sample"],
        "protocol.select_calls": calls["protocol.greedy_sample"],
        "protocol.aggregate_self_s": self_time["protocol.local_aggregation"],
        "protocol.downloads": rounds["downloads"],
        "protocol.dropped": rounds["dropped"],
        "protocol.budget_clamps": rounds["budget_clamps"],
        "protocol.same_cluster_frac": (rounds["same_cluster"] / rounds["downloads"]
                                       if rounds["downloads"] else 0.0),
        "learners.train_s": total["learners.ShardTask.train"],
        "learners.train_calls": calls["learners.ShardTask.train"],
        "learners.loss_s": total["learners.ShardTask.loss"],
        "learners.loss_calls": calls["learners.ShardTask.loss"],
        "learners.accuracy_s": total["learners.accuracy"],
        "learners.datagen_s": total["learners.generate_clustered_data"],
        "consensus.point_s": total["consensus.consensus_point"],
        "consensus.point_calls": point_calls,
        "consensus.rows_per_call": (work["consensus.consensus_point"] / point_calls
                                    if point_calls else 0.0),
        "consensus.for_agent_self_s": self_time["consensus.consensus_point_for_agent"],
        "baselines.fedavg_self_s": self_time["baselines.fedavg_round"],
        "baselines.ifca_self_s": self_time["baselines.ifca_round"],
        "baselines.local_self_s": self_time["baselines.local_only_round"],
        "sde.run_sde_self_s": self_time["sde.run_sde"],
        "sde.run_sde_calls": calls["sde.run_sde"],
        "sde.make_cloud_self_s": self_time["sde.make_cloud"],
        "sde.cluster_consensus_self_s": self_time["sde.cluster_consensus"],
        "sde.cluster_variances_s": total["sde.cluster_variances"],
        "sde.particle_steps": work["sde.run_sde"],
        "objectives.losses_s": total["objectives.Objective.losses"],
        "objectives.gradients_s": total["objectives.Objective.gradients"],
        "objectives.calls": (calls["objectives.Objective.losses"]
                             + calls["objectives.Objective.gradients"]),
        "diagnostics.sliced_w1_s": total["diagnostics.sliced_w1"],
        "diagnostics.sliced_w1_calls": calls["diagnostics.sliced_w1"],
        "diagnostics.projections": work["diagnostics.sliced_w1"],
        "diagnostics.meanfield_scan_self_s": self_time["diagnostics.meanfield_scan"],
        "rng.stream_s": total["rng.stream"],
        "rng.stream_calls": calls["rng.stream"],
        "experiment.build_setup_s": total["experiment.build_setup"],
        "experiment.build_setup_calls": calls["experiment.build_setup"],
        "experiment.run_protocol_self_s": self_time["experiment.run_protocol"],
        "trace.coverage": top_level / run_s if run_s > 0 else 0.0,
    }


def self_time_shares(doc, run_s):
    """Self time of every span name as a share of ``run_s``, largest first."""
    _, self_time, _, _, _ = _totals(doc)
    shares = {name: t / run_s for name, t in self_time.items() if t > 0}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
