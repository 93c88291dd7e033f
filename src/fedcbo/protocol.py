"""The round-based collaborative protocol.

Each round has two phases.  Local update: every participating agent runs a
few SGD steps on its own shard.  Local aggregation: every agent samples a
model-download set with an epsilon-greedy rule driven by its likelihood
scores, pulls the sampled post-update models, weights them by their loss on
its own data, and contracts its model toward the resulting consensus point.

Nothing in this module sees cluster labels; selection quality is judged
afterwards by the harness, which is the only place that knows the hidden
assignment.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .consensus import consensus_point_for_agent
from .errors import DivergenceError, InvalidParameterError
from .learners import agent_blocks

log = logging.getLogger(__name__)


def epsilon_for_round(hp, round_idx):
    """Exploration rate of round ``round_idx`` (from 0), the share of each
    download budget ``greedy_sample`` draws uniformly:
    eps(n) = max(eps_start - eps_decay * n, eps_floor)."""
    if round_idx < 0:
        raise InvalidParameterError(f"round index must be >= 0, got {round_idx}")
    return max(hp.eps_start - hp.eps_decay * round_idx, hp.eps_floor)


def _round_half_up(x):
    return int(np.floor(x + 0.5))


# Exploitation orders integer keys: the bits of a double, with its low 63
# bits flipped when it is negative, order as the double does.
_LOW_BITS = np.int64(0x7FFFFFFFFFFFFFFF)
_NAN_KEY = np.float64(np.inf).view(np.int64) + 1   # every NaN: just above +inf
_TAKEN_KEY = np.iinfo(np.int64).max                # self and explored: after all


def _descending_keys(values):
    """int64 keys, in place of the float ``values``, whose ascending order is
    the order of ``-values`` in a NumPy sort: -0.0 equal to 0.0, and every
    NaN equal to every other and after +inf."""
    np.subtract(0.0, values, out=values)   # negates, and makes -0.0 into 0.0
    nan = np.isnan(values)
    keys = values.view(np.int64)
    keys ^= (keys >> 63) & _LOW_BITS
    keys[nan] = _NAN_KEY
    return keys


def greedy_sample(scores, own_id, participants, budget, eps, rng):
    """Two-stage epsilon-greedy selection of ``budget`` peers.

    An exploration block of round-half-up(eps * budget) peers is drawn
    uniformly without replacement; the rest are the peers with the highest
    ``scores[own_id, peer]``, ties broken toward the lower agent id, NaN
    last.  A budget larger than the available peers is clamped;
    ``fedcbo_round`` counts the clamps.  Returns a sorted id list.

    ``own_id`` may also be a 1-D array of n ids, with ``rng`` a sequence of
    n streams, one per id.  Every own id must be a participant.  The result is
    then an (n, budget) array whose row r is the sorted selection of
    ``own_id[r]`` on ``rng[r]``, as a one-id call returns it, and each stream
    is consumed alike.  Each agent's exploration is one ``rng.choice`` on its
    own stream, in agent order.  The exploitation of a block of agents is
    one array pass over their score rows.  Each ``-score`` becomes an
    integer key that orders as NumPy sorts floats, and self and explored
    peers get a key above every score's, NaN included.  Per row, the agent
    takes every peer whose key is below the n_exploit-th smallest, then the
    lowest ids among those equal to it: the order of ``lexsort((peers,
    -row))``, since both use only comparisons.  The n_exploit-th smallest
    key comes from a sort, because ``np.partition`` slows down several-fold
    on rows whose scores are mostly equal, as they are while few peers have
    been scored.
    """
    if not 0.0 <= eps <= 1.0:
        raise InvalidParameterError(f"eps must be in [0, 1], got {eps}")
    if budget < 0:
        raise InvalidParameterError(f"budget must be >= 0, got {budget}")
    single = np.ndim(own_id) == 0
    own = np.atleast_1d(np.asarray(own_id, dtype=int))
    streams = [rng] if single else rng
    participants = np.sort(np.asarray(participants, dtype=int))
    if not np.isin(own, participants).all():
        raise InvalidParameterError("own ids must be participants")
    m = participants.size - 1
    budget = min(budget, m)
    n_explore = min(budget, _round_half_up(eps * budget))
    n_exploit = budget - n_explore
    full = participants.size == len(scores)
    out = np.empty((own.size, budget), dtype=int)
    for block in (agent_blocks(own.size, participants.size) if budget else []):
        ids = own[block]
        rows = np.arange(ids.size)[:, None]
        # Participant column of own[r], and of its peer k: k + (k >= skip[r]).
        skip = np.searchsorted(participants, ids)[:, None]
        explored = np.empty((ids.size, 0), dtype=int)
        if n_explore:
            # Drawing positions among the peers consumes each stream exactly
            # as drawing the peers themselves does.
            draws = np.array([gen.choice(m, size=n_explore, replace=False)
                              for gen in streams[block]])
            explored = draws + (draws >= skip)
        picked = np.zeros((ids.size, participants.size), dtype=bool)
        if n_exploit:
            # The participants' score columns of the block's rows.  Indexing
            # copies, so the keys never overwrite ``scores``.
            block_scores = scores[ids] if full else scores[np.ix_(ids, participants)]
            key = _descending_keys(block_scores.astype(np.float64, copy=False))
            key[rows, explored] = _TAKEN_KEY
            key[rows, skip] = _TAKEN_KEY
            nth = np.sort(key, axis=1)[:, n_exploit - 1:n_exploit]
            below, tied = key < nth, key == nth
            # Of the peers tied at the threshold, the lowest ids fill the
            # places left.
            need = n_exploit - below.sum(axis=1, keepdims=True)
            tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= need
            np.logical_or(below, tied, out=picked)
        picked[rows, explored] = True
        pos = np.nonzero(picked)[1].reshape(ids.size, budget)
        out[block] = participants[pos]
    return out[0].tolist() if single else out


@dataclass
class AggregationResult:
    new_model: np.ndarray
    peer_losses: dict          # id -> loss of peer model on own data
    own_loss: float
    score_deltas: dict         # id -> own_loss - peer_loss
    dropped: list              # ids excluded for non-finite loss


def local_aggregation(own_id, own_model, downloads, loss_fn, hp):
    """Consensus contraction of one agent's model toward its download set.

    ``downloads`` maps peer id -> post-local-update model.  Peer models with
    non-finite loss are excluded from the consensus and from the score
    deltas, and reported in ``dropped``.  This is the one-agent reference
    for the batched aggregation inside ``fedcbo_round``.
    """
    point, losses, dropped = consensus_point_for_agent(
        own_id, own_model, downloads, loss_fn, hp.alpha,
        include_self=hp.include_self,
    )
    if dropped:
        log.warning("agent %d: dropped models with non-finite loss: %s", own_id, dropped)
    own_loss = losses.get(own_id)
    if own_loss is None:
        own_loss = float(loss_fn(own_model))
    step = hp.consensus_drift * hp.step_size
    new_model = own_model - step * (own_model - point.value)
    if not np.all(np.isfinite(new_model)):
        raise DivergenceError(f"agent {own_id}: model became non-finite in aggregation",
                              index=own_id)
    deltas = {
        i: own_loss - losses[i]
        for i in losses
        if i != own_id and i not in dropped
    }
    return AggregationResult(new_model=new_model, peer_losses=losses,
                             own_loss=own_loss, score_deltas=deltas,
                             dropped=dropped)


@dataclass
class RoundLog:
    """What happened in one protocol round, for diagnostics.

    The counters cover the aggregation phase: models downloaded, loss
    evaluations (downloads plus each agent's own model), peers dropped for
    a non-finite loss, and agents whose download budget was clamped to the
    available peers.
    """

    round_index: int
    participants: list
    eps: float
    selections: dict           # agent id -> sorted list of downloaded peer ids
    own_losses: dict           # agent id -> post-update loss on own shard
    dropped: dict = field(default_factory=dict)
    downloads: int = 0
    loss_evals: int = 0
    budget_clamps: int = 0

    @property
    def mean_local_loss(self):
        vals = list(self.own_losses.values())
        return float(np.mean(vals)) if vals else float("nan")

    def counters(self):
        return {"downloads": self.downloads, "loss_evals": self.loss_evals,
                "dropped": sum(len(ids) for ids in self.dropped.values()),
                "budget_clamps": self.budget_clamps}


def _contract(own, stack, losses, hp, usable):
    """Each agent r moves own[r] toward the Gibbs consensus of stack[r]
    (k, dim) under its losses[r] (k,); the arithmetic of
    ``consensus_point`` and ``local_aggregation``, one block at a time.
    A column outside the (n, k) ``usable`` mask gets weight 0 and takes its
    row's first usable column, so it moves neither clip bound.  Such a row
    equals the contraction over its usable columns, up to the sign of zero
    within 7 columns and to rounding beyond, where NumPy sums pairwise."""
    rows, cols = np.nonzero(~usable)
    if rows.size:
        fill = np.argmax(usable, axis=1)[rows]
        stack, losses = stack.copy(), losses.copy()
        stack[rows, cols], losses[rows, cols] = stack[rows, fill], losses[rows, fill]
    shifted = losses - losses.min(axis=1, keepdims=True)
    weights = np.exp(-hp.alpha * shifted)
    weights[rows, cols] = 0.0
    total = np.add.reduce(weights, axis=1)
    value = np.add.reduce(stack * weights[:, :, None], axis=1) / total[:, None]
    value = np.clip(value, stack.min(axis=1), stack.max(axis=1))
    step = hp.consensus_drift * hp.step_size
    return own - step * (own - value)


def _aggregate_block(agents, candidates, stack, losses, hp, scores):
    """New models of a block of agents, in one masked pass.  candidates[r]
    holds agent r's download ids then its own id, stack[r] those models and
    losses[r] their losses on agent r's data.  A peer with a non-finite loss
    is dropped: weight 0 and no score delta; the other peers' deltas go into
    the block's rows of ``scores``.  An agent fails if its own loss or its
    new model is not finite, or if it has no usable model.  Returns (new
    models, first failing row or len(agents), {agent: dropped peer ids} of
    the rows before it).
    """
    peer_ids, peer_losses, own_loss = candidates[:, :-1], losses[:, :-1], losses[:, -1]
    own = stack[:, -1]
    k = stack.shape[1] if hp.include_self else stack.shape[1] - 1
    usable = np.isfinite(losses[:, :k])
    # With include_self off and no peer, k is 0 and every agent fails.
    new = _contract(own, stack[:, :k], losses[:, :k], hp, usable) if k else own.copy()
    failed = ~np.isfinite(own_loss) | ~usable.any(axis=1) | ~np.isfinite(new).all(axis=1)
    first = int(np.argmax(failed)) if failed.any() else len(agents)
    kept = np.isfinite(peer_losses)
    rows, cols = np.nonzero(kept)
    scores[agents[rows], peer_ids[rows, cols]] += own_loss[rows] - peer_losses[rows, cols]
    dropped = {int(agents[r]): peer_ids[r, ~kept[r]].tolist()
               for r in np.flatnonzero(~kept[:first].all(axis=1))}
    return new, first, dropped


def _divergence(round_index, agent, phase):
    return DivergenceError(
        f"round {round_index}, agent {agent}: non-finite values in {phase}",
        step=round_index, index=agent)


# Overflow surfaces in the round's finiteness checks; NumPy's warnings would repeat them.
@np.errstate(over="ignore", invalid="ignore")
def fedcbo_round(models, tasks, scores, hp, round_index, streams,
                 participation=1.0, round_rng=None):
    """Advance every participating agent by one full round.

    ``models`` is the (n_agents, dim) array of current models; ``tasks``
    the agents' batched tasks (learners.ShardTasks or ObjectiveTasks);
    ``scores`` the (n_agents, n_agents) likelihood scores: row j holds the
    accumulated evidence (own loss - peer loss on j's data) that each peer
    shares agent j's distribution, and the diagonal is never read or
    written.  Per-agent randomness (mini-batches, selection) comes from
    ``streams``; ``round_rng`` only picks the participant set.

    Selection is one ``greedy_sample`` call for all participants.
    Aggregation is one ``tasks.pool`` map over agent blocks; each block
    writes only its own rows, so the results have the same bits on any
    number of threads.

    Returns (new_models, new_scores, RoundLog); the input state is never
    mutated.  An agent fails if its updated model, own loss or aggregated
    model is not finite, or if it has no usable model; the round then aborts
    with a DivergenceError naming the round (``step``) and the lowest
    failing agent (``index``).  Peers with a non-finite loss are dropped and
    logged in agent order, up to the failing agent.
    """
    n_agents = len(tasks)
    if models.shape[0] != n_agents or scores.shape != (n_agents, n_agents):
        raise InvalidParameterError("models, scores and tasks disagree on agent count")
    if not 0.0 < participation <= 1.0:
        raise InvalidParameterError(f"participation must be in (0, 1], got {participation}")

    if participation < 1.0:
        if round_rng is None:
            raise InvalidParameterError("partial participation requires round_rng")
        size = max(1, _round_half_up(participation * n_agents))
        participants = np.sort(round_rng.choice(n_agents, size=size, replace=False))
    else:
        participants = np.arange(n_agents)

    eps = epsilon_for_round(hp, round_index)
    rate = hp.grad_drift * hp.step_size

    # Phase 1: local updates, each agent on its own stream.
    updated = models.copy()
    updated[participants] = tasks.train(models[participants], participants,
                                        hp.local_steps, rate, streams)
    bad = ~np.isfinite(updated[participants]).all(axis=1)
    if bad.any():
        raise _divergence(round_index, int(participants[np.argmax(bad)]), "local update")

    # Phase 2: every agent samples its downloads from the round's input
    # scores, all agents in one call.
    picks = greedy_sample(scores, participants, participants, hp.download_budget, eps,
                          [streams[j] for j in participants])
    budget = picks.shape[1]

    # Phase 3: aggregation against the post-update models, one pool item per
    # agent block.  An item gathers its block's models, maps their losses on
    # the same pool, and writes only its own rows of the results.
    candidates = np.concatenate([picks, participants[:, None]], axis=1)
    new_models = updated.copy()
    new_scores = scores.copy()
    own_losses = np.empty(len(participants))

    def aggregate(block):
        agents = participants[block]
        stack = updated[candidates[block]]
        losses = tasks.losses(agents, stack)
        new_models[agents], first, dropped = _aggregate_block(
            agents, candidates[block], stack, losses, hp, new_scores)
        own_losses[block] = losses[:, -1]
        return agents, first, dropped

    blocks = agent_blocks(len(participants), candidates.shape[1] * models.shape[1],
                          tasks.pool.size)
    dropped = {}
    # Block by block, as a serial loop would: log the drops before the
    # lowest failing agent, then name it.
    for agents, first, block_dropped in tasks.pool.map(aggregate, blocks):
        for j, ids in block_dropped.items():
            log.warning("agent %d: dropped models with non-finite loss: %s", j, ids)
        dropped.update(block_dropped)
        if first < len(agents):
            raise _divergence(round_index, int(agents[first]), "aggregation")

    participants = participants.tolist()
    log_entry = RoundLog(round_index=round_index, participants=participants, eps=eps,
                         selections=dict(zip(participants, picks.tolist())),
                         own_losses=dict(zip(participants, own_losses.tolist())),
                         dropped=dropped, downloads=picks.size,
                         loss_evals=candidates.size,
                         budget_clamps=len(participants) * (budget < hp.download_budget))
    return new_models, new_scores, log_entry


def oracle_sr(hp, round_index, cluster_size, n_agents):
    """Expected selection ratio for an oracle whose exploitation picks are
    always same-cluster:  (1 - eps) + eps * (cluster_size - 1) / (n_agents - 1)."""
    if n_agents < 2:
        raise InvalidParameterError("need at least 2 agents")
    if not 1 <= cluster_size <= n_agents:
        raise InvalidParameterError("cluster_size must be in [1, n_agents]")
    eps = epsilon_for_round(hp, round_index)
    return (1.0 - eps) + eps * (cluster_size - 1) / (n_agents - 1)


def selection_ratio(selections, agent_cluster):
    """Mean over agents of the same-cluster fraction of their download set.

    Agents with empty selections are skipped; returns nan if every selection
    is empty.
    """
    ratios = []
    for j, picks in selections.items():
        if not picks:
            continue
        same = sum(1 for i in picks if agent_cluster[i] == agent_cluster[j])
        ratios.append(same / len(picks))
    return float(np.mean(ratios)) if ratios else float("nan")
