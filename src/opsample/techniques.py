"""The eight sampling-and-estimation techniques.

Each technique is a sampling law: it consumes a population view
(predictions and auxiliary values only), a labeling oracle, its
:class:`TechniqueConfig` and a random stream, and returns its draws with
their selection probabilities and the point estimate.  :func:`run_technique`
is the one path that turns a law's draws into a :class:`TechniqueResult`
with the trace and the failures exposed.  Estimates are reported raw: the
unequal-probability estimators can leave [0, 1] on unlucky paths, and
clamping would break unbiasedness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .auxvar import selection_probabilities
from .draw import (
    RandomStream,
    pps_with_replacement,
    srs_with_replacement,
    srs_without_replacement,
)
from .partition import PartitionMap, kmeans_1d, neyman_allocation
from .population import CLASSIFICATION, REGRESSION, LabelingOracle, Population

__all__ = [
    "CLASSIFICATION_ONLY_AUX",
    "REGISTRY",
    "TECHNIQUES",
    "Technique",
    "TechniqueConfig",
    "TechniqueResult",
    "refusal",
    "run_technique",
    "ssrs_allocation",
]

#: Auxiliary variables that only make sense for classification tasks.
CLASSIFICATION_ONLY_AUX = {"confidence", "dsa"}


@dataclass
class TechniqueConfig:
    """All technique knobs with their documented defaults."""

    technique: str = "srs"
    aux: str | None = None
    budget: int = 200
    # DeepEST
    r: float = 0.8
    threshold_quantile: float = 0.7
    deepest_verbatim_regression: bool = False
    # CES
    ces_initial: int = 30
    ces_group: int = 5
    ces_candidates: int = 300
    ces_bins: int = 10
    # Partition-based
    k: int = 10
    partition_seed: int = 0
    gbs_prior_variance: float = 0.25
    gbs_variance_floor: float = 1e-6
    # Result shaping
    failure_threshold: float = 12.5

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [0, 1]")
        if not 0.0 <= self.threshold_quantile <= 1.0:
            raise ValueError("threshold_quantile must lie in [0, 1]")
        if self.ces_initial < 1 or self.ces_group < 1 or self.ces_candidates < 1:
            raise ValueError("CES sizes must be >= 1")
        if self.ces_bins < 1:
            raise ValueError("ces_bins must be >= 1")
        for name in ("gbs_prior_variance", "gbs_variance_floor"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class TechniqueResult:
    """Outcome of one technique run.

    Draw s selected ``selected_ids[s]`` with selection probability
    ``probabilities[s]`` under the scheme tagged ``schemes[s]``: the trace
    that audits the run's unbiasedness.
    """

    technique: str
    selected_ids: np.ndarray
    distinct_labeled: int
    estimate: float  # theta-hat (classification) or Delta-hat (regression)
    xi_hat: float
    failures: int
    probabilities: np.ndarray
    schemes: list
    offsets: np.ndarray | None = None
    flags: list = field(default_factory=list)
    knobs: dict = field(default_factory=dict)

    def to_json(self, include_trace: bool = False) -> str:
        payload = {
            "technique": self.technique,
            "selected_ids": [int(i) for i in self.selected_ids],
            "distinct_labeled": self.distinct_labeled,
            "estimate": self.estimate,
            "xi_hat": self.xi_hat,
            "failures": self.failures,
            "offsets": None if self.offsets is None else [float(x) for x in self.offsets],
            "flags": self.flags,
            "knobs": self.knobs,
        }
        if include_trace:
            payload["trace"] = [
                {"step": s, "id": int(i), "probability": float(p), "scheme": tag}
                for s, (i, p, tag) in enumerate(
                    zip(self.selected_ids, self.probabilities, self.schemes)
                )
            ]
        return json.dumps(payload, indent=2, sort_keys=True)


def _estimand(pop: Population, outcomes):
    """Per-draw estimator contributions: z for classification, delta^2 for regression.

    Takes an array of outcomes or one outcome; the square is a product, so
    a scalar and an array element give the same float.
    """
    if pop.task == CLASSIFICATION:
        return outcomes
    return outcomes * outcomes


class Draws(NamedTuple):
    """What a sampling law returns: its draws in order and what it noted.

    ``probabilities`` holds one selection probability per draw, and
    ``schemes`` is either one scheme tag for every draw or one tag per draw.
    ``knobs`` holds the law's own; :func:`run_technique` adds the shared ones.
    """

    selected: np.ndarray
    estimate: float
    probabilities: np.ndarray
    schemes: str | list
    flags: list
    knobs: dict


# Every law has the signature law(pop, oracle, config, rng, chi, partition):
# chi is the float array of the auxiliary variable (or None) and partition
# the k-means map of the stratified techniques (or None).


def _srs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Simple random sampling with replacement; estimate is the sample mean."""
    n = config.budget
    selected = srs_with_replacement(np.arange(pop.N), n, rng)
    y = _estimand(pop, oracle.reveal_many(selected))
    return Draws(selected, y.mean(), np.full(n, 1.0 / pop.N), "srs-wr", [], {})


def _sups(pop, oracle, config, rng, chi, partition) -> Draws:
    """PPS with replacement; Hansen-Hurwitz estimator reweights by 1/probability."""
    n = config.budget
    pi = selection_probabilities(chi)
    selected = pps_with_replacement(np.arange(pop.N), pi, n, rng)
    y = _estimand(pop, oracle.reveal_many(selected))
    estimate = float(np.sum(y / pi[selected])) / (n * pop.N)
    return Draws(selected, estimate, pi[selected], "pps-wr", [], {})


def _rhcs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Random grouping, one PPS draw per group, group-total reweighting.

    The drawn unit in group r is rescaled by q_r/pi_r where q_r is the
    group's total selection probability, which makes the scheme
    without-replacement overall while keeping the estimator unbiased.
    """
    n = config.budget
    pi = selection_probabilities(chi)
    # n near-equal groups: rem groups of base + 1, then n - rem of base.
    # Each run of equal sizes is one block with a group per row.
    base, rem = divmod(pop.N, n)
    order = rng.grouping(pop.N, [base + 1] * rem + [base] * (n - rem))
    cut = rem * (base + 1)
    picks, q = [], []
    for block in (order[:cut].reshape(rem, base + 1), order[cut:].reshape(n - rem, base)):
        w = pi[block]
        j = rng.weighted_index(np.cumsum(w, axis=1))
        picks.append(block[np.arange(len(block)), j])
        q.append(w.sum(axis=1))
    selected, q = np.concatenate(picks), np.concatenate(q)
    pi_selected = pi[selected]
    y = _estimand(pop, oracle.reveal_many(selected))
    estimate = float(np.sum(y * (q / pi_selected))) / pop.N
    return Draws(selected, estimate, pi_selected / q, "rhc-pps", [], {})


def _ces_features(pop: Population, chi) -> np.ndarray:
    feats = pop.features_matrix()
    if feats is not None:
        return feats
    if chi is not None:
        return chi[:, None]
    return np.column_stack([pop.aux_vector(a) for a in pop.aux_names])


class _SwapPool:
    """The ids not drawn yet, ``ids[:size]``: all N ids, or the ``ids`` given."""

    def __init__(self, N: int, ids: np.ndarray | None = None):
        self.ids = np.arange(N) if ids is None else ids
        self.pos = np.arange(N)  # pos[i] is id i's place in ids while i is in the pool
        if ids is not None:
            self.pos[ids] = np.arange(ids.size)
        self.size = self.ids.size

    def remove(self, rid):
        """Swap ``rid``, which must be in the pool, with the pool's last id, and drop it."""
        ids, pos = self.ids, self.pos
        p, end = pos[rid], self.size - 1
        last = ids[end]
        ids[p], ids[end] = last, rid
        pos[last], pos[rid] = p, end
        self.size = end


def _ces(pop, oracle, config, rng, chi, partition) -> Draws:
    """Cross-entropy sampling: grow a sample that imitates the feature distribution.

    Starting from a random initial set, repeatedly add the candidate group
    (of ``candidates`` random proposals) that minimizes the average add-one
    smoothed cross-entropy between the operational and selected per-feature
    histograms.  The estimate is the plain sample mean.
    """
    n, initial, group = config.budget, config.ces_initial, config.ces_group
    candidates, bins = config.ces_candidates, config.ces_bins
    X = _ces_features(pop, chi)
    n_dims = X.shape[1]
    # Equal-width bins per dimension over the operational range.
    lo = X.min(axis=0)
    width = X.max(axis=0) - lo
    width[width == 0] = 1.0
    bin_idx = np.minimum(((X - lo) / width * bins).astype(np.int64), bins - 1)

    n_cells = n_dims * bins
    cell_ids = np.arange(n_cells)
    row_starts = np.arange(candidates)[:, None] * n_cells  # candidate c's cells in delta
    flat_idx = bin_idx + np.arange(n_dims) * bins  # per record: flattened (dim, bin) cells
    pop_flat = np.bincount(flat_idx.ravel(), minlength=n_cells) / pop.N
    unselected = _SwapPool(pop.N)
    selected = list(srs_without_replacement(np.arange(pop.N), initial, rng))
    for rid in selected:
        unselected.remove(rid)
    sel_flat = np.bincount(flat_idx[selected].ravel(), minlength=n_cells).astype(float)
    probabilities = [1.0 / pop.N] * initial

    while len(selected) < n:
        g = min(group, n - len(selected))
        pool = unselected.ids[:unselected.size]
        # Candidate groups: iid index draws with within-group duplicates
        # redrawn, equivalent to SRS without replacement per group.
        idx = rng.integers(0, pool.size, size=(candidates, g))
        if g > 1:
            while True:
                srt = np.sort(idx, axis=1)
                same = srt[:, 1:] == srt[:, :-1]
                if not same.any():
                    break
                dup = same.any(axis=1)
                idx[dup] = rng.integers(0, pool.size, size=(int(dup.sum()), g))
        cand = pool[idx]
        cells = flat_idx[cand].reshape(candidates, -1)  # (C, g * n_dims)
        combined = (row_starts + cells).ravel()
        delta = np.bincount(combined, minlength=candidates * n_cells)
        delta = delta.reshape(candidates, n_cells)
        total = len(selected) + g
        # Cell c's term when a candidate adds k records to it, for k = 0..g;
        # each candidate's terms are gathered from this table.
        k = np.arange(g + 1)[:, None]
        terms = pop_flat * np.log((sel_flat + k + 1.0) / (total + bins))
        ce = -terms.ravel()[delta * n_cells + cell_ids].sum(axis=1) / n_dims
        best = int(np.argmin(ce))
        sel_flat += delta[best]
        selected.extend(cand[best].tolist())
        probabilities.extend([1.0 / pool.size] * g)
        for rid in cand[best]:
            unselected.remove(rid)

    selected = np.array(selected, dtype=np.int64)
    y = _estimand(pop, oracle.reveal_many(selected))
    schemes = ["ces-initial"] * initial + ["ces-group"] * (n - initial)
    knobs = {"initial": initial, "group": group, "candidates": candidates, "bins": bins}
    return Draws(selected, y.mean(), probabilities, schemes, [], knobs)


def _deepest(pop, oracle, config, rng, chi, partition) -> Draws:
    """Adaptive failure-seeking sampler with step-by-step unbiased estimates.

    The first example is uniform; each later step uses weight-based sampling
    with probability r (guided toward high-chi regions) and uniform sampling
    otherwise, always without replacement.  Each selected example's marginal
    step probability feeds a per-step Hansen-Hurwitz style total estimate;
    the final estimate averages the step estimates.

    At r = 0 selection degenerates to uniform sampling without replacement
    (step s has probability 1/(N - s)), and the estimate collapses to
    (1/n) * sum_j w_j * y_j with w_j = (N + n + 1 - 2j) / N for the j-th
    label.  It is unbiased, but it is not the plain sample mean.
    """
    n, r = config.budget, config.r
    verbatim_regression = config.deepest_verbatim_regression
    threshold = float(np.quantile(chi, config.threshold_quantile))
    flags = []

    unsel = _SwapPool(pop.N)
    above = _SwapPool(pop.N, np.flatnonzero(chi > threshold))

    # Selection reads chi and the pools only, so every label is revealed
    # after it, in one call.
    first = int(rng.integers(0, pop.N))
    selected = [first]
    unsel.remove(first)
    if chi[first] > threshold:
        above.remove(first)
    probabilities = [1.0 / pop.N]
    schemes = ["srs-first"]
    chi_sel_sum = float(chi[first])

    for k in range(2, n + 1):
        u, n_above = unsel.size, above.size
        # Determine the branch, then the marginal probability of the pick.
        fallback = n_above == 0 or chi_sel_sum <= 0
        use_wbs = (not fallback) and rng.bernoulli(r)
        if use_wbs:
            pick = int(above.ids[int(rng.integers(0, n_above))])
            schemes.append("wbs")
        else:
            pick = int(unsel.ids[int(rng.integers(0, u))])
            schemes.append("srs-step")
        is_above = chi[pick] > threshold
        if fallback:
            q = 1.0 / u
            flags.append(f"step {k}: all weights zero, uniform fallback")
        else:
            wbs_p = (1.0 / n_above) if is_above else 0.0
            q = r * wbs_p + (1.0 - r) / u
        probabilities.append(q)
        unsel.remove(pick)
        if is_above:
            above.remove(pick)
        selected.append(pick)
        chi_sel_sum += float(chi[pick])

    # Step k's total estimate takes the labels before it plus its pick over
    # q; cumsum adds in step order, as running sums would.
    y = _estimand(pop, oracle.reveal_many(selected)).astype(float)
    q = np.array(probabilities[1:])
    before = np.cumsum(y)[:-1]
    if pop.task == CLASSIFICATION or not verbatim_regression:
        terms = before + y[1:] / q
    else:
        k = np.arange(2, n + 1)
        terms = before / (k - 1) + (y[1:] / k) / q
    step_total = float(np.cumsum(terms)[-1]) if n > 1 else 0.0
    estimate = (float(y[0]) + step_total / pop.N) / n
    knobs = {
        "r": r,
        "threshold_quantile": config.threshold_quantile,
        "threshold": threshold,
        "transposed_weights": False,  # kept so result files keep their keys
        "verbatim_regression": verbatim_regression,
    }
    return Draws(np.array(selected), estimate, probabilities, schemes, flags, knobs)


def ssrs_allocation(pm: PartitionMap, n: int) -> np.ndarray:
    """Neyman allocation with a one-draw floor whenever the budget allows.

    A partition allocated zero draws contributes a hard 0 to the stratified
    estimate, which biases it whenever that partition's outcomes are not all
    zero.  When n >= P the floor restores exact unbiasedness by moving one
    draw from the largest allocations into each empty partition.  The
    per-partition sizes are cached on the map per budget, so they are
    computed once per (map, n), and the array is read-only.
    """
    if n not in pm.allocations:
        n_p = neyman_allocation(pm, n)
        if n >= pm.P:
            for p in np.flatnonzero(n_p == 0):
                donor = int(np.argmax(n_p))
                n_p[donor] -= 1
                n_p[p] = 1
        n_p.flags.writeable = False  # shared by every run that hits the cache
        pm.allocations[n] = n_p
    return pm.allocations[n]


def _ssrs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Stratified SRS: k-means partitions, Neyman allocation, per-stratum WOR draws."""
    n, pm = config.budget, partition
    alloc = ssrs_allocation(pm, n)
    flags = []
    draws = []
    probabilities = []
    members = pm.member_lists()
    for p, n_p in enumerate(alloc.tolist()):
        if n_p == 0:
            flags.append(f"partition {p}: zero allocation, contributes 0")
            continue
        draws.append(srs_without_replacement(members[p], n_p, rng))
        probabilities.append(1.0 / (pm.sizes[p] - np.arange(n_p)))
    selected = np.concatenate(draws)
    y = _estimand(pop, oracle.reveal_many(selected))
    estimate = 0.0
    for p, y_p in enumerate(np.split(y, np.cumsum(alloc)[:-1])):
        if y_p.size:
            estimate += pm.sizes[p] * y_p.mean()
    estimate /= pop.N
    knobs = {"allocation": alloc.tolist()}
    return Draws(selected, estimate, np.concatenate(probabilities), "ssrs-wor", flags, knobs)


def _gbs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Adaptive stratified sampling chasing the steepest variance reduction.

    After a one-draw-per-partition warm-up, each step adds a with-replacement
    draw to the partition whose extra draw most reduces the estimated
    variance of the stratified estimator.  Running within-partition
    variances are smoothed with one pseudo-observation and floored so
    unexplored heterogeneity keeps every partition eligible.

    A step changes one partition, so only that partition's gain is
    recomputed; counts, sums and gains are Python scalars, and every gain
    takes the same float operations as the elementwise array formula.
    """
    n, pm, prior_variance = config.budget, partition, config.gbs_prior_variance
    floor = config.gbs_variance_floor
    flags = []
    members = pm.member_lists()
    sizes = pm.sizes.tolist()
    weight_sq = ((pm.sizes / pop.N) ** 2).tolist()

    counts = [0] * pm.P
    sums = [0.0] * pm.P
    sq_sums = [0.0] * pm.P
    gains = [math.inf] * pm.P  # unexplored partitions first
    selected = []
    probabilities = []

    def record(p, rid):
        y = _estimand(pop, oracle.reveal(rid))
        c = counts[p] = counts[p] + 1
        sums[p] += y
        sq_sums[p] += y * y
        selected.append(rid)
        probabilities.append(1.0 / sizes[p])
        mean = sums[p] / c
        s2 = (c * (sq_sums[p] / c - mean * mean) + prior_variance) / (c + 1)
        gains[p] = weight_sq[p] * max(s2, floor) * (1.0 / c - 1.0 / (c + 1))

    warm = pm.P
    if n < pm.P:
        warm = n
        flags.append(f"budget {n} below partition count {pm.P}: warm-up truncated")
        order = np.argsort(-pm.sizes, kind="stable")[:warm]
    else:
        order = np.arange(pm.P)
    for p, j in zip(order.tolist(), rng.integers(0, pm.sizes[order]).tolist()):
        record(p, int(members[p][j]))

    while len(selected) < n:
        top = max(gains)
        p = gains.index(top)
        if gains.count(top) > 1:
            best = [p for p, gain in enumerate(gains) if gain == top]
            p = best[int(rng.integers(0, len(best)))]
        record(p, int(members[p][int(rng.integers(0, sizes[p]))]))

    estimate = 0.0
    for p in range(pm.P):
        if counts[p] == 0:
            flags.append(f"partition {p}: no draws, contributes 0")
            continue
        estimate += sizes[p] * (sums[p] / counts[p])
    estimate /= pop.N
    knobs = {"prior_variance": prior_variance}
    return Draws(np.array(selected), estimate, probabilities, "gbs-wr", flags, knobs)


def _twoups(pop, oracle, config, rng, chi, partition) -> Draws:
    """Two-stage sampling: PPS over partitions, then WOR within the partition.

    Partition selection probability is the partition's share of total
    normalized chi.  Repeat hits on a partition keep drawing from its
    shrinking without-replacement pool; an exhausted pool is restored (and
    flagged), falling back to with-replacement reuse.

    The pool size at each draw follows from the stage-one partitions alone,
    so the within-partition positions are drawn in one call, and the
    swap-with-last pools are replayed on maps of the positions they moved.
    """
    n, pm = config.budget, partition
    pi = selection_probabilities(chi)
    members = pm.member_lists()
    psi = np.array([pi[m].sum() for m in members])
    psi = psi / psi.sum()

    stage = pps_with_replacement(np.arange(pm.P), psi, n, rng)
    # Draw t (from 0) on a partition of size s finds t % s of its pool
    # taken: the pool is restored after every s draws.
    counts = np.bincount(stage, minlength=pm.P)
    by_partition = np.argsort(stage, kind="stable")
    hit = np.empty(n, dtype=np.int64)
    hit[by_partition] = np.arange(n) - (np.cumsum(counts) - counts)[stage[by_partition]]
    sizes = pm.sizes[stage]
    taken = hit % sizes
    remaining = sizes - taken
    flags = [
        f"partition {p}: pool exhausted, reused with replacement"
        for p in stage[hit == sizes].tolist()
    ]

    moved = [{} for _ in range(pm.P)]  # per pool: position -> member index now there
    selected = np.empty(n, dtype=np.int64)
    positions = rng.integers(0, remaining).tolist()
    for step, (p, j, left, t) in enumerate(
        zip(stage.tolist(), positions, remaining.tolist(), taken.tolist())
    ):
        pool = moved[p]
        if t == 0:
            pool.clear()
        selected[step] = members[p][pool.get(j, j)]
        pool[j] = pool.get(left - 1, left - 1)  # swap with the pool's last position
    y = _estimand(pop, oracle.reveal_many(selected))
    estimate = float(np.sum(y * (sizes / psi[stage]))) / (pop.N * n)
    knobs = {"psi": [float(x) for x in psi]}
    return Draws(selected, estimate, psi[stage] / remaining, "twoups", flags, knobs)


@dataclass(frozen=True)
class Technique:
    """A registry entry: one sampling law, and what :func:`run_technique` hands it.

    A law that does not need chi is still handed it when ``config.aux`` is
    set; ces uses it then, and falls back to features or every aux column.
    """

    law: Callable[..., Draws]
    needs_chi: bool
    partitioned: bool = False  # takes a PartitionMap of k-means strata on chi
    without_replacement: bool = False  # run_technique refuses a budget above N
    weighted: bool = False  # draws in proportion to chi: run_technique refuses an all-zero chi


#: Every technique, in report order.
REGISTRY = {
    "srs": Technique(_srs, False),
    "sups": Technique(_sups, True, weighted=True),
    "rhcs": Technique(_rhcs, True, without_replacement=True, weighted=True),
    "ces": Technique(_ces, False, without_replacement=True),
    "deepest": Technique(_deepest, True, without_replacement=True, weighted=True),
    "ssrs": Technique(_ssrs, True, True, without_replacement=True),
    "gbs": Technique(_gbs, True, True),
    "twoups": Technique(_twoups, True, True, weighted=True),
}

TECHNIQUES = tuple(REGISTRY)


def refusal(pop: Population, config: TechniqueConfig) -> str | None:
    """Why :func:`run_technique` refuses ``config`` on ``pop`` before any label, or None."""
    entry = REGISTRY[config.technique]
    if pop.task == REGRESSION and config.aux in CLASSIFICATION_ONLY_AUX:
        return f"auxiliary variable {config.aux!r} is classification-only"
    if config.aux is not None and config.aux not in pop.aux_names:
        return f"auxiliary variable {config.aux!r} not present"
    reason = _negative_aux(pop, [] if config.aux is None else [config.aux])
    if reason is not None:
        return reason
    if entry.needs_chi and config.aux is None:
        return f"technique {config.technique!r} needs an auxiliary variable"
    if entry.weighted and not pop.aux_vector(config.aux).any():
        return f"auxiliary variable {config.aux!r} is all-zero, and {config.technique} draws by it"
    if entry.without_replacement and config.budget > pop.N:
        return f"budget {config.budget} exceeds population size {pop.N}"
    if config.technique == "ces" and config.budget < config.ces_initial:
        return "CES budget must cover the initial set"
    if config.technique == "ces" and config.aux is None and pop.features_matrix() is None:
        # _ces_features then stacks every aux column.
        if not pop.aux_names:
            return "CES needs feature columns or at least one auxiliary variable"
        return _negative_aux(pop, pop.aux_names)
    return None


def _negative_aux(pop: Population, names) -> str | None:
    """aux_vector's refusal of the first named column holding a negative value, or None."""
    for name in names:
        try:
            pop.aux_vector(name)
        except ValueError as exc:
            return str(exc)
    return None


def run_technique(
    pop: Population,
    oracle: LabelingOracle,
    config: TechniqueConfig,
    rng: RandomStream,
    partition: PartitionMap | None = None,
) -> TechniqueResult:
    """Run a configured technique: the one path from a config to a result.

    chi is the population's ``config.aux`` column.  A stratified technique
    stratifies on k-means over chi with ``config.k`` and
    ``config.partition_seed``; callers share that map across runs by passing
    it as ``partition``.  It raises :func:`refusal`'s reason, if any, before
    any label.  The law draws; this function keeps its selection
    probabilities and scheme tags, one per draw, adds the knobs every run
    shares (``n``, and ``k`` and ``P`` if stratified) to the law's own, and
    counts the failures among the labels the oracle revealed.
    """
    reason = refusal(pop, config)
    if reason is not None:
        raise ValueError(reason)
    entry = REGISTRY[config.technique]
    chi = None if config.aux is None else pop.aux_vector(config.aux)
    if entry.partitioned and partition is None:
        partition = kmeans_1d(chi, config.k, config.partition_seed)
    strata = {"k": config.k, "P": partition.P} if entry.partitioned else {}
    draws = entry.law(pop, oracle, config, rng, chi, partition)

    schemes = draws.schemes
    if isinstance(schemes, str):
        schemes = [schemes] * len(draws.selected)
    _, labeled_outcomes = oracle.labeled_outcomes()
    if pop.task == CLASSIFICATION:
        failures = int(labeled_outcomes.sum())
        offsets = None
    else:
        failures = int(np.count_nonzero(labeled_outcomes >= config.failure_threshold))
        offsets = labeled_outcomes
    return TechniqueResult(
        technique=config.technique,
        selected_ids=np.asarray(draws.selected),
        distinct_labeled=oracle.reveal_count,
        estimate=float(draws.estimate),
        xi_hat=1.0 - float(draws.estimate),
        failures=failures,
        probabilities=np.asarray(draws.probabilities, dtype=float),
        schemes=schemes,
        offsets=offsets,
        flags=draws.flags,
        knobs={"n": config.budget, **strata, **draws.knobs},
    )
