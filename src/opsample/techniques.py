"""The eight sampling-and-estimation techniques.

Each technique is a sampling law: it consumes a population view
(predictions and auxiliary values only), a labeling oracle, its
:class:`TechniqueConfig` and a random stream, and returns its draws with
their selection probabilities and expansion factors v_s.  :func:`run_technique`
is the one path that labels the draws, estimates sum(v_s y_s) / (N n) and
builds a :class:`TechniqueResult` with the trace and the failures exposed.
Estimates are reported raw: the unequal-probability estimators can leave
[0, 1] on unlucky paths, and clamping would break unbiasedness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .auxvar import selection_probabilities
from .draw import RandomStream, srs_without_replacement
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

#: gbs's prior variance (one pseudo-observation per partition) and variance floor.
GBS_PRIOR_VARIANCE = 0.25
GBS_VARIANCE_FLOOR = 1e-6


@dataclass
class TechniqueConfig:
    """All technique knobs with their documented defaults."""

    technique: str = "srs"
    aux: str | None = None
    budget: int = 200
    # DeepEST
    r: float = 0.8
    threshold_quantile: float = 0.7
    # CES
    ces_initial: int = 30
    ces_group: int = 5
    ces_candidates: int = 300
    ces_bins: int = 10
    # Partition-based
    k: int = 10
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
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not math.isfinite(self.failure_threshold):
            raise ValueError("failure_threshold must be finite")


@dataclass
class TechniqueResult:
    """Outcome of one technique run.

    Draw s selected ``selected_ids[s]`` with selection probability
    ``probabilities[s]`` and expansion factor ``expansions[s]`` under the
    scheme tagged ``schemes[s]``: the trace that audits the run and its
    estimate.  ``counts`` holds the law's counters, nonnegative ints.
    """

    technique: str
    selected_ids: np.ndarray
    distinct_labeled: int
    estimate: float  # theta-hat (classification) or Delta-hat (regression)
    xi_hat: float
    failures: int
    probabilities: np.ndarray
    expansions: np.ndarray
    schemes: list
    offsets: np.ndarray | None = None
    counts: dict = field(default_factory=dict)
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
            "counts": self.counts,
            "knobs": self.knobs,
        }
        if include_trace:
            payload["trace"] = [
                {"step": s, "id": int(i), "probability": float(p), "expansion": float(v),
                 "scheme": tag}
                for s, (i, p, v, tag) in enumerate(
                    zip(self.selected_ids, self.probabilities, self.expansions, self.schemes)
                )
            ]
        return json.dumps(payload, indent=2, sort_keys=True)


def _estimand(pop: Population, outcomes):
    """The estimand y of an array of outcomes or of one: z, or delta^2 for regression."""
    if pop.task == CLASSIFICATION:
        return outcomes
    return outcomes * outcomes


class Draws(NamedTuple):
    """What a sampling law returns: its draws in order and what it counted.

    ``probabilities`` holds one selection probability per draw, and
    ``expansions`` one v_s per draw: v_s times its label estimates the total.
    ``schemes`` is either one scheme tag for every draw or one tag per draw.
    ``knobs`` holds the law's own; :func:`run_technique` adds the shared ones.
    """

    selected: np.ndarray
    expansions: np.ndarray
    probabilities: np.ndarray
    schemes: str | list
    counts: dict
    knobs: dict


# Every law has the signature law(pop, oracle, config, rng, chi, partition):
# chi is pop.aux_vector(config.aux), or None when config.aux is None, and
# partition the k-means map of the stratified techniques (or None); only gbs,
# whose selection follows the labels, reads the oracle.  What a law derives
# from chi or the features alone it keeps with pop._derived, keyed by
# config.aux and the knobs it reads, so a run pays for its draws; the map is
# kept there too, under _strata_key(config).


def _pi(pop, config, chi) -> np.ndarray:
    """The PPS selection probabilities of ``config.aux``'s column."""
    return pop._derived(("pi", config.aux), lambda: selection_probabilities(chi))


def _strata_key(config) -> tuple:
    """The key of ``config``'s k-means map: every input :func:`kmeans_1d` reads."""
    return ("strata", config.aux, config.k)


def _srs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Simple random sampling with replacement; each draw expands by N (the sample mean)."""
    n = config.budget
    selected = rng.integers(0, pop.N, size=n)
    return Draws(selected, np.full(n, float(pop.N)), np.full(n, 1.0 / pop.N), "srs-wr", {}, {})


def _sups(pop, oracle, config, rng, chi, partition) -> Draws:
    """PPS with replacement; Hansen-Hurwitz: each draw expands by 1/probability."""
    n = config.budget
    pi = _pi(pop, config, chi)
    selected = rng.weighted_index(pop._derived(("cum", config.aux), lambda: np.cumsum(pi)), n)
    return Draws(selected, 1.0 / pi[selected], pi[selected], "pps-wr", {}, {})


def _rhcs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Random grouping, one PPS draw per group, group-total reweighting.

    The drawn unit in group r expands by n q_r/pi_r, where q_r is the
    group's total selection probability, which makes the scheme
    without-replacement overall while keeping the estimator unbiased.
    """
    n = config.budget
    pi = _pi(pop, config, chi)
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
    return Draws(selected, n * (q / pi_selected), pi_selected / q, "rhc-pps", {}, {})


def _ces_features(pop: Population, chi) -> np.ndarray:
    feats = pop.features_matrix()
    if feats is not None:
        return feats
    if chi is not None:
        return chi[:, None]
    return np.column_stack([pop.aux_vector(a) for a in pop.aux_names])


class _SwapPool:
    """The ids in range(N) not drawn yet, ``ids[:size]``."""

    def __init__(self, N: int):
        self.ids = np.arange(N)
        self.pos = np.arange(N)  # pos[i] is id i's place in ids while i is in the pool
        self.size = N

    def remove(self, rid):
        """Swap ``rid``, which must be in the pool, with the pool's last id, and drop it."""
        ids, pos = self.ids, self.pos
        p, end = pos[rid], self.size - 1
        last = ids[end]
        ids[p], ids[end] = last, rid
        pos[last], pos[rid] = p, end
        self.size = end


def _ces_cells(X: np.ndarray, bins: int) -> tuple:
    """Each record's flattened (dimension, bin) cells, and the cells' population shares.

    Bins are equal-width per dimension over the operational range.
    """
    n_dims = X.shape[1]
    lo = X.min(axis=0)
    width = X.max(axis=0) - lo
    width[width == 0] = 1.0
    bin_idx = np.minimum(((X - lo) / width * bins).astype(np.int64), bins - 1)
    flat_idx = bin_idx + np.arange(n_dims) * bins
    pop_col = (np.bincount(flat_idx.ravel(), minlength=n_dims * bins) / len(X))[:, None]
    return flat_idx, pop_col


def _ces(pop, oracle, config, rng, chi, partition) -> Draws:
    """Cross-entropy sampling: grow a sample that imitates the feature distribution.

    Starting from a random initial set, repeatedly add the candidate group
    (of ``candidates`` random proposals) that minimizes the average add-one
    smoothed cross-entropy between the operational and selected per-feature
    histograms.  The estimate is the plain sample mean (v_s = N), biased by
    the selection; the exact oracle replays the groups' ``rng.distinct_rows``.

    A step scores every candidate in a few whole-array passes: the
    candidates' per-cell counts from one ``bincount``, and their cells'
    terms gathered from a (cells, g + 1) table.  Each score sums its row of
    terms in cell order with ``.sum(axis=1)``; numpy sums a row pairwise,
    so another order would change last bits and could flip a near-tie.
    """
    n, initial, group = config.budget, config.ces_initial, config.ces_group
    candidates, bins = config.ces_candidates, config.ces_bins
    # _ces_features' source: the features, else chi, else every aux column.
    source = "features" if pop.features_matrix() is not None else ("aux", config.aux)
    flat_idx, pop_col = pop._derived(
        ("ces", source, bins), lambda: _ces_cells(_ces_features(pop, chi), bins)
    )
    n_dims = flat_idx.shape[1]
    n_cells = n_dims * bins
    unselected = _SwapPool(pop.N)
    selected = list(srs_without_replacement(np.arange(pop.N), initial, rng))
    for rid in selected:
        unselected.remove(rid)
    sel_flat = np.bincount(flat_idx[selected].ravel(), minlength=n_cells).astype(float)
    probabilities = [1.0 / pop.N] * initial

    tables_g = None
    while len(selected) < n:
        g = min(group, n - len(selected))
        if g != tables_g:  # only the last group can be smaller: built at most twice
            tables_g = g
            k1 = np.arange(g + 1) + 1.0  # k + 1 for k = 0..g records added to a cell
            row_starts = np.repeat(np.arange(candidates) * n_cells, g * n_dims)
            row_starts = row_starts.reshape(candidates, -1)  # candidate c's cells in delta
            # Cell c's row in the term table, for each candidate's cells in delta.
            cell_rows = np.tile(np.arange(n_cells) * (g + 1), (candidates, 1))
        pool = unselected.ids[:unselected.size]
        # Candidate groups: SRS without replacement per group.
        cand = pool.take(rng.distinct_rows(pool.size, candidates, g))
        cells = flat_idx.take(cand, axis=0).reshape(candidates, -1)  # (C, g * n_dims)
        cells += row_starts
        delta = np.bincount(cells.ravel(), minlength=candidates * n_cells)
        delta = delta.reshape(candidates, n_cells)
        total = len(selected) + g
        # Cell c's term when a candidate adds k records to it, at [c, k];
        # sel_flat holds whole counts, so sel_flat + (k + 1) is exact.
        terms = pop_col * np.log((sel_flat[:, None] + k1) / (total + bins))
        delta += cell_rows
        # s / -n is -s / n bit for bit: a float quotient's sign is independent of its rounding.
        ce = terms.take(delta).sum(axis=1) / -n_dims
        best = int(ce.argmin())
        sel_flat += delta[best] - cell_rows[best]
        chosen = cand[best].tolist()
        selected.extend(chosen)
        probabilities.extend([1.0 / pool.size] * g)
        for rid in chosen:
            unselected.remove(rid)

    selected = np.array(selected, dtype=np.int64)
    schemes = ["ces-initial"] * initial + ["ces-group"] * (n - initial)
    knobs = {"initial": initial, "group": group, "candidates": candidates, "bins": bins}
    return Draws(selected, np.full(n, float(pop.N)), probabilities, schemes, {}, knobs)


def _deepest(pop, oracle, config, rng, chi, partition) -> Draws:
    """Adaptive failure-seeking sampler with step-by-step unbiased estimates.

    The first example is uniform; each later step uses weight-based sampling
    with probability r (guided toward high-chi regions) and uniform sampling
    otherwise, always without replacement.  Step k >= 1 estimates the
    total by the labels before it plus its pick over its marginal step
    probability q_k, step 0 by N y_0, and the estimate averages the n step
    estimates.  Gathered per draw, the first pick expands by N + n - 1 and
    pick j >= 1 by n - 1 - j + 1/q_j.

    At r = 0 selection degenerates to uniform sampling without replacement
    (step j has probability 1/(N - j)), and pick j expands by N + n - 1 - 2j.
    The estimate is unbiased, but it is not the plain sample mean.

    At r = 1 the estimate is biased: a step that does not fall back picks
    only above the threshold, so a record at or below it has step
    probability 0 and that step's total misses its outcome.  On failures
    [1, 0, 0, 1, 0], chi [0.1, 0.9, 0.3, 0.8, 0.5] and n = 3 the exact
    oracle gives E = 0.32 against the truth 0.4; every r < 1 gives 0.4.

    A uniform step draws ``rng.index(N, taken)`` over the ids not drawn yet,
    and a wbs step ``rng.index(A, taken_above)`` over the positions in the
    A above-threshold ids; both read chunked draws, so a run holds no
    N-wide array and makes a handful of generator calls.
    """
    n, r, N = config.budget, config.r, pop.N
    threshold, above_ids = pop._derived(
        ("deepest", config.aux, config.threshold_quantile),
        lambda: _above_quantile(chi, config.threshold_quantile),
    )
    fallbacks = 0

    # taken_above holds the positions in above_ids of the above ids drawn.
    first = rng.index(N)
    selected, taken, taken_above = [first], {first}, set()
    if chi[first] > threshold:
        taken_above.add(int(np.searchsorted(above_ids, first)))
    probabilities = [1.0 / N]
    schemes = ["srs-first"]
    chi_sel_sum = float(chi[first])

    for _ in range(n - 1):
        u, n_above = N - len(taken), above_ids.size - len(taken_above)
        # Determine the branch, then the marginal probability of the pick.
        fallback = n_above == 0 or chi_sel_sum <= 0
        if (not fallback) and rng.bernoulli(r):
            position = rng.index(above_ids.size, taken_above)
            taken_above.add(position)
            pick, is_above = int(above_ids[position]), True
            schemes.append("wbs")
        else:
            pick = rng.index(N, taken)
            is_above = chi[pick] > threshold
            if is_above:
                taken_above.add(int(np.searchsorted(above_ids, pick)))
            schemes.append("srs-step")
        if fallback:
            q = 1.0 / u
            fallbacks += 1
        else:
            wbs_p = (1.0 / n_above) if is_above else 0.0
            q = r * wbs_p + (1.0 - r) / u
        probabilities.append(q)
        taken.add(pick)
        selected.append(pick)
        chi_sel_sum += float(chi[pick])

    # Pick j's label enters step j over q_j and the n - 1 - j later steps once each.
    expansions = n - 1 - np.arange(n) + 1.0 / np.array(probabilities)
    expansions[0] = pop.N + n - 1
    knobs = {"r": r, "threshold_quantile": config.threshold_quantile, "threshold": threshold}
    counts = {"uniform_fallbacks": fallbacks}
    return Draws(np.array(selected), expansions, probabilities, schemes, counts, knobs)


def _above_quantile(chi, quantile: float) -> tuple:
    """deepest's threshold, chi's ``quantile``, and the ids of the records above it."""
    threshold = float(np.quantile(chi, quantile))
    return threshold, np.flatnonzero(chi > threshold)


def ssrs_allocation(pm: PartitionMap, n: int) -> np.ndarray:
    """Neyman allocation with a one-draw floor whenever the budget allows.

    A partition allocated zero draws contributes a hard 0 to the stratified
    estimate, which biases it whenever that partition's outcomes are not all
    zero.  When n >= P the floor restores exact unbiasedness by moving one
    draw from the largest allocations into each empty partition.
    """
    n_p = neyman_allocation(pm, n)
    if n >= pm.P:
        for p in np.flatnonzero(n_p == 0):
            donor = int(np.argmax(n_p))
            n_p[donor] -= 1
            n_p[p] = 1
    return n_p


def _ssrs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Stratified SRS: k-means partitions, Neyman allocation, per-stratum WOR draws.

    A draw in stratum p expands by n N_p / n_p: the stratified mean.
    """
    n, pm = config.budget, partition
    alloc = pop._derived((*_strata_key(config), n), lambda: ssrs_allocation(pm, n))
    draws, probabilities = [], []
    members = pm.member_lists()
    for p, n_p in enumerate(alloc.tolist()):
        draws.append(srs_without_replacement(members[p], n_p, rng))
        probabilities.append(1.0 / (pm.sizes[p] - np.arange(n_p)))
    expansions = n * np.repeat(pm.sizes, alloc) / np.repeat(alloc, alloc)
    knobs = {"allocation": alloc.tolist()}
    counts = {"zero_allocations": int(np.count_nonzero(alloc == 0))}
    probabilities = np.concatenate(probabilities)
    return Draws(np.concatenate(draws), expansions, probabilities, "ssrs-wor", counts, knobs)


def _gbs(pop, oracle, config, rng, chi, partition) -> Draws:
    """Adaptive stratified sampling chasing the steepest variance reduction.

    After a one-draw-per-partition warm-up, each step adds a with-replacement
    draw to the partition whose extra draw most reduces the estimated
    variance of the stratified estimator.  Running within-partition
    variances are smoothed with one pseudo-observation and floored so
    unexplored heterogeneity keeps every partition eligible.  A draw in
    partition p expands by n N_p / c_p, c_p its final draw count.

    A step changes one partition, so only that partition's gain is
    recomputed; counts, sums and gains are Python scalars, and every gain
    takes the same float operations as the elementwise array formula.  The
    warm-up draws its members in one batched call; each later step draws
    ``members[p][rng.index(N_p)]`` (and breaks a tie in gain by
    ``rng.index``), reading one chunk of draws per partition size.
    """
    n, pm = config.budget, partition
    members = pm.member_lists()
    sizes = pm.sizes.tolist()
    weight_sq = ((pm.sizes / pop.N) ** 2).tolist()

    counts = [0] * pm.P
    sums = [0.0] * pm.P
    sq_sums = [0.0] * pm.P
    gains = [math.inf] * pm.P  # unexplored partitions first
    selected = []
    drawn = []  # each draw's partition

    def record(p, rid):
        y = _estimand(pop, oracle.reveal(rid))
        c = counts[p] = counts[p] + 1
        sums[p] += y
        sq_sums[p] += y * y
        selected.append(rid)
        drawn.append(p)
        mean = sums[p] / c
        s2 = (c * (sq_sums[p] / c - mean * mean) + GBS_PRIOR_VARIANCE) / (c + 1)
        gains[p] = weight_sq[p] * max(s2, GBS_VARIANCE_FLOOR) * (1.0 / c - 1.0 / (c + 1))

    warm = pm.P
    if n < pm.P:
        warm = n
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
            p = best[rng.index(len(best))]
        record(p, int(members[p][rng.index(sizes[p])]))

    drawn = np.array(drawn)
    expansions = n * pm.sizes[drawn] / np.array(counts)[drawn]
    knobs = {"prior_variance": GBS_PRIOR_VARIANCE}
    undrawn = {"undrawn_partitions": pm.P - warm}
    return Draws(np.array(selected), expansions, 1.0 / pm.sizes[drawn], "gbs-wr", undrawn, knobs)


def _twoups(pop, oracle, config, rng, chi, partition) -> Draws:
    """Two-stage sampling: PPS over partitions, then WOR within the partition.

    Partition p is drawn with probability psi_p, its share of total
    normalized chi; a draw in it expands by N_p / psi_p.  Repeat hits keep
    drawing from its shrinking without-replacement pool; an exhausted pool
    is restored, and counted, falling back to with-replacement reuse.

    The pool size at each draw follows from the stage-one partitions alone,
    so the within-partition positions are drawn in one call, and the
    swap-with-last pools are replayed on maps of the positions they moved.
    """
    n, pm = config.budget, partition
    pi = _pi(pop, config, chi)
    psi = pop._derived((*_strata_key(config), "psi"), lambda: _partition_shares(pm, pi))
    members = pm.member_lists()

    stage = rng.weighted_index(np.cumsum(psi), n)
    # Draw t (from 0) on a partition of size s finds t % s of its pool
    # taken: the pool is restored after every s draws.
    counts = np.bincount(stage, minlength=pm.P)
    by_partition = np.argsort(stage, kind="stable")
    hit = np.empty(n, dtype=np.int64)
    hit[by_partition] = np.arange(n) - (np.cumsum(counts) - counts)[stage[by_partition]]
    sizes = pm.sizes[stage]
    taken = hit % sizes
    remaining = sizes - taken
    exhausted = {"exhausted_partitions": int(np.count_nonzero(hit == sizes))}

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
    knobs = {"psi": [float(x) for x in psi]}
    return Draws(selected, sizes / psi[stage], psi[stage] / remaining, "twoups", exhausted, knobs)


def _partition_shares(pm: PartitionMap, pi: np.ndarray) -> np.ndarray:
    """Each partition's share of ``pi``."""
    psi = np.array([pi[m].sum() for m in pm.member_lists()])
    return psi / psi.sum()


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
    try:
        _accepted_chi(pop, config)
    except ValueError as exc:
        return str(exc)
    return None


def _accepted_chi(pop: Population, config: TechniqueConfig) -> np.ndarray | None:
    """``pop``'s ``config.aux`` column, or None without one; raises :func:`refusal`'s reason.

    The column is read once, and its scan for negative values and its range
    are computed once per population.
    """
    entry = REGISTRY[config.technique]
    if pop.task == REGRESSION and config.aux in CLASSIFICATION_ONLY_AUX:
        raise ValueError(f"auxiliary variable {config.aux!r} is classification-only")
    if config.aux is not None and config.aux not in pop.aux_names:
        raise ValueError(f"auxiliary variable {config.aux!r} not present")
    chi = None if config.aux is None else pop.aux_vector(config.aux)  # refuses a negative value
    if entry.needs_chi and chi is None:
        raise ValueError(f"technique {config.technique!r} needs an auxiliary variable")
    if entry.weighted:
        bottom, top = pop._aux_range(config.aux)
        if top == 0:
            raise ValueError(
                f"auxiliary variable {config.aux!r} is all-zero, and {config.technique} draws by it"
            )
    if config.technique in ("sups", "rhcs", "twoups"):
        # A selection probability that rounds to 0 biases the reweighted
        # estimate (rhcs's turns NaN). None does while the smallest value,
        # after selection_probabilities' floor for zeros, is >= 2^-1000 max.
        if (bottom if bottom > 0 else 1e-9 * top) / top < 2.0**-1000:
            raise ValueError(f"auxiliary variable {config.aux!r} spans too wide a range")
    if entry.without_replacement and config.budget > pop.N:
        raise ValueError(f"budget {config.budget} exceeds population size {pop.N}")
    if config.technique == "ces" and config.budget < config.ces_initial:
        raise ValueError("CES budget must cover the initial set")
    if config.technique == "ces" and chi is None and pop.features_matrix() is None:
        # _ces_features then stacks every aux column.
        if not pop.aux_names:
            raise ValueError("CES needs feature columns or at least one auxiliary variable")
        for name in pop.aux_names:
            pop.aux_vector(name)  # refuses the first column holding a negative value
    return chi


def run_technique(
    pop: Population, oracle: LabelingOracle, config: TechniqueConfig, rng: RandomStream
) -> TechniqueResult:
    """Run a configured technique: the one path from a config to a result.

    chi is the population's ``config.aux`` column.  A stratified technique
    stratifies on k-means over chi with ``config.k``; the map is label-free,
    so ``pop`` keeps it and every run with the same key shares it.  It
    raises :func:`refusal`'s reason, if any, before any label.  The law
    draws; this function labels the draws in one call (gbs has labeled them
    already, and relabeling is free), estimates sum(v_s y_s) / (N n), keeps
    the selection probabilities and scheme tags, adds the knobs every run
    shares (``n``, and ``k`` and ``P`` if stratified) to the law's own, and
    counts the failures among the labels the oracle revealed.
    """
    chi = _accepted_chi(pop, config)
    entry = REGISTRY[config.technique]
    partition = None
    if entry.partitioned:
        partition = pop._derived(_strata_key(config), lambda: kmeans_1d(chi, config.k))
    strata = {"k": config.k, "P": partition.P} if entry.partitioned else {}
    draws = entry.law(pop, oracle, config, rng, chi, partition)
    y = _estimand(pop, oracle.reveal_many(draws.selected))
    # With v = N, srs's and ces's estimates round as k / n does, on the 1/n lattice.
    estimate = float(np.sum(draws.expansions * y)) / (pop.N * config.budget)

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
        estimate=estimate,
        xi_hat=1.0 - estimate,
        failures=failures,
        probabilities=np.asarray(draws.probabilities, dtype=float),
        expansions=np.asarray(draws.expansions, dtype=float),
        schemes=schemes,
        offsets=offsets,
        counts=draws.counts,
        knobs={"n": config.budget, **strata, **draws.knobs},
    )
