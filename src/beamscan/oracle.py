"""Exact posterior enumeration for small panels, for sampler verification.

Once the genome-wide group-2 set is fixed, the joint factorizes over blocks,
and each block's mixture over group-0/1 labels has a closed form: its weight
is a sum over the block's label masks, taken from the same cached
``JointModel.block_term`` the sampler uses. A partition's weight is then a
product of block weights, so a forward-backward recursion over block
boundaries sums every partition that satisfies the diplotype cap, for all
group-2 sets at once (one array entry per set). The mass covered is identical
to the brute-force state sum. The recursion costs O(n^2 * group-2 sets)
array operations and one weight per (block, block-local group-2 set), instead
of one weight lookup per (partition, group-2 set, block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .dataio import GenotypeDataset
from .model import (
    NEG_INF,
    ConstraintError,
    JointModel,
    ModelConstraints,
    PriorConfig,
)

ORACLE_MAX_SNPS = 10


class OracleGuardError(ConstraintError):
    """Panel too large for exhaustive enumeration."""


@dataclass
class OracleResult:
    """Exact posteriors and evidence for one dataset."""

    marginal_posterior: np.ndarray  # P(label = 1) per SNP
    epistatic_posterior: np.ndarray  # P(label = 2) per SNP
    boundary_posterior: np.ndarray  # P(SNP starts a block)
    log_normalizer: float
    states_enumerated: int
    cache: dict[str, float] = field(default_factory=dict)  # memo entries and cold time at the end

    @property
    def assoc_posterior(self) -> np.ndarray:
        return self.marginal_posterior + self.epistatic_posterior


def _admissible_membership_count(n_snps: int, max_order: int) -> int:
    total = 0
    for k in range(0, min(max_order, n_snps) + 1):
        total += math.comb(n_snps, k) * (2 ** (n_snps - k))
    return total


def _logsumexp(stack: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp over axis 0; -inf where every entry is -inf."""
    top = stack.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(stack - shift).sum(axis=0))


def enumerate_posterior(
    dataset: GenotypeDataset,
    priors: PriorConfig,
    constraints: ModelConstraints | None = None,
) -> OracleResult:
    """Exactly sum the joint over all partitions and memberships."""
    n = dataset.n_snps
    if n > ORACLE_MAX_SNPS:
        raise OracleGuardError(
            f"exact enumeration is limited to {ORACLE_MAX_SNPS} SNPs, got {n}"
        )
    model = JointModel(dataset, priors, constraints)
    max_order = min(model.max_order, n)
    log_p2 = model.log_label[2]
    log_label01 = model.log_label[:2]
    # partition prior: n * log(1 - p) + blocks * log(p / (1 - p))
    odds = model.boundary_odds

    subsets: list[tuple[int, ...]] = [()]
    if log_p2 > NEG_INF:
        for k in range(1, max_order + 1):
            subsets.extend(combinations(range(n), k))
    g2 = np.array([model.group2_term(s) + len(s) * (log_p2 if s else 0.0) for s in subsets])
    in_set = np.zeros((len(subsets), n))
    for row, s in enumerate(subsets):
        in_set[row, list(s)] = 1.0
    set_bits = in_set.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))

    def block_weights(a: int, b: int, t_local: tuple[int, ...]) -> tuple[float, np.ndarray]:
        """(logW, per-local-SNP logW with label 1) over the block's free labels."""
        w = b - a
        free = [j for j in range(w) if j not in t_local]
        base = sum(2 * 3**j for j in t_local)
        terms: list[float] = []
        bits: list[tuple[int, ...]] = []
        for sigma in product((0, 1), repeat=len(free)):
            mask = base
            prior = 0.0
            for j, lab in zip(free, sigma):
                mask += lab * 3**j
                prior += log_label01[lab]
            terms.append(model.block_term(a, b, mask) + prior)
            bits.append(sigma)
        terms_arr = np.asarray(terms)
        ones = np.asarray(bits, dtype=bool).reshape(len(bits), len(free))
        log_w1 = np.full(w, NEG_INF)
        log_w1[free] = _logsumexp(np.where(ones, terms_arr[:, None], NEG_INF))
        return float(_logsumexp(terms_arr)), log_w1

    # A block's distinct-diplotype count bounds those of its sub-blocks, so when
    # any partition satisfies the cap every single-SNP block does, and every
    # allowed block lies on an allowed partition.
    allowed = [
        (a, b) for a in range(n) for b in range(a + 1, n + 1) if model.block_allowed(a, b)
    ]
    reached = {0}
    for a, b in allowed:
        if a in reached:
            reached.add(b)
    if n not in reached:
        raise ConstraintError("every partition violates the diplotype cap")

    # Per block and group-2 set: log weight plus the boundary odds, and the
    # same with each SNP of the block held at label 1.
    weight: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for a, b in allowed:
        local = (set_bits >> a) & ((1 << (b - a)) - 1)
        keys, inverse = np.unique(local, return_inverse=True)
        log_w = np.empty(len(keys))
        log_w1 = np.empty((len(keys), b - a))
        for k, key in enumerate(keys.tolist()):
            t_local = tuple(j for j in range(b - a) if (key >> j) & 1)
            log_w[k], log_w1[k] = block_weights(a, b, t_local)
        weight[(a, b)] = (odds + log_w[inverse], odds + log_w1[inverse])

    # fwd[i]: log sum over splits of SNPs [0, i); bwd[i]: of SNPs [i, n).
    fwd = np.full((n, len(subsets)), NEG_INF)
    fwd[0] = 0.0
    for end in range(1, n):
        rows = [fwd[a] + w for (a, b), (w, _) in weight.items() if b == end]
        fwd[end] = _logsumexp(np.stack(rows))
    bwd = np.full((n + 1, len(subsets)), NEG_INF)
    bwd[n] = 0.0
    for start in range(n - 1, -1, -1):
        rows = [w + bwd[b] for (a, b), (w, _) in weight.items() if a == start]
        bwd[start] = _logsumexp(np.stack(rows))

    total = bwd[0]  # log sum over partitions, per group-2 set
    log_set = model.log_partition_prior(0) + g2 + total  # n * log(1 - p)
    top = float(log_set.max())
    if top == NEG_INF:
        raise ConstraintError("no state carries positive probability")
    wt = np.exp(log_set - top)
    # fwd[0] + bwd[0] - bwd[0] is exactly 0, so the first SNP's boundary mass
    # is the normalizer and its posterior is exactly 1.
    boundary = np.exp(fwd + bwd[:n] - total) @ wt
    z_rel = boundary[0]
    p1 = np.zeros(n)
    for (a, b), (_, w1) in weight.items():
        p1[a:b] += wt @ np.exp((fwd[a] + bwd[b] - total)[:, None] + w1)
    p2 = wt @ in_set

    log_z = top + math.log(z_rel)
    states = (2 ** (n - 1)) * _admissible_membership_count(n, max_order)
    return OracleResult(
        marginal_posterior=p1 / z_rel,
        epistatic_posterior=p2 / z_rel,
        boundary_posterior=boundary / z_rel,
        log_normalizer=log_z,
        states_enumerated=states,
        cache=model.cache_sizes(),
    )
