"""Exact posterior enumeration for small panels, for sampler verification.

Once the genome-wide group-2 set is fixed, the joint factorizes over blocks,
and each block's mixture over group-0/1 labels has a closed form, its
label-summed weight (``JointModel.block_weights``). A partition's weight is
then a product of block weights, as in a product-partition model, so one
recursion over block boundaries (``tilings``), run forward and over the
mirrored blocks, sums every partition that satisfies the diplotype cap, for
all group-2 sets at once (one array entry per set). The mass covered is
identical to the brute-force state sum. The recursion costs one array
operation over the group-2 sets and one ``block_weights`` call per allowed
block, instead of one weight lookup per (partition, group-2 set, block).
Every output matches a labelling-by-labelling loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dataio import GenotypeDataset
from .model import (
    NEG_INF,
    ConstraintError,
    JointModel,
    PriorConfig,
    log_sum_exp,
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
    cache: dict[str, float] = field(default_factory=dict)  # marginals, block terms evaluated, cold time

    @property
    def assoc_posterior(self) -> np.ndarray:
        return self.marginal_posterior + self.epistatic_posterior


def tilings(blocks) -> np.ndarray:
    """Log sums over the tilings of [lo, i) by ``blocks``, one row per i from
    lo to hi, the least block start and the greatest block end.

    ``blocks`` lists (start, end, weight) triples, each weight an array over
    group-2 sets. The blocks ending at a point are summed in list order; a
    point where none ends has no tiling, and its row is -inf. Over the
    mirrored blocks (lo + hi - end, lo + hi - start, weight), the rows are
    the sums over the tilings of [i, hi), last i first.
    """
    lo = min(a for a, _, _ in blocks)
    hi = max(b for _, b, _ in blocks)
    ending = [[] for _ in range(hi - lo + 1)]
    for a, b, w in blocks:
        ending[b - lo].append((a - lo, w))
    f = np.full((hi - lo + 1, len(blocks[0][2])), NEG_INF)
    f[0] = 0.0
    for i in range(1, hi - lo + 1):
        if ending[i]:
            f[i] = log_sum_exp(np.stack([f[a] + w for a, w in ending[i]]))
    return f


def enumerate_posterior(dataset: GenotypeDataset, priors: PriorConfig) -> OracleResult:
    """Exactly sum the joint over all partitions and memberships."""
    n = dataset.n_snps
    if n > ORACLE_MAX_SNPS:
        raise OracleGuardError(
            f"exact enumeration is limited to {ORACLE_MAX_SNPS} SNPs, got {n}"
        )
    model = JointModel(dataset, priors)
    max_order = min(model.max_order, n)
    log_p2 = model.log_label[2]

    subsets: list[tuple[int, ...]] = [()]
    if log_p2 > NEG_INF:
        for k in range(1, max_order + 1):
            subsets.extend(combinations(range(n), k))
    g2 = np.array([model.group2_term(s) + len(s) * (log_p2 if s else 0.0) for s in subsets])
    set_bits = np.array([sum(1 << i for i in s) for s in subsets], dtype=np.int64)
    in_set = (set_bits[:, None] >> np.arange(n) & 1).astype(float)

    # Per allowed block and group-2 set: log weight plus the boundary odds
    # (the partition prior is n * log(1 - p) + blocks * log(p / (1 - p))),
    # and the same with each SNP of the block held at label 1.
    blocks, held = [], []
    for a, end in enumerate(model.allowed_ends()):
        for b in range(a + 1, end + 1):
            log_w, log_w1 = model.block_weights(a, b, set_bits >> a)
            blocks.append((a, b, model.boundary_odds + log_w))
            held.append(model.boundary_odds + log_w1)

    # fwd[i]: log sum over splits of SNPs [0, i); bwd[i]: of SNPs [i, n).
    fwd = tilings(blocks)
    bwd = tilings([(n - b, n - a, w) for a, b, w in blocks])[::-1]
    total = bwd[0]  # log sum over partitions, per group-2 set
    log_set = model.log_partition_prior(0) + g2 + total  # n * log(1 - p)
    top = float(log_set.max())
    if top == NEG_INF:
        raise ConstraintError("no state carries positive probability")
    wt = np.exp(log_set - top)
    # fwd[0] + bwd[0] - bwd[0] is exactly 0, so the first SNP's boundary mass
    # is the normalizer and its posterior is exactly 1.
    boundary = np.exp(fwd[:n] + bwd[:n] - total) @ wt
    z_rel = boundary[0]
    p1 = np.zeros(n)
    for (a, b, _), w1 in zip(blocks, held):
        p1[a:b] += wt @ np.exp((fwd[a] + bwd[b] - total)[:, None] + w1)
    p2 = wt @ in_set

    log_z = top + math.log(z_rel)
    states = 2 ** (n - 1) * sum(math.comb(n, k) * 2 ** (n - k) for k in range(max_order + 1))
    return OracleResult(
        marginal_posterior=p1 / z_rel,
        epistatic_posterior=p2 / z_rel,
        boundary_posterior=boundary / z_rel,
        log_normalizer=log_z,
        states_enumerated=states,
        cache=model.cache_sizes(),
    )
