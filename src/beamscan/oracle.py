"""Exact posterior enumeration for small panels, for sampler verification.

Once the genome-wide group-2 set is fixed, the joint factorizes over blocks,
and each block's mixture over group-0/1 labels has a closed form: its weight
is a sum over the block's labellings. A partition's weight is then a
product of block weights, so a forward-backward recursion over block
boundaries sums every partition that satisfies the diplotype cap, for all
group-2 sets at once (one array entry per set). The mass covered is identical
to the brute-force state sum. The recursion costs O(n^2 * group-2 sets)
array operations and one weight per (block, block-local group-2 set), instead
of one weight lookup per (partition, group-2 set, block).

The weights are computed in array passes, with each labelling given by two
bit keys, its labelled (label 1 or 2) and its group-2 SNPs, never by a
ternary mask. A block's labellings (``_label_shapes``: label priors, label-1
indicators, and both keys decoded once into distinct SNP-offset subsets)
depend only on its width and block-local group-2 sets, so blocks of one width
share them. Per block, one ``JointModel.block_terms`` call looks up each
subset's marginals once and returns every labelling's term, bit-equal to the
sampler's ``block_term`` and not memoized (each is evaluated once). The sets
of one size share a (sets x labels) array whose row-wise log-sum-exp is their
weight, its terms added in the order of a labelling-by-labelling loop, so
every output matches that loop bit for bit. A block's own work is the
``np.unique`` that maps the group-2 sets to its local sets, its block terms
and two log-sum-exps.
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


def _admissible_membership_count(n_snps: int, max_order: int) -> int:
    total = 0
    for k in range(0, min(max_order, n_snps) + 1):
        total += math.comb(n_snps, k) * (2 ** (n_snps - k))
    return total


def _logsumexp(stack: np.ndarray, axis: int = 0) -> np.ndarray:
    """Max-shifted log-sum-exp over ``axis``; -inf where every entry is -inf."""
    top = stack.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift.squeeze(axis) + np.log(np.exp(stack - shift).sum(axis=axis))


def _subsets(w: int, keys: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct bit keys of a width-``w`` block as tuples of SNP offsets,
    in ascending key order, and each key's row among them."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return [tuple(i for i in range(w) if k >> i & 1) for k in distinct.tolist()], inverse


def _label_shapes(w: int, keys: np.ndarray, log_label01: np.ndarray):
    """The labellings of a width-``w`` block with block-local group-2 sets ``keys``.

    A local set of m SNPs sums its block terms over the 0/1 labels sigma of
    its w - m free SNPs, in itertools.product order (first free SNP slowest),
    each plus its label prior summed over the free SNPs in index order. A
    labelling is two bit keys, offset i at bit i: its labelled SNPs (the
    set's key or'ed with the free SNPs at label 1) and its group-2 SNPs (the
    set's key). Per set size: the rows of ``keys`` of that size, sigma's
    prior, and which labellings hold each SNP at label 1 (sets x sigma x w).
    Then, over every labelling in that order, the ``_subsets`` of its
    labelled and of its group-2 keys.
    """
    bit = 1 << np.arange(w, dtype=np.int64)
    in_key = keys[:, None] & bit != 0
    size = in_key.sum(axis=1)
    groups, labelled, group2 = [], [], []
    for m in sorted(set(size.tolist())):
        same = (size == m).nonzero()[0]
        f = w - m
        sigma = np.arange(2**f)[:, None] >> np.arange(f - 1, -1, -1) & 1
        prior = np.zeros(2**f)
        for lab in sigma.T:
            prior = prior + log_label01[lab]
        free = (~in_key[same]).nonzero()[1].reshape(len(same), f)
        ones = bit[free] @ sigma.T  # the label-1 SNPs' keys, sets x sigma
        groups.append((same, prior, ones[:, :, None] & bit != 0))
        labelled.append((keys[same, None] | ones).ravel())
        group2.append(np.repeat(keys[same], 2**f))
    return groups, _subsets(w, np.concatenate(labelled)), _subsets(w, np.concatenate(group2))


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
    log_label01 = np.array(model.log_label[:2])
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
    # same with each SNP of the block held at label 1; blocks of one width
    # share their labellings.
    shapes: dict[tuple[int, bytes], tuple] = {}
    weight: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    evaluated = 0  # block terms
    for a, b in allowed:
        w = b - a
        keys, inverse = np.unique((set_bits >> a) & ((1 << w) - 1), return_inverse=True)
        shape = (w, keys.tobytes())
        if shape not in shapes:
            shapes[shape] = _label_shapes(w, keys, log_label01)
        groups, labelled, group2 = shapes[shape]
        terms = model.block_terms(a, b, labelled, group2)
        evaluated += terms.size
        log_w = np.empty(len(keys))
        log_w1 = np.empty((len(keys), w))
        done = 0
        for same, prior, ones in groups:
            group = terms[done : done + same.size * prior.size].reshape(same.size, -1) + prior
            done += group.size
            log_w[same] = _logsumexp(group, axis=1)
            log_w1[same] = _logsumexp(np.where(ones, group[:, :, None], NEG_INF), axis=1)
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
    cache = model.cache_sizes()
    cache["block_terms"] = evaluated
    return OracleResult(
        marginal_posterior=p1 / z_rel,
        epistatic_posterior=p2 / z_rel,
        boundary_posterior=boundary / z_rel,
        log_normalizer=log_z,
        states_enumerated=states,
        cache=cache,
    )
