"""Joint probability of case-control genotypes under a block partition and
per-SNP membership labels.

SNPs are partitioned into contiguous blocks, given by their start indices
(the first is 0). Each SNP carries a label: 0 (unassociated), 1 (marginally
associated) or 2 (jointly/epistatically associated). Within a block,
labelled SNPs get cohort-specific diplotype distributions while the
unlabelled remainder is explained conditionally on them; group-2 SNPs across
the genome share one joint case and one joint control distribution. The
prior's two caps (distinct diplotypes per block, interaction order) bound its
support: a state beyond either has zero prior mass, signalled by -inf.

A block is scored in two layers: its block term for one labelling, and its
block weight per group-2 set, the terms plus label priors summed over the 0/1
labels of its free SNPs, with which the exact enumerator tiles the panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import GenotypeDataset
from .likelihood import RHO_DEFAULT, WHO_BOTH, WHO_CASES, WHO_CONTROLS, LikelihoodEngine, checked_rho

NEG_INF = float("-inf")
PRIOR_BLOCKS_DEFAULT = 50_000.0  # expected genome-wide block count behind the boundary prior


class ConstraintError(ValueError):
    """A hard model constraint or guard was violated."""


@dataclass(frozen=True)
class PriorConfig:
    """The model's prior: boundary probability, label probabilities, rho, and
    the two caps that bound its support.

    The group-0 probability ``p0`` is what ``p1`` and ``p2`` leave. A block
    with more than ``max_distinct_diplotypes`` distinct diplotypes, or a
    group-2 set of more than ``max_order`` SNPs, has zero prior mass.
    """

    p_boundary: float
    p1: float
    p2: float
    max_distinct_diplotypes: int
    max_order: int
    rho: float = RHO_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.p_boundary <= 0.5:
            raise ValueError("p_boundary must lie in (0, 0.5]")
        for name in ("p1", "p2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.p0 <= 0.0:
            raise ValueError("p0 = 1 - p1 - p2 must be positive")
        checked_rho(self.rho)
        if self.max_distinct_diplotypes < 1 or self.max_order < 1:
            raise ValueError("max_distinct_diplotypes and max_order must be at least 1")

    @property
    def p0(self) -> float:
        return 1.0 - self.p1 - self.p2


def default_priors(
    n_snps: int,
    region_length: int,
    n_cases: int,
    n_controls: int,
    prior_blocks: float = PRIOR_BLOCKS_DEFAULT,
    rho: float = RHO_DEFAULT,
    p1: float | None = None,
    p2: float | None = None,
    max_order: int | None = None,
) -> PriorConfig:
    """Derive the default prior, caps included, from panel dimensions.

    The boundary prior scales the expected genome-wide block count
    (``prior_blocks`` over 3 Gb) down to the panel; the association priors
    expect about five associated SNPs. The caps bound the prior's support
    by what the pooled sample can estimate: a block holds at most one
    distinct diplotype per ten individuals, less one, and the interaction
    order is the base-3 log of a tenth of the sample (``max_order``
    overrides it). That needs at least 30 individuals, or none at all: then
    the likelihood is constant, no block holds a diplotype, and both caps are
    at their floor of 1.
    """
    if n_snps < 1:
        raise ValueError("n_snps must be at least 1")
    if region_length < 1:
        raise ValueError("region_length must be at least 1")
    total = n_cases + n_controls
    if 0 < total < 30:
        raise ConstraintError(
            f"need at least 30 individuals for usable constraints, got {total}"
        )
    cap = max(math.ceil(total / 10.0) - 1, 1)
    if max_order is None:
        max_order = max(int(math.floor(math.log(max(total, 10) / 10.0, 3) + 1e-9)), 1)
    return PriorConfig(
        p_boundary=min(0.5, prior_blocks * region_length / (3.0e9 * n_snps)),
        p1=min(0.1, 5.0 / n_snps) if p1 is None else p1,
        p2=min(0.1, 5.0 / n_snps) if p2 is None else p2,
        max_distinct_diplotypes=cap,
        max_order=max_order,
        rho=rho,
    )


class JointModel:
    """Cached evaluator of the joint log probability for one dataset.

    ``block_term`` evaluates one block's labels, given as a
    ``mask_from_labels`` mask: the sampler's hot path, which revisits
    configurations, so its terms are memoized by (start, end, mask), and the
    underlying diplotype marginals by (SNP subset, cohort). ``block_terms``
    evaluates a batch of one block's labellings, which come as decoded
    labelled and group-2 subsets, not masks; only the marginals they share
    are memoized, since the exact enumerator asks for each block term once.
    Its values are bit-equal to ``block_term``'s. ``block_weights`` builds a
    block's labellings per group-2 set, leaving out those of zero prior
    mass, which add nothing to a weight, sums them with one ``block_terms``
    call, and keeps the labellings (not the weights) for blocks of the same
    shape, the width and block-local group-2 sets on which alone they depend.
    """

    def __init__(self, dataset: GenotypeDataset, priors: PriorConfig):
        self.engine = LikelihoodEngine(dataset, priors.rho)
        self.n_snps = dataset.n_snps
        self.snp_ids = dataset.snp_ids
        self.max_distinct_diplotypes = priors.max_distinct_diplotypes
        self.max_order = priors.max_order
        self._log_p = math.log(priors.p_boundary)
        self._log_1mp = math.log1p(-priors.p_boundary)
        # log p(boundary) - log p(no boundary): the prior change per added block
        self.boundary_odds = self._log_p - self._log_1mp
        self.log_label = (
            math.log(priors.p0),
            math.log(priors.p1) if priors.p1 > 0 else NEG_INF,
            math.log(priors.p2) if priors.p2 > 0 else NEG_INF,
        )
        self._block_terms: dict[tuple[int, int, int], float] = {}
        self._batch_terms = 0  # block terms evaluated by ``block_terms``
        # (width, block-local group-2 keys) -> that block shape's labellings
        self._shapes: dict[tuple[int, bytes], tuple] = {}

    # -- the prior's support ------------------------------------------------

    def block_allowed(self, a: int, b: int) -> bool:
        """True when the block's observed diplotype diversity is within cap."""
        return self.engine.distinct_count(tuple(range(a, b))) <= self.max_distinct_diplotypes

    def check_singletons(self) -> None:
        """Raise ConstraintError, naming the first SNP over the diplotype cap
        even as a singleton block. A block's distinct-diplotype count bounds
        those of its sub-blocks, so some partition satisfies the cap exactly
        when every singleton block does."""
        for i in range(self.n_snps):
            if not self.block_allowed(i, i + 1):
                raise ConstraintError(
                    f"SNP {self.snp_ids[i]} (index {i}) is over the diplotype cap even as a "
                    "singleton block, so every partition violates the diplotype cap"
                )

    def allowed_ends(self) -> list[int]:
        """For each start a, the end of its widest block within the diplotype
        cap, after ``check_singletons``: the allowed blocks are exactly the
        [a, b) with b up to that end. The ends never decrease, since a
        block's distinct-diplotype count bounds its sub-blocks', so each
        start extends the last end until the first block over the cap: at
        most 2n ``block_allowed`` calls in the scan, plus the n of
        ``check_singletons``, 3n in all."""
        self.check_singletons()
        ends = []
        b = 1
        for a in range(self.n_snps):
            b = max(b, a + 1)
            while b < self.n_snps and self.block_allowed(a, b + 1):
                b += 1
            ends.append(b)
        return ends

    # -- model terms ----------------------------------------------------------

    def block_term(self, a: int, b: int, mask: int) -> float:
        """Log conditional probability of one block's data given its labels.

        ``mask`` is ``mask_from_labels(labels, a, b)``: two bits per SNP,
        SNP ``a`` lowest. Returns -inf for a block over the diplotype cap.
        An unlabelled block's term (``mask == 0``) is its combined-cohort
        marginal: its other five marginals are the empty set's 0.0, and
        adding or subtracting 0.0 leaves a marginal bit for bit as it is.
        """
        key = (a, b, mask)
        hit = self._block_terms.get(key)
        if hit is not None:
            return hit
        if not self.block_allowed(a, b):
            self._block_terms[key] = NEG_INF
            return NEG_INF
        if not mask:
            value = self._block_terms[key] = self.engine.marginal(tuple(range(a, b)), WHO_BOTH)
            return value
        x: list[int] = []
        x2: list[int] = []
        m = mask
        for snp in range(a, b):
            lab = m & 3
            m >>= 2
            if lab:
                x.append(snp)
                if lab == 2:
                    x2.append(snp)
        eng = self.engine
        whole = tuple(range(a, b))
        xs, x2s = tuple(x), tuple(x2)
        value = (
            eng.marginal(xs, WHO_CASES)
            + eng.marginal(xs, WHO_CONTROLS)
            + eng.marginal(whole, WHO_BOTH)
            - eng.marginal(xs, WHO_BOTH)
            - eng.marginal(x2s, WHO_CASES)
            - eng.marginal(x2s, WHO_CONTROLS)
        )
        self._block_terms[key] = value
        return value

    def block_terms(self, a: int, b: int, labelled, group2) -> np.ndarray:
        """``block_term`` of a batch of labellings of the block [a, b).

        ``labelled`` and ``group2`` are (subsets, inverse) pairs, one for the
        labellings' labelled SNPs (label 1 or 2) and one for their group-2
        SNPs: ``subsets`` lists distinct SNP subsets as tuples of offsets from
        ``a``, and ``inverse`` gives each labelling's row in it. Each subset's
        marginals are looked up once and combined elementwise in
        ``block_term``'s order, so every value is bit-equal to the scalar's.
        Nothing is memoized per labelling.
        """
        self._batch_terms += len(labelled[1])
        if not self.block_allowed(a, b):
            return np.full(len(labelled[1]), NEG_INF)
        eng = self.engine

        def looked_up(decoded, cohorts):
            """Per labelling, the marginal in each cohort of its SNP subset."""
            subsets, inverse = decoded
            table = np.array([
                [eng.marginal(snps, who) for who in cohorts]
                for snps in [tuple([a + i for i in subset]) for subset in subsets]
            ])
            return table.reshape(len(subsets), len(cohorts))[inverse].T

        mc_x, mu_x, mb_x = looked_up(labelled, (WHO_CASES, WHO_CONTROLS, WHO_BOTH))
        mc_x2, mu_x2 = looked_up(group2, (WHO_CASES, WHO_CONTROLS))
        mb_whole = eng.marginal(tuple(range(a, b)), WHO_BOTH)
        return mc_x + mu_x + mb_whole - mb_x - mc_x2 - mu_x2

    def block_weights(self, a: int, b: int, keys: np.ndarray):
        """Label-summed log weights of the block [a, b), per group-2 set.

        ``keys`` holds each group-2 set as a block-local int64 bit key, SNP
        a + j at bit j; bits at or past the block's width are ignored. The
        block's group-2 SNPs keep label 2 and its free SNPs take every
        0/1 labelling of nonzero prior, each scored by its ``block_term`` plus
        the free SNPs' label priors. Returns the log-sum-exp over the
        labellings per set, and over those that hold each SNP at label 1
        (sets x w), both bit-equal to a loop over every 0/1 labelling.
        """
        w = b - a
        keys, inverse = np.unique(keys & ((1 << w) - 1), return_inverse=True)
        shape = (w, keys.tobytes())
        if shape not in self._shapes:
            self._shapes[shape] = _label_shapes(w, keys, np.array(self.log_label[:2]))
        groups, labelled, group2 = self._shapes[shape]
        terms = self.block_terms(a, b, labelled, group2)
        log_w = np.empty(len(keys))
        log_w1 = np.empty((len(keys), w))
        done = 0
        for same, prior, ones in groups:
            group = terms[done : done + same.size * prior.size].reshape(same.size, -1) + prior
            done += group.size
            log_w[same] = log_sum_exp(group, axis=1)
            log_w1[same] = log_sum_exp(np.where(ones, group[:, :, None], NEG_INF), axis=1)
        return log_w[inverse], log_w1[inverse]

    def group2_term(self, epistatic: tuple[int, ...]) -> float:
        """Joint case + control log marginals of the genome-wide group-2 set."""
        if not epistatic:
            return 0.0
        eng = self.engine
        return eng.marginal(epistatic, WHO_CASES) + eng.marginal(epistatic, WHO_CONTROLS)

    def cache_sizes(self) -> dict[str, float]:
        """Marginal memo entries, block terms evaluated (each memo entry once,
        each batch term once) and seconds spent on cold marginals."""
        return {
            "marginals": len(self.engine._marg),
            "block_terms": len(self._block_terms) + self._batch_terms,
            "marginal_cold_s": round(self.engine.cold_s, 6),
        }

    def log_partition_prior(self, n_blocks: int) -> float:
        return n_blocks * self._log_p + (self.n_snps - n_blocks) * self._log_1mp

    def log_joint(self, starts, labels) -> float:
        """Full joint log probability of the partition with block ``starts``
        and the per-SNP ``labels``, the sampler's own two lists; -inf for
        forbidden states."""
        n = self.n_snps
        starts = [int(s) for s in starts]
        labels = [int(v) for v in labels]
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} SNPs")
        if not starts or starts[0] != 0:
            raise ValueError("first block must start at SNP 0")
        if any(b <= a for a, b in zip(starts, starts[1:])) or starts[-1] >= n:
            raise ValueError("block starts must strictly increase and stay below the SNP count")
        if any(v not in (0, 1, 2) for v in labels):
            raise ValueError("labels must be 0, 1 or 2")
        epistatic = tuple(i for i, v in enumerate(labels) if v == 2)
        if len(epistatic) > self.max_order:
            return NEG_INF
        total = self.group2_term(epistatic)
        for a, b in zip(starts, starts[1:] + [n]):
            term = self.block_term(a, b, mask_from_labels(labels, a, b))
            if term == NEG_INF:
                return NEG_INF
            total += term
        total += self.log_partition_prior(len(starts))
        prior = 0.0
        for lab, log_p in enumerate(self.log_label):
            count = labels.count(lab)
            if count:
                if log_p == NEG_INF:
                    return NEG_INF
                prior += count * log_p
        return total + prior


def mask_from_labels(labels, a: int, b: int) -> int:
    """The label mask of labels[a:b]: two bits per SNP (base 4), SNP a + j's
    label in bits 2j and 2j + 1.

    This is the one encoder. The chain state keeps ``mask_from_labels(labels,
    0, n)`` as its panel-wide label key, and the mask of its block [a, b) is
    the key's bit slice ``key >> 2*a & ((1 << 2*(b - a)) - 1)``.
    """
    return sum(int(lab) << 2 * j for j, lab in enumerate(labels[a:b]))


def log_sum_exp(stack: np.ndarray, axis: int = 0) -> np.ndarray:
    """Max-shifted log-sum-exp over ``axis``; -inf where every entry is -inf."""
    top = stack.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift.squeeze(axis) + np.log(np.exp(stack - shift).sum(axis=axis))


def _offsets(w: int, keys: np.ndarray) -> list[tuple[int, ...]]:
    """Bit keys of a width-``w`` block as tuples of SNP offsets, offset i at bit i."""
    return [tuple(i for i in range(w) if k >> i & 1) for k in keys.tolist()]


def _label_shapes(w: int, keys: np.ndarray, log_label01: np.ndarray):
    """The labellings of a width-``w`` block with the sorted, distinct local
    group-2 keys ``keys``, the free SNPs' 0/1 labels sigma in itertools.product
    order (first free SNP slowest), prior terms added in SNP order. Labellings
    whose prior is -inf (label 1 under ``p1 = 0``) add nothing to any weight
    and are left out; the all-zero sigma always stays. Per set size: the rows
    of ``keys`` of that size, sigma's prior, and which labellings hold each
    SNP at label 1 (sets x sigma x w). Then the (offset subsets, inverse)
    pairs of the labellings' labelled SNPs (key | label-1 SNPs) and group-2
    SNPs (key), as ``block_terms`` takes them.
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
        finite = np.isfinite(prior)
        sigma, prior = sigma[finite], prior[finite]
        free = (~in_key[same]).nonzero()[1].reshape(len(same), f)
        ones = bit[free] @ sigma.T  # the label-1 SNPs' keys, sets x sigma
        groups.append((same, prior, ones[:, :, None] & bit != 0))
        labelled.append((keys[same, None] | ones).ravel())
        group2.append(np.repeat(same, prior.size))
    distinct, inverse = np.unique(np.concatenate(labelled), return_inverse=True)
    return groups, (_offsets(w, distinct), inverse), (_offsets(w, keys), np.concatenate(group2))
