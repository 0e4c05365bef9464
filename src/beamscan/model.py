"""Joint probability of case-control genotypes under a block partition and
per-SNP membership labels.

SNPs are partitioned into contiguous blocks. Each SNP carries a label:
0 (unassociated), 1 (marginally associated) or 2 (jointly/epistatically
associated). Within a block, labelled SNPs get cohort-specific diplotype
distributions while the unlabelled remainder is explained conditionally on
them; group-2 SNPs across the genome share one joint case and one joint
control distribution. Hard constraints (diplotype cap per block, maximum
interaction order) mark a state forbidden, signalled by -inf.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .dataio import GenotypeDataset
from .likelihood import WHO_BOTH, WHO_CASES, WHO_CONTROLS, LikelihoodEngine

NEG_INF = float("-inf")


class ConstraintError(ValueError):
    """A hard model constraint or guard was violated."""


@dataclass(frozen=True)
class PriorConfig:
    """Prior weights: boundary probability, label probabilities, rho."""

    p_boundary: float
    p1: float
    p2: float
    p0: float
    rho: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.p_boundary <= 0.5:
            raise ValueError("p_boundary must lie in (0, 0.5]")
        for name in ("p0", "p1", "p2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if abs(self.p0 + self.p1 + self.p2 - 1.0) > 1e-9:
            raise ValueError("label probabilities must sum to 1")
        if self.p0 <= 0.0:
            raise ValueError("p0 must be positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive")


@dataclass(frozen=True)
class ModelConstraints:
    """Hard caps: distinct diplotypes per block, interaction order."""

    max_distinct_diplotypes: int
    max_order: int

    def __post_init__(self):
        if self.max_distinct_diplotypes < 1 or self.max_order < 1:
            raise ValueError("constraints must be at least 1")


def default_priors(
    n_snps: int,
    region_length: int,
    n_cases: int,
    n_controls: int,
    prior_blocks: float = 50_000.0,
    rho: float = 1.5,
    p1: float | None = None,
    p2: float | None = None,
    max_order: int | None = None,
) -> tuple[PriorConfig, ModelConstraints]:
    """Derive the default priors and constraints from panel dimensions.

    The boundary prior scales the expected genome-wide block count
    (``prior_blocks`` over 3 Gb) down to the panel; the association priors
    expect about five associated SNPs. Constraints require the pooled sample
    to support per-block diplotype estimation: at least 30 individuals, or
    none at all, in which case the priors come with one-diplotype blocks and
    an interaction order of ``max_order`` (default 1).
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
    p_boundary = min(0.5, prior_blocks * region_length / (3.0e9 * n_snps))
    p1 = min(0.1, 5.0 / n_snps) if p1 is None else p1
    p2 = min(0.1, 5.0 / n_snps) if p2 is None else p2
    p0 = 1.0 - p1 - p2
    priors = PriorConfig(p_boundary=p_boundary, p1=p1, p2=p2, p0=p0, rho=rho)
    if total == 0:
        # No individuals: the likelihood is constant and no block holds a
        # diplotype, so the sample-size caps cannot bind and the priors echo.
        return priors, ModelConstraints(1, 1 if max_order is None else max_order)
    cap = math.ceil(total / 10.0) - 1
    order = int(math.floor(math.log(total / 10.0, 3) + 1e-9)) if max_order is None else max_order
    constraints = ModelConstraints(max_distinct_diplotypes=cap, max_order=order)
    return priors, constraints


@dataclass(frozen=True, eq=True)
class BlockPartition:
    """Contiguous partition of ``n_snps`` SNPs, stored as block start indices.

    ``starts[0]`` is always 0: the first SNP opens a block by convention, so
    only the remaining n_snps - 1 boundary indicators are free.
    """

    starts: tuple[int, ...]
    n_snps: int

    def __post_init__(self):
        starts = tuple(int(s) for s in self.starts)
        object.__setattr__(self, "starts", starts)
        if self.n_snps < 1:
            raise ValueError("partition needs at least one SNP")
        if not starts or starts[0] != 0:
            raise ValueError("first block must start at SNP 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("block starts must be strictly increasing")
        if starts[-1] >= self.n_snps:
            raise ValueError("block start beyond the last SNP")

    @classmethod
    def from_boundary(cls, boundary) -> "BlockPartition":
        flags = [bool(b) for b in boundary]
        if not flags or not flags[0]:
            raise ValueError("boundary[0] must be set")
        return cls(tuple(i for i, b in enumerate(flags) if b), len(flags))

    @classmethod
    def singletons(cls, n_snps: int) -> "BlockPartition":
        return cls(tuple(range(n_snps)), n_snps)

    @classmethod
    def single_block(cls, n_snps: int) -> "BlockPartition":
        return cls((0,), n_snps)

    @property
    def boundary(self) -> tuple[bool, ...]:
        flags = [False] * self.n_snps
        for s in self.starts:
            flags[s] = True
        return tuple(flags)

    @property
    def n_blocks(self) -> int:
        return len(self.starts)

    def blocks(self) -> tuple[tuple[int, int], ...]:
        ends = self.starts[1:] + (self.n_snps,)
        return tuple(zip(self.starts, ends))

    def block_of(self, snp: int) -> tuple[int, int]:
        if not 0 <= snp < self.n_snps:
            raise IndexError("SNP index out of range")
        k = bisect_right(self.starts, snp) - 1
        end = self.starts[k + 1] if k + 1 < len(self.starts) else self.n_snps
        return (self.starts[k], end)


@dataclass(frozen=True, eq=True)
class MembershipVector:
    """Per-SNP labels in {0, 1, 2}."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("membership needs at least one SNP")
        if any(v not in (0, 1, 2) for v in labels):
            raise ValueError("labels must be 0, 1 or 2")

    @classmethod
    def all_unassociated(cls, n_snps: int) -> "MembershipVector":
        return cls((0,) * n_snps)

    @property
    def epistatic_set(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.labels) if v == 2)

    def label_counts(self) -> tuple[int, int, int]:
        c = [0, 0, 0]
        for v in self.labels:
            c[v] += 1
        return tuple(c)


class JointModel:
    """Cached evaluator of the joint log probability for one dataset.

    Per-block terms are memoized by (start, end, ternary label mask), and the
    underlying diplotype marginals by (SNP subset, cohort), so repeated
    sampler visits to a configuration cost a dictionary lookup.
    """

    def __init__(
        self,
        dataset: GenotypeDataset,
        priors: PriorConfig,
        constraints: ModelConstraints | None = None,
    ):
        self.engine = LikelihoodEngine(dataset, priors.rho)
        self.priors = priors
        self.constraints = constraints
        self.n_snps = dataset.n_snps
        self._log_p = math.log(priors.p_boundary)
        self._log_1mp = math.log1p(-priors.p_boundary)
        self._log_label = (
            math.log(priors.p0),
            math.log(priors.p1) if priors.p1 > 0 else NEG_INF,
            math.log(priors.p2) if priors.p2 > 0 else NEG_INF,
        )
        self._block_terms: dict[tuple[int, int, int], float] = {}
        self._g2: dict[tuple[int, ...], float] = {}

    # -- hard constraints ---------------------------------------------------

    def block_allowed(self, a: int, b: int) -> bool:
        """True when the block's observed diplotype diversity is within cap."""
        if self.constraints is None:
            return True
        distinct = self.engine.distinct_count(tuple(range(a, b)))
        return distinct <= self.constraints.max_distinct_diplotypes

    @property
    def max_order(self) -> int:
        return self.constraints.max_order if self.constraints is not None else self.n_snps

    # -- model terms ----------------------------------------------------------

    def block_term(self, a: int, b: int, mask: int) -> float:
        """Log conditional probability of one block's data given its labels.

        ``mask`` encodes the block-local labels in ternary, SNP ``a`` in the
        least significant digit. Returns -inf for a block over the diplotype
        cap.
        """
        key = (a, b, mask)
        hit = self._block_terms.get(key)
        if hit is not None:
            return hit
        if not self.block_allowed(a, b):
            self._block_terms[key] = NEG_INF
            return NEG_INF
        x: list[int] = []
        x2: list[int] = []
        m = mask
        for snp in range(a, b):
            lab = m % 3
            m //= 3
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

    def group2_term(self, epistatic: tuple[int, ...]) -> float:
        """Joint case + control log marginals of the genome-wide group-2 set."""
        if not epistatic:
            return 0.0
        hit = self._g2.get(epistatic)
        if hit is not None:
            return hit
        value = self.engine.marginal(epistatic, WHO_CASES) + self.engine.marginal(
            epistatic, WHO_CONTROLS
        )
        self._g2[epistatic] = value
        return value

    def log_partition_prior(self, n_blocks: int) -> float:
        return n_blocks * self._log_p + (self.n_snps - n_blocks) * self._log_1mp

    def log_membership_prior(self, counts: tuple[int, int, int]) -> float:
        total = 0.0
        for c, lp in zip(counts, self._log_label):
            if c:
                if lp == NEG_INF:
                    return NEG_INF
                total += c * lp
        return total

    def log_joint(self, partition: BlockPartition, membership: MembershipVector) -> float:
        """Full joint log probability; -inf for forbidden states."""
        if partition.n_snps != self.n_snps or len(membership.labels) != self.n_snps:
            raise ValueError("partition/membership size does not match the dataset")
        epistatic = membership.epistatic_set
        if self.constraints is not None and len(epistatic) > self.constraints.max_order:
            return NEG_INF
        total = self.group2_term(epistatic)
        labels = membership.labels
        for a, b in partition.blocks():
            term = self.block_term(a, b, mask_from_labels(labels, a, b))
            if term == NEG_INF:
                return NEG_INF
            total += term
        total += self.log_partition_prior(partition.n_blocks)
        prior_i = self.log_membership_prior(membership.label_counts())
        if prior_i == NEG_INF:
            return NEG_INF
        return total + prior_i


def mask_from_labels(labels, a: int, b: int) -> int:
    """Ternary-encode labels[a:b], SNP ``a`` in the least significant digit."""
    mask = 0
    power = 1
    for snp in range(a, b):
        mask += labels[snp] * power
        power *= 3
    return mask

