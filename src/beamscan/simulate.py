"""Case-control simulator with founder-block LD and two-locus disease models.

Haplotypes are drawn per block from a small founder panel (independent founder
choice per block per haplotype, so LD exists within blocks and vanishes across
block boundaries); genotypes are allele sums of two haplotypes, which leaves
non-disease SNPs in Hardy-Weinberg proportions. Disease status enters through
a 3x3 relative-risk table at two loci in different blocks: a large
odds-ratio-1 pool is generated, case diplotype frequencies at the loci are
computed analytically from the table, and cases/controls are drawn from the
pool without replacement accordingly.

Blocks containing a disease locus are constructed so the locus allele is
carried by exactly one founder (its frequency equals the requested MAF) and at
least one other SNP in the block tags that founder, mirroring panels in which
dropped disease SNPs remain tagged.

The simulator's fixed choices are the module constants below the model ids,
two of them (``BLOCK_WIDTH_DEFAULT``, ``N_FOUNDERS_DEFAULT``) defaults that
``random_pool``, ``disease_pool`` and ``beamscan simulate`` share.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

import numpy as np
from numpy.random import default_rng  # at import: numpy 2 loads numpy.random on first use

from .dataio import GenotypeDataset
from .model import ConstraintError

MODEL_IDS = (1, 2, 3)
BLOCK_WIDTH_DEFAULT = 5  # SNPs per founder block (the last block takes the rest)
N_FOUNDERS_DEFAULT = 4  # founder haplotypes per block
DIRICHLET_CONCENTRATION = 2.0  # of the symmetric Dirichlet that draws founder frequencies
DIRICHLET_ATTEMPTS = 1000  # draws before the last one is clipped to the floor instead
MIN_FOUNDER_FREQUENCY = 0.05  # floor on a neutral block's founder frequencies
MIN_DISEASE_BLOCK_WIDTH = 3  # SNPs a block needs to hold a disease locus
OTHER_FOUNDER_FLOOR = 0.02  # floor on a disease block's non-carrier founders, before scaling
TAG_ATTEMPTS = 50  # haplotype draws a disease block makes for a tagging SNP
MIN_TAG_R2 = 0.5  # founder-level r^2 a disease block's best tagging SNP must reach
POOL_OVER_FLOOR = 1.5  # the unaffected pool's first size, over min_pool_size ...
POOL_OVER_COHORTS = 2  # ... or over the cohorts, whichever is larger
MAX_POOL_DOUBLINGS = 8  # times the pool may double to cover the case quota
POSITION_SPACING = 1000  # base pairs between consecutive simulated SNPs
TRUTH_WINDOW = 5  # SNPs on each side of a dropped locus that its truth window spans
THETA_TOL = 1e-10  # root tolerance of solve_theta


class PoolError(ConstraintError):
    """Pool still short of the case quota after its last doubling."""


# -- founder pools --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FounderBlock:
    """One LD block: founder haplotypes (0/1 alleles) and their frequencies."""

    haplotypes: np.ndarray  # (n_founders, width) int8
    frequencies: np.ndarray  # (n_founders,)

    def __post_init__(self):
        haps = np.asarray(self.haplotypes, dtype=np.int8)
        freqs = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "haplotypes", haps)
        object.__setattr__(self, "frequencies", freqs)
        if haps.ndim != 2 or haps.shape[0] < 1 or haps.shape[1] < 1:
            raise ValueError("haplotypes must be a non-empty 2-d array")
        if haps.min() < 0 or haps.max() > 1:
            raise ValueError("haplotype alleles must be 0/1")
        if freqs.shape != (haps.shape[0],):
            raise ValueError("one frequency per founder required")
        if freqs.min() <= 0 or abs(freqs.sum() - 1.0) > 1e-9:
            raise ValueError("founder frequencies must be positive and sum to 1")
        haps.setflags(write=False)
        freqs.setflags(write=False)

    @property
    def width(self) -> int:
        return self.haplotypes.shape[1]

    def allele_frequency(self, local: int) -> float:
        return float(self.frequencies @ self.haplotypes[:, local])


@dataclass(frozen=True)
class FounderPool:
    """Ordered founder blocks covering the panel; block i starts at SNP
    ``block_starts[i]``, a layout worked out once from the block widths."""

    blocks: tuple[FounderBlock, ...]
    block_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n_snps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("pool needs at least one block")
        *starts, end = accumulate((b.width for b in self.blocks), initial=0)
        object.__setattr__(self, "block_starts", tuple(starts))
        object.__setattr__(self, "n_snps", end)

    def block_of(self, snp: int) -> int:
        """The block holding SNP ``snp``; ``IndexError`` outside ``[0, n_snps)``."""
        if not 0 <= snp < self.n_snps:
            raise IndexError("SNP index out of range")
        return bisect_right(self.block_starts, snp) - 1


def _block_widths(n_snps: int, block_width: int, n_founders: int) -> list[int]:
    """The block widths of a founder pool, once its shape is checked."""
    if n_founders < 2:
        raise ValueError("need at least two founders")
    if n_snps < 1 or block_width < 1:
        raise ValueError("n_snps and block_width must be positive")
    widths = [block_width] * (n_snps // block_width)
    if n_snps % block_width:
        widths.append(n_snps % block_width)
    return widths


def _draw_frequencies(rng: np.random.Generator, k: int, floor: float) -> np.ndarray:
    for _ in range(DIRICHLET_ATTEMPTS):
        f = rng.dirichlet(np.full(k, DIRICHLET_CONCENTRATION))
        if f.min() >= floor:
            return f
    f = np.clip(f, floor, None)
    return f / f.sum()


def _random_haplotypes(rng: np.random.Generator, k: int, width: int) -> np.ndarray:
    haps = rng.integers(0, 2, size=(k, width), dtype=np.int8)
    for j in range(width):
        if haps[:, j].min() == haps[:, j].max():  # keep every SNP polymorphic
            haps[int(rng.integers(k)), j] ^= 1
    return haps


def _neutral_block(rng: np.random.Generator, n_founders: int, width: int) -> FounderBlock:
    """A block with no disease locus: founder frequencies, then haplotypes."""
    freqs = _draw_frequencies(rng, n_founders, MIN_FOUNDER_FREQUENCY)
    haps = _random_haplotypes(rng, n_founders, width)
    return FounderBlock(haplotypes=haps, frequencies=freqs)


def random_pool(
    n_snps: int, block_width: int = BLOCK_WIDTH_DEFAULT, n_founders: int = N_FOUNDERS_DEFAULT, seed: int = 0
) -> FounderPool:
    """Random founder pool with polymorphic SNPs in every block."""
    widths = _block_widths(n_snps, block_width, n_founders)
    rng = default_rng(seed)
    return FounderPool(tuple(_neutral_block(rng, n_founders, w) for w in widths))


def _founder_r2(freqs: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    px = float(freqs @ x)
    py = float(freqs @ y)
    cov = float(freqs @ (x * y)) - px * py
    return cov * cov / (px * (1 - px) * py * (1 - py))


def _disease_block(
    rng: np.random.Generator,
    width: int,
    n_founders: int,
    maf: float,
    locus_local: int,
) -> FounderBlock:
    """Block whose locus allele rides a single founder of frequency ``maf``."""
    rest = _draw_frequencies(rng, n_founders - 1, OTHER_FOUNDER_FLOOR) * (1.0 - maf)
    freqs = np.concatenate([[maf], rest])
    carrier = np.zeros(n_founders, dtype=np.int8)
    carrier[0] = 1
    best = None
    for _ in range(TAG_ATTEMPTS):
        haps = _random_haplotypes(rng, n_founders, width)
        haps[:, locus_local] = carrier
        r2 = max(
            _founder_r2(freqs, carrier.astype(float), haps[:, j].astype(float))
            for j in range(width)
            if j != locus_local
        )
        if best is None or r2 > best[0]:
            best = (r2, haps)
        if r2 >= MIN_TAG_R2:
            break
    r2, haps = best
    if r2 < MIN_TAG_R2:
        # force one tagging SNP so the locus stays visible after dropping it
        spots = [j for j in range(width) if j != locus_local]
        haps[:, spots[int(rng.integers(len(spots)))]] = carrier
    return FounderBlock(haplotypes=haps, frequencies=freqs)


def disease_pool(
    n_snps: int,
    maf: float,
    block_width: int = BLOCK_WIDTH_DEFAULT,
    n_founders: int = N_FOUNDERS_DEFAULT,
    seed: int = 0,
) -> tuple[FounderPool, tuple[int, int]]:
    """Founder pool with two disease loci at block-interior positions.

    The loci sit at the centers of the blocks at least
    ``MIN_DISEASE_BLOCK_WIDTH`` wide nearest 1/4 and 3/4 of the panel's
    blocks; the first comes before the second, and their allele frequencies
    equal ``maf`` exactly.
    """
    if not 0.0 < maf <= 0.5:
        raise ValueError("maf must lie in (0, 0.5]")
    widths = _block_widths(n_snps, block_width, n_founders)
    if len(widths) < 2:
        raise ValueError("need at least two blocks to place two loci")
    rng = default_rng(seed)

    def nearest_wide(anchor: int, taken: set[int]) -> int:
        order = sorted(range(len(widths)), key=lambda i: (abs(i - anchor), i))
        for i in order:
            if widths[i] >= MIN_DISEASE_BLOCK_WIDTH and i not in taken:
                return i
        raise ValueError(f"need two blocks of at least {MIN_DISEASE_BLOCK_WIDTH} SNPs for the disease loci")

    # every block but the last is block_width wide, so d1 < d2
    d1 = nearest_wide(len(widths) // 4, set())
    d2 = nearest_wide((3 * len(widths)) // 4, {d1})
    pool = FounderPool(tuple(
        _disease_block(rng, w, n_founders, maf, w // 2)
        if i in (d1, d2)
        else _neutral_block(rng, n_founders, w)
        for i, w in enumerate(widths)
    ))
    return pool, tuple(pool.block_starts[d] + widths[d] // 2 for d in (d1, d2))


def sample_pool_genotypes(pool: FounderPool, n_individuals: int, rng: np.random.Generator) -> np.ndarray:
    """Draw unaffected individuals: two independent founder picks per block."""
    out = np.empty((n_individuals, pool.n_snps), dtype=np.int8)
    for at, block in zip(pool.block_starts, pool.blocks):
        k = block.haplotypes.shape[0]
        picks = rng.choice(k, size=(n_individuals, 2), p=block.frequencies)
        out[:, at : at + block.width] = (
            block.haplotypes[picks[:, 0]] + block.haplotypes[picks[:, 1]]
        )
    return out


# -- disease models --------------------------------------------------------------


def hw_probs(maf: float) -> np.ndarray:
    """Hardy-Weinberg genotype probabilities (0, 1, 2 copies)."""
    return np.array([(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2])


def risk_table(model_id: int, theta: float) -> np.ndarray:
    """3x3 relative-risk table indexed by the two locus genotype codes.

    Model 1: multiplicative, (1+theta)^(i+j). Model 2: baseline 1 whenever
    either locus is wild-type homozygous, multiplicative elsewhere. Model 3:
    threshold, 1+theta whenever both loci carry at least one disease allele.
    """
    if model_id not in MODEL_IDS:
        raise ValueError(f"unknown model id {model_id}")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    t = 1.0 + theta
    table = np.ones((3, 3))
    for i in range(3):
        for j in range(3):
            if model_id == 1:
                table[i, j] = t ** (i + j)
            elif model_id == 2:
                table[i, j] = t ** (i + j) if i >= 1 and j >= 1 else 1.0
            else:
                table[i, j] = t if i >= 1 and j >= 1 else 1.0
    return table


def marginal_log_odds_ratio(model_id: int, theta: float, maf: float) -> float:
    """Per-locus carrier-vs-baseline log odds ratio, other locus collapsed.

    The 3x3 table is collapsed over the second locus under Hardy-Weinberg
    frequencies; the value is the log ratio of the carrier-averaged collapsed
    risk to the wild-type collapsed risk (prevalence-free because controls
    mirror the population pool).
    """
    table = risk_table(model_id, theta)
    pi = hw_probs(maf)
    collapsed = table @ pi  # collapsed[g] = sum_h pi[h] * R[g, h]
    carrier_weight = pi[1] + pi[2]
    carrier = (pi[1] * collapsed[1] + pi[2] * collapsed[2]) / carrier_weight
    return math.log(carrier / collapsed[0])


def solve_theta(model_id: int, marginal_effect: float, maf: float) -> float:
    """Invert the marginal log-odds-ratio map; monotone in theta."""
    from scipy.optimize import brentq  # imported here, so that `simulate --theta` loads no scipy

    if marginal_effect < 0:
        raise ValueError("marginal_effect must be non-negative")
    if marginal_effect == 0:
        return 0.0
    f = lambda th: marginal_log_odds_ratio(model_id, th, maf) - marginal_effect
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("marginal effect unreachable for this model and MAF")
    return float(brentq(f, 0.0, hi, xtol=THETA_TOL))


@dataclass(frozen=True, eq=False)
class DiseaseModel:
    """Two-locus relative-risk model at two loci."""

    model_id: int
    theta: float
    maf: float
    loci: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "loci", tuple(int(v) for v in self.loci))
        if len(self.loci) != 2 or self.loci[0] == self.loci[1]:
            raise ValueError("need two distinct loci")
        if not 0.0 < self.maf <= 0.5:
            raise ValueError("maf must lie in (0, 0.5]")
        risk_table(self.model_id, self.theta)  # rejects an unknown model or a negative theta

    @property
    def penetrance(self) -> np.ndarray:
        """The 3x3 relative-risk table, ``risk_table(model_id, theta)``."""
        return risk_table(self.model_id, self.theta)

    @classmethod
    def from_theta(cls, model_id: int, theta: float, maf: float, loci) -> "DiseaseModel":
        return cls(model_id, float(theta), maf, tuple(loci))

    @classmethod
    def from_effect(cls, model_id: int, marginal_effect: float, maf: float, loci) -> "DiseaseModel":
        theta = solve_theta(model_id, marginal_effect, maf)
        return cls.from_theta(model_id, theta, maf, loci)


# -- dataset synthesis -------------------------------------------------------------


@dataclass(frozen=True)
class TruthInfo:
    """Ground truth attached to a simulated dataset."""

    model_id: int
    theta: float
    maf: float
    loci: tuple[int, int]  # original (pre-drop) SNP indices
    block_starts: tuple[int, ...]  # current indexing
    windows: tuple[tuple[int, int], ...] | None = None  # current indexing, post-drop
    loci_present: bool = True


@dataclass(frozen=True)
class SimulatedDataset:
    dataset: GenotypeDataset
    truth: TruthInfo


def case_diplotype_probs(model: DiseaseModel) -> np.ndarray:
    """Analytic case probabilities over the 9 two-locus diplotypes."""
    pi9 = np.outer(hw_probs(model.maf), hw_probs(model.maf)).ravel()
    weighted = pi9 * model.penetrance.ravel()
    return weighted / weighted.sum()


def min_pool_size(model: DiseaseModel, n_cases: int, n_controls: int) -> int:
    """Smallest pool whose expected stratum yields cover the quotas."""
    pi9 = np.outer(hw_probs(model.maf), hw_probs(model.maf)).ravel()
    expected_risk = float(pi9 @ model.penetrance.ravel())
    worst = float(model.penetrance.max()) / expected_risk
    return int(math.ceil(n_controls + n_cases * worst))


def simulate_dataset(
    pool: FounderPool,
    model: DiseaseModel,
    n_cases: int,
    n_controls: int,
    seed: int = 0,
) -> SimulatedDataset:
    """Draw a case-control panel from the pool under the disease model.

    The unaffected pool starts at the larger of ``POOL_OVER_FLOOR`` times
    :func:`min_pool_size` and ``POOL_OVER_COHORTS`` times the cohorts, and
    doubles (at most ``MAX_POOL_DOUBLINGS`` times) until every diplotype
    stratum covers its drawn case quota.
    """
    if n_cases < 1 or n_controls < 1:
        raise ValueError("both cohorts must be non-empty")
    n_snps = pool.n_snps
    l1, l2 = model.loci
    try:
        blocks = [pool.block_of(locus) for locus in model.loci]
    except IndexError:
        raise ValueError("loci outside the panel") from None
    if blocks[0] == blocks[1]:
        raise ValueError("loci must sit in different founder blocks")
    for locus, b in zip(model.loci, blocks):
        local = locus - pool.block_starts[b]
        if abs(pool.blocks[b].allele_frequency(local) - model.maf) > 1e-9:
            raise ValueError(
                f"pool allele frequency at locus {locus} differs from the model MAF"
            )

    floor = min_pool_size(model, n_cases, n_controls)
    rng = default_rng(seed)
    size = max(int(math.ceil(POOL_OVER_FLOOR * floor)), POOL_OVER_COHORTS * (n_cases + n_controls))
    genotypes = sample_pool_genotypes(pool, size, rng)
    demand = rng.multinomial(n_cases, case_diplotype_probs(model))
    # the floor covers stratum demand only in expectation, so double the pool
    # until it covers the drawn quota
    for grows in range(MAX_POOL_DOUBLINGS + 1):
        strata = genotypes[:, l1].astype(np.int64) * 3 + genotypes[:, l2]
        if np.all(np.bincount(strata, minlength=9) >= demand):
            break
        if grows == MAX_POOL_DOUBLINGS:
            raise PoolError(f"pool regrow limit reached after {MAX_POOL_DOUBLINGS} doublings")
        extra = sample_pool_genotypes(pool, genotypes.shape[0], rng)
        genotypes = np.vstack([genotypes, extra])

    # every stratum now covers its quota, and the pool, at least twice the
    # cohorts, leaves more than enough controls
    taken = np.zeros(genotypes.shape[0], dtype=bool)
    case_rows: list[np.ndarray] = []
    for s in np.flatnonzero(demand):
        members = np.flatnonzero(strata == s)
        chosen = members[rng.permutation(members.size)[: demand[s]]]
        taken[chosen] = True
        case_rows.append(chosen)
    case_idx = np.concatenate(case_rows)
    remaining = np.flatnonzero(~taken)
    control_idx = remaining[rng.permutation(remaining.size)[:n_controls]]

    id_width = max(4, len(str(n_snps)))
    dataset = GenotypeDataset(
        cases=genotypes[case_idx],
        controls=genotypes[control_idx],
        snp_ids=tuple(f"snp{i + 1:0{id_width}d}" for i in range(n_snps)),
        positions=tuple(1 + i * POSITION_SPACING for i in range(n_snps)),
    )
    truth = TruthInfo(
        model_id=model.model_id,
        theta=model.theta,
        maf=model.maf,
        loci=(l1, l2),
        block_starts=pool.block_starts,
    )
    return SimulatedDataset(dataset=dataset, truth=truth)


def drop_loci(sim: SimulatedDataset) -> SimulatedDataset:
    """Remove the disease-locus columns, re-expressing truth as index windows.

    Each window spans the surviving SNPs within ``TRUTH_WINDOW`` positions of
    a dropped locus, in the new indexing.
    """
    truth = sim.truth
    if not truth.loci_present:
        raise ValueError("loci already dropped")
    ds = sim.dataset
    loci = sorted(truth.loci)
    keep = [j for j in range(ds.n_snps) if j not in loci]
    new_index = {old: new for new, old in enumerate(keep)}

    windows = []
    for locus in truth.loci:
        lo_old = max(0, locus - TRUTH_WINDOW)
        hi_old = min(ds.n_snps - 1, locus + TRUTH_WINDOW)
        kept_in = [new_index[j] for j in range(lo_old, hi_old + 1) if j in new_index]
        windows.append((min(kept_in), max(kept_in)))

    new_starts = tuple(
        sorted({s - sum(1 for l in loci if l < s) for s in truth.block_starts})
    )
    new_truth = replace(
        truth, block_starts=new_starts, windows=tuple(windows), loci_present=False
    )
    return SimulatedDataset(dataset=ds.select(keep), truth=new_truth)


def write_truth(truth: TruthInfo, path: str | Path) -> None:
    """Serialize the ground truth as a small keyed TSV."""
    lines = [
        "#field\tvalues",
        f"model\t{truth.model_id}",
        f"theta\t{truth.theta!r}",
        f"maf\t{truth.maf!r}",
        "loci\t" + "\t".join(str(v) for v in truth.loci),
        "block_starts\t" + "\t".join(str(v) for v in truth.block_starts),
        f"loci_present\t{int(truth.loci_present)}",
    ]
    if truth.windows is not None:
        lines.append("windows\t" + "\t".join(f"{a}:{b}" for a, b in truth.windows))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_truth(path: str | Path) -> TruthInfo:
    """Inverse of :func:`write_truth`."""
    fields: dict[str, list[str]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line:
            continue
        toks = line.split("\t")
        fields[toks[0]] = toks[1:]
    windows = None
    if "windows" in fields:
        windows = tuple(
            (int(a), int(b)) for a, b in (tok.split(":") for tok in fields["windows"])
        )
    return TruthInfo(
        model_id=int(fields["model"][0]),
        theta=float(fields["theta"][0]),
        maf=float(fields["maf"][0]),
        loci=tuple(int(v) for v in fields["loci"]),
        block_starts=tuple(int(v) for v in fields["block_starts"]),
        windows=windows,
        loci_present=bool(int(fields["loci_present"][0])),
    )
