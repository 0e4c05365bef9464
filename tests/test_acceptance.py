"""End-to-end acceptance checks for the mapping pipeline.

Each test states its tolerance inline. The statistical ones use frozen seeds;
the bounds were chosen with slack against rerun noise, not tuned to the seed.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

from beamscan.bstat import permutation_null
from beamscan.dataio import GenotypeDataset
from beamscan.likelihood import log_marginal
from beamscan.mcmc import (
    Schedule,
    accept,
    init_state,
    propose_block_move,
    run_chain,
    run_chains,
)
from beamscan.model import (
    BlockPartition,
    JointModel,
    MembershipVector,
    PriorConfig,
    default_priors,
)
from beamscan.oracle import enumerate_posterior
from beamscan.simulate import (
    DiseaseModel,
    FounderBlock,
    FounderPool,
    disease_pool,
    drop_loci,
    random_pool,
    sample_pool_genotypes,
    simulate_dataset,
)

RHO = 1.5


# -- 1: closed-form marginal equals the sequential predictive product ---------------


def test_01_log_marginal_matches_sequential_predictive():
    """1,000 random sparse count tables, widths 1-12, totals up to 2,000.

    Relative error below 1e-10 on the log scale; the whole sweep under 10 s.
    """
    rng = np.random.default_rng(77)
    started = time.time()
    log3 = math.log(3.0)
    for _ in range(1000):
        w = int(rng.integers(1, 13))
        k = int(rng.integers(1, 41))
        total = int(rng.integers(0, 2001))
        if total == 0:
            counts = np.zeros(0)
            ref = 0.0
        else:
            cells = rng.integers(0, 3, size=(k, w))
            keys = sorted({
                int(sum(int(c) << (2 * i) for i, c in enumerate(row))) for row in cells
            })
            parts = rng.multinomial(total, np.ones(len(keys)) / len(keys))
            entries = {}
            for key, c in zip(keys, parts):
                if c == 0:
                    continue
                cn = int(rng.integers(0, c + 1))
                entries[key] = (cn, int(c) - cn)
            counts = np.array([cn + cm for cn, cm in entries.values()])
            log_alpha = math.log(RHO) - w * log3
            alpha = math.exp(log_alpha)
            terms = []
            for cn, cm in entries.values():
                terms.append(log_alpha)
                terms.extend(math.log(alpha + t) for t in range(1, cn + cm))
            grand = sum(cn + cm for cn, cm in entries.values())
            terms.extend(-math.log(RHO + t) for t in range(grand))
            ref = math.fsum(terms)
        got = log_marginal(counts, w, RHO)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
    assert time.time() - started < 10.0


# -- 2: long chains reproduce the exhaustive enumerator ------------------------------


def one_causal_dataset(seed, n_each=50, n_snps=6, causal=2, theta=2.0, maf=0.3):
    """Small panel with one multiplicative risk SNP; cases rejection-sampled."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.15, 0.45, n_snps)
    freq[causal] = maf

    def draw(m):
        a = (rng.random((m, n_snps)) < freq).astype(np.int8)
        b = (rng.random((m, n_snps)) < freq).astype(np.int8)
        return a + b

    controls = draw(n_each)
    rows = []
    while len(rows) < n_each:
        block = draw(4 * n_each)
        g = block[:, causal].astype(float)
        keep = rng.random(len(block)) < (1.0 + theta) ** g / (1.0 + theta) ** 2
        for row in block[keep]:
            rows.append(row)
            if len(rows) == n_each:
                break
    return GenotypeDataset(
        cases=np.asarray(rows, np.int8),
        controls=controls,
        snp_ids=tuple(f"s{i}" for i in range(n_snps)),
        positions=tuple(1000 * i + 1 for i in range(n_snps)),
    )


def test_02_chain_agrees_with_enumeration_on_five_panels():
    """Five seeded 6-SNP, 50+50 panels; 50k-iteration chains land within
    0.05 absolute of the enumerated per-SNP association and boundary
    posteriors. Whole check under 5 minutes."""
    started = time.time()
    for k in range(5):
        ds = one_causal_dataset(100 + k)
        priors, cons = default_priors(ds.n_snps, ds.region_length, ds.n_cases, ds.n_controls)
        exact = enumerate_posterior(ds, priors, cons)
        summary = run_chain(
            ds, priors, Schedule(burnin=5000, iterations=50000), seed=7 + k, constraints=cons
        )
        assert np.max(np.abs(summary.assoc_posterior - exact.assoc_posterior)) <= 0.05
        assert np.max(np.abs(summary.boundary_posterior - exact.boundary_posterior)) <= 0.05
    assert time.time() - started < 300.0


# -- 3: the partition kernel leaves its conditional invariant ------------------------


def test_03_partition_moves_hit_the_exact_conditional():
    """With labels frozen at zero on 4 SNPs, a million proposal steps visit
    the 8 partitions within total variation 0.02 of the enumerated law."""
    rng = np.random.default_rng(5)
    n = 4
    ds = GenotypeDataset(
        cases=rng.integers(0, 3, (12, n)).astype(np.int8),
        controls=rng.integers(0, 3, (12, n)).astype(np.int8),
        snp_ids=tuple(f"s{i}" for i in range(n)),
        positions=tuple(10 * i + 1 for i in range(n)),
    )
    priors = PriorConfig(p_boundary=0.4, p1=0.15, p2=0.05, p0=0.8, rho=RHO)

    model = JointModel(ds, priors, None)
    labels = MembershipVector((0,) * n)
    exact = {}
    logw = []
    parts = []
    for bits in range(1 << (n - 1)):
        starts = tuple([0] + [i + 1 for i in range(n - 1) if (bits >> i) & 1])
        parts.append(starts)
        logw.append(model.log_joint(BlockPartition(starts, n), labels))
    w = np.exp(np.array(logw) - max(logw))
    for p, v in zip(parts, w / w.sum()):
        exact[p] = float(v)

    state = init_state(ds, priors, seed=11, constraints=None)
    kind_rng = np.random.default_rng(12)
    kinds = np.array(["split", "merge", "shift"])[
        kind_rng.choice(3, size=1_100_000, p=[0.1, 0.1, 0.8])
    ]
    visits = {p: 0 for p in parts}
    for t, kind in enumerate(kinds):
        proposal = propose_block_move(state, str(kind))
        if proposal is not None:
            accept(state, proposal)
        if t >= 100_000:
            visits[tuple(state.starts)] += 1
    steps = sum(visits.values())
    assert steps == 1_000_000
    tv = 0.5 * sum(abs(visits[p] / steps - exact[p]) for p in parts)
    assert tv <= 0.02


# -- 4: permutation null of the set statistic is a shifted chi-square ----------------


def qq_slope(null_values, df):
    shift = float(np.median(null_values)) - float(chi2.ppf(0.5, df)) / 2.0
    y = np.sort(2.0 * (null_values - shift))
    n = null_values.size
    x = chi2.ppf((np.arange(1, n + 1) - 0.5) / n, df)
    return float(np.polyfit(x, y, 1)[0])


def test_04_null_statistic_qq_slope_near_one():
    """2,000 label permutations at 500+500: doubling the median-shifted
    statistic tracks chi-square quantiles with slope within 1 +/- 0.1,
    at 2 degrees of freedom for one SNP and 8 for a pair."""
    for m, snp_set, seed in ((1, (0,), 1), (2, (0, 1), 2)):
        rng = np.random.default_rng(seed)
        draw = lambda k: (
            (rng.random((k, 2)) < 0.3).astype(np.int8)
            + (rng.random((k, 2)) < 0.3).astype(np.int8)
        )
        ds = GenotypeDataset(
            cases=draw(500), controls=draw(500),
            snp_ids=("a", "b"), positions=(1, 11),
        )
        null = permutation_null(ds, snp_set, n_perm=2000, seed=10 + m)
        slope = qq_slope(null, 3**m - 1)
        assert 0.9 <= slope <= 1.1


# -- 5: power and parsimony on 200-SNP interaction panels ----------------------------


def single_sig_count(ds, near):
    """Chi-square-significant SNPs (family-wise 0.05) inside the windows."""
    count = 0
    for j in np.flatnonzero(near):
        table = np.array([
            np.bincount(ds.cases[:, j], minlength=3),
            np.bincount(ds.controls[:, j], minlength=3),
        ])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            continue
        if chi2_contingency(table, correction=False)[1] < 0.05 / ds.n_snps:
            count += 1
    return count


def test_05_power_and_parsimony_at_two_hundred_snps():
    """20 replicates of the both-carrier-squared model (risk SNPs dropped,
    truth kept as 5-SNP windows): a window SNP makes the posterior top 5 in
    at least 70% of replicates; the posterior mass per window averages at
    most 2.0 while single-SNP significance counts average strictly more.
    Whole sweep under 30 minutes."""
    started = time.time()
    theta = DiseaseModel.from_effect(3, 1.5, 0.2, (0, 6)).theta
    hits = 0
    window_estimates = []
    window_sig_counts = []
    for rep in range(20):
        pool, loci = disease_pool(202, 0.2, seed=1000 + rep)
        model = DiseaseModel.from_theta(3, theta, 0.2, loci)
        sim = drop_loci(simulate_dataset(pool, model, 500, 500, seed=1001 + rep))
        ds = sim.dataset
        priors, cons = default_priors(ds.n_snps, ds.region_length, 500, 500)
        summary, _, _ = run_chains(
            ds, priors, Schedule(burnin=4000, iterations=6000),
            n_chains=3, base_seed=50 + rep, constraints=cons, threads=3,
        )
        assoc = summary.assoc_posterior
        near = np.zeros(ds.n_snps, bool)
        for lo, hi in sim.truth.windows:
            near[lo:hi + 1] = True
            window_estimates.append(float(assoc[lo:hi + 1].sum()))
            sub = np.zeros(ds.n_snps, bool)
            sub[lo:hi + 1] = True
            window_sig_counts.append(single_sig_count(ds, sub))
        top5 = np.argsort(assoc)[::-1][:5]
        hits += bool(near[top5].any())
    assert hits >= 14
    mean_estimate = float(np.mean(window_estimates))
    mean_sig = float(np.mean(window_sig_counts))
    assert mean_estimate <= 2.0
    assert mean_sig > mean_estimate
    assert time.time() - started < 1800.0


# -- 6: expected block count is insensitive to the boundary prior --------------------


def test_06_block_count_robust_to_tenfold_prior_change():
    """On a 10-block, 1,000-individual null panel, multiplying the boundary
    prior by ten moves the posterior expected block count by less than 10%."""
    pool = random_pool(50, block_width=5, n_founders=4, seed=7)
    geno = sample_pool_genotypes(pool, 1000, np.random.default_rng(107))
    ds = GenotypeDataset(
        cases=geno[:500], controls=geno[500:],
        snp_ids=tuple(f"s{i:02d}" for i in range(50)),
        positions=tuple(1000 * i + 1 for i in range(50)),
    )
    priors, cons = default_priors(50, ds.region_length, 500, 500)
    boosted = PriorConfig(
        p_boundary=min(0.5, 10 * priors.p_boundary),
        p1=priors.p1, p2=priors.p2, p0=priors.p0, rho=priors.rho,
    )
    assert boosted.p_boundary == pytest.approx(10 * priors.p_boundary)
    expected = {}
    for name, pr in (("base", priors), ("x10", boosted)):
        summary = run_chain(
            ds, pr, Schedule(burnin=3000, iterations=5000), seed=21, constraints=cons
        )
        expected[name] = float(summary.boundary_posterior.sum())
    rel = abs(expected["x10"] - expected["base"]) / expected["base"]
    assert rel < 0.10


# -- 7: chains reproduce each other ---------------------------------------------------


def unlinked_pair_dataset():
    """32 mutually independent SNPs, a both-carrier interaction at 9 and 22."""
    rng = np.random.default_rng(41)
    mafs = rng.uniform(0.1, 0.5, 32)
    mafs[9] = mafs[22] = 0.3
    pool = FounderPool(tuple(
        FounderBlock(
            haplotypes=np.array([[0], [1]], np.int8),
            frequencies=np.array([1.0 - f, f]),
        )
        for f in mafs
    ))
    model = DiseaseModel.from_effect(2, 1.5, 0.3, (9, 22))
    return simulate_dataset(pool, model, 200, 200, seed=6).dataset


def test_07_distinct_seeds_agree_and_identical_seeds_repeat():
    """Five chains with distinct seeds give pairwise association-posterior
    correlations of at least 0.9; rerunning one seed is bit-identical."""
    ds = unlinked_pair_dataset()
    priors, cons = default_priors(ds.n_snps, ds.region_length, 200, 200)
    schedule = Schedule(burnin=1000, iterations=6000)
    _, chains, diag = run_chains(
        ds, priors, schedule, n_chains=5, base_seed=200, constraints=cons
    )
    pairwise = diag.cross_chain_correlation[np.triu_indices(5, 1)]
    assert float(pairwise.min()) >= 0.9

    again = run_chain(ds, priors, schedule, seed=200, constraints=cons)
    assert np.array_equal(again.assoc_posterior, chains[0].assoc_posterior)
    assert np.array_equal(again.boundary_posterior, chains[0].boundary_posterior)
    assert again.interaction_sets == chains[0].interaction_sets
    assert np.array_equal(again.log_joint_trace, chains[0].log_joint_trace)


# -- 8: founder-block boundaries are recovered ----------------------------------------


def test_08_boundary_posterior_recovers_founder_blocks():
    """10 founder blocks of 5 SNPs (4 founders each), 1,000 individuals:
    boundary posterior above 0.8 at every true internal boundary and below
    0.2 at 90% or more of the interior positions."""
    pool = random_pool(50, block_width=5, n_founders=4, seed=3)
    geno = sample_pool_genotypes(pool, 1000, np.random.default_rng(103))
    ds = GenotypeDataset(
        cases=geno[:500], controls=geno[500:],
        snp_ids=tuple(f"s{i:02d}" for i in range(50)),
        positions=tuple(1000 * i + 1 for i in range(50)),
    )
    priors, cons = default_priors(50, ds.region_length, 500, 500)
    summary = run_chain(
        ds, priors, Schedule(burnin=3000, iterations=5000), seed=10, constraints=cons
    )
    b = summary.boundary_posterior
    truth = set(pool.block_starts)
    internal = sorted(truth - {0})
    assert len(internal) == 9
    assert all(b[i] > 0.8 for i in internal)
    interior = [b[i] for i in range(1, 50) if i not in truth]
    assert len(interior) == 40
    quiet = sum(v < 0.2 for v in interior)
    assert quiet >= 36
