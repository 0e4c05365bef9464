"""Simulator: founder pools, risk models, sampling, locus dropping, truth files."""

import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, kstest

from beamscan import simulate
from beamscan.simulate import (
    DiseaseModel,
    FounderBlock,
    FounderPool,
    PoolError,
    case_diplotype_probs,
    disease_pool,
    drop_loci,
    hw_probs,
    marginal_log_odds_ratio,
    min_pool_size,
    random_pool,
    read_truth,
    risk_table,
    sample_pool_genotypes,
    simulate_dataset,
    solve_theta,
    write_truth,
)


# -- risk models -----------------------------------------------------------------------


def test_risk_table_patterns():
    t1 = risk_table(1, 1.0)
    for i in range(3):
        for j in range(3):
            assert t1[i, j] == 2.0 ** (i + j)
    t2 = risk_table(2, 1.0)
    assert (t2[0, :] == 1).all() and (t2[:, 0] == 1).all()
    assert t2[1, 1] == 4 and t2[1, 2] == 8 and t2[2, 2] == 16
    t3 = risk_table(3, 0.7)
    for i in range(3):
        for j in range(3):
            assert t3[i, j] == (1.7 if i >= 1 and j >= 1 else 1.0)
    assert (risk_table(2, 0.0) == 1).all()
    with pytest.raises(ValueError):
        risk_table(4, 1.0)
    with pytest.raises(ValueError):
        risk_table(1, -0.1)


def test_hw_probs():
    np.testing.assert_allclose(hw_probs(0.3), [0.49, 0.42, 0.09])
    assert hw_probs(0.17).sum() == pytest.approx(1.0)


def brute_marginal_or(model_id, theta, maf):
    """Collapse the 3x3 table with explicit loops; no shared code paths."""
    pi = [(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2]
    table = risk_table(model_id, theta)
    collapsed = [sum(pi[j] * table[g][j] for j in range(3)) for g in range(3)]
    carrier = (pi[1] * collapsed[1] + pi[2] * collapsed[2]) / (pi[1] + pi[2])
    return math.log(carrier / collapsed[0])


def test_marginal_effect_matches_brute_force():
    for model_id in (1, 2, 3):
        for theta in (0.4, 1.0, 3.0):
            for maf in (0.1, 0.3, 0.5):
                got = marginal_log_odds_ratio(model_id, theta, maf)
                assert got == pytest.approx(brute_marginal_or(model_id, theta, maf), abs=1e-12)


def test_marginal_effect_closed_forms():
    # model 1 collapses to a one-locus multiplicative odds ratio
    t, maf = 2.5, 0.2
    pi = hw_probs(maf)
    want = math.log((pi[1] * t + pi[2] * t * t) / (pi[1] + pi[2]))
    assert marginal_log_odds_ratio(1, t - 1, maf) == pytest.approx(want, abs=1e-12)
    # model 3 carrier risk is 1 + theta * P(other locus carries)
    maf = 0.5
    carriers = hw_probs(maf)[1] + hw_probs(maf)[2]
    assert marginal_log_odds_ratio(3, 2.0, maf) == pytest.approx(
        math.log(1 + 2.0 * carriers), abs=1e-12
    )


def test_solve_theta_inverts_the_effect_map():
    assert solve_theta(1, 0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        solve_theta(1, -0.2, 0.3)
    for model_id in (1, 2, 3):
        for theta in (0.3, 1.5, 4.0):
            for maf in (0.2, 0.4):
                effect = marginal_log_odds_ratio(model_id, theta, maf)
                assert solve_theta(model_id, effect, maf) == pytest.approx(theta, abs=1e-8)
    # monotone in theta
    grid = [marginal_log_odds_ratio(2, th, 0.25) for th in (0.1, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_disease_model_constructors():
    model = DiseaseModel.from_effect(3, 1.5, 0.2, (10, 20))
    assert marginal_log_odds_ratio(3, model.theta, 0.2) == pytest.approx(1.5, abs=1e-9)
    np.testing.assert_allclose(model.penetrance, risk_table(3, model.theta))
    with pytest.raises(ValueError):
        DiseaseModel.from_theta(1, 1.0, 0.2, (5, 5))
    with pytest.raises(ValueError):
        DiseaseModel.from_theta(1, 1.0, 0.0, (5, 6))


# -- founder pools ----------------------------------------------------------------------


def test_random_pool_layout():
    pool = random_pool(23, block_width=5, seed=1)
    assert pool.n_snps == 23
    assert pool.block_starts == (0, 5, 10, 15, 20)
    assert [b.width for b in pool.blocks] == [5, 5, 5, 5, 3]
    assert pool.block_of(12) == 2
    assert pool.block_of(22) == 4
    for outside in (-1, 23):
        with pytest.raises(IndexError):
            pool.block_of(outside)
    for block in pool.blocks:
        haps = block.haplotypes
        assert haps.min() >= 0 and haps.max() <= 1
        for j in range(block.width):
            assert haps[:, j].min() < haps[:, j].max()  # polymorphic
        assert block.frequencies.sum() == pytest.approx(1.0)
        assert block.frequencies.min() >= 0.05 - 1e-12


def test_founder_block_validation():
    with pytest.raises(ValueError):
        FounderBlock(np.array([[0, 2]], np.int8), np.array([1.0]))
    with pytest.raises(ValueError):
        FounderBlock(np.array([[0, 1], [1, 0]], np.int8), np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        FounderBlock(np.array([[0, 1], [1, 0]], np.int8), np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        random_pool(10, n_founders=1)


def test_disease_pool_places_and_tags_the_loci():
    pool, loci = disease_pool(100, 0.2, seed=3)
    assert loci == (27, 77)  # centers of blocks 5 and 15
    assert pool.block_of(loci[0]) != pool.block_of(loci[1])
    for locus in loci:
        b = pool.blocks[pool.block_of(locus)]
        local = locus - pool.block_starts[pool.block_of(locus)]
        assert b.allele_frequency(local) == 0.2  # exact by construction
        carrier = b.haplotypes[:, local].astype(float)
        assert carrier.tolist() == [1.0, 0.0, 0.0, 0.0]
        # a tagging SNP exists in the same block
        freqs = b.frequencies
        best = 0.0
        for j in range(b.width):
            if j == local:
                continue
            x = b.haplotypes[:, j].astype(float)
            px, pc = float(freqs @ x), float(freqs @ carrier)
            cov = float(freqs @ (x * carrier)) - px * pc
            best = max(best, cov * cov / (px * (1 - px) * pc * (1 - pc)))
        assert best >= 0.5


def test_disease_pool_validation():
    with pytest.raises(ValueError):
        disease_pool(100, 0.0)
    with pytest.raises(ValueError):
        disease_pool(100, 0.6)
    with pytest.raises(ValueError):
        disease_pool(5, 0.2, block_width=5)  # one block only
    with pytest.raises(ValueError):
        disease_pool(7, 0.2, block_width=5)  # second block too narrow


def test_pool_sampling_is_hardy_weinberg_per_column():
    pool = random_pool(10, seed=5)
    rng = np.random.default_rng(6)
    geno = sample_pool_genotypes(pool, 20000, rng)
    for snp in (0, 4, 7):
        block = pool.blocks[pool.block_of(snp)]
        local = snp - pool.block_starts[pool.block_of(snp)]
        p = block.allele_frequency(local)
        counts = np.bincount(geno[:, snp], minlength=3)
        assert chisquare(counts, f_exp=20000 * hw_probs(p)).pvalue > 1e-3


def test_pool_sampling_ld_structure():
    # two founders with complementary haplotypes: within-block columns are
    # copies of each other, across blocks they are independent
    block = FounderBlock(np.array([[0, 0], [1, 1]], np.int8), np.array([0.5, 0.5]))
    other = FounderBlock(np.array([[0], [1]], np.int8), np.array([0.5, 0.5]))
    pool = FounderPool((block, other))
    geno = sample_pool_genotypes(pool, 4000, np.random.default_rng(7))
    assert np.array_equal(geno[:, 0], geno[:, 1])
    r_cross = np.corrcoef(geno[:, 0], geno[:, 2])[0, 1]
    assert abs(r_cross) < 0.05


# -- dataset synthesis -------------------------------------------------------------------


def test_case_diplotype_probs():
    model0 = DiseaseModel.from_theta(1, 0.0, 0.3, (0, 1))
    np.testing.assert_allclose(
        case_diplotype_probs(model0), np.outer(hw_probs(0.3), hw_probs(0.3)).ravel()
    )
    model3 = DiseaseModel.from_theta(3, 2.0, 0.3, (0, 1))
    pi9 = np.outer(hw_probs(0.3), hw_probs(0.3)).ravel()
    weights = pi9 * risk_table(3, 2.0).ravel()
    np.testing.assert_allclose(case_diplotype_probs(model3), weights / weights.sum())


def test_min_pool_size_formula():
    model = DiseaseModel.from_theta(1, 1.0, 0.25, (0, 1))
    pi9 = np.outer(hw_probs(0.25), hw_probs(0.25)).ravel()
    expected = float(pi9 @ risk_table(1, 1.0).ravel())
    want = math.ceil(300 + 200 * 16.0 / expected)
    assert min_pool_size(model, 200, 300) == want


def test_simulate_dataset_shapes_and_truth():
    pool, loci = disease_pool(50, 0.25, seed=7)
    model = DiseaseModel.from_theta(1, 1.0, 0.25, loci)
    sim = simulate_dataset(pool, model, 120, 130, seed=1)
    ds = sim.dataset
    assert ds.cases.shape == (120, 50)
    assert ds.controls.shape == (130, 50)
    assert ds.snp_ids[0] == "snp0001" and ds.snp_ids[-1] == "snp0050"
    assert ds.positions[:3] == (1, 1001, 2001)
    assert sim.truth.loci == loci
    assert sim.truth.block_starts == pool.block_starts
    assert sim.truth.loci_present and sim.truth.windows is None
    assert sim.truth.theta == model.theta


def test_simulate_dataset_validation():
    pool, loci = disease_pool(20, 0.2, seed=8)
    model = DiseaseModel.from_theta(1, 1.0, 0.2, loci)
    with pytest.raises(ValueError):
        simulate_dataset(pool, model, 0, 10)
    same_block = DiseaseModel.from_theta(1, 1.0, 0.2, (loci[0], loci[0] + 1))
    with pytest.raises(ValueError):
        simulate_dataset(pool, same_block, 10, 10)
    wrong_maf = DiseaseModel.from_theta(1, 1.0, 0.3, loci)
    with pytest.raises(ValueError):
        simulate_dataset(pool, wrong_maf, 10, 10)


def test_pool_short_of_the_case_quota_after_eight_doublings_raises(monkeypatch):
    pool, loci = disease_pool(20, 0.05, seed=8)
    model = DiseaseModel.from_theta(1, 0.0, 0.05, loci)
    # every case demanded from the stratum of minor-allele homozygotes at both
    # loci, which a pool of this size almost never holds
    monkeypatch.setattr(simulate, "case_diplotype_probs", lambda model: np.eye(9)[8])
    draws = []
    sample = simulate.sample_pool_genotypes
    monkeypatch.setattr(
        simulate, "sample_pool_genotypes",
        lambda pool, n, rng: draws.append(n) or sample(pool, n, rng),
    )
    with pytest.raises(PoolError, match="regrow limit"):
        simulate_dataset(pool, model, 5, 5)
    assert draws == [20] + [20 * 2**k for k in range(8)]  # each draw doubles the pool


def test_simulated_case_strata_match_the_analytic_law():
    pool, loci = disease_pool(20, 0.3, seed=9)
    model = DiseaseModel.from_theta(2, 2.0, 0.3, loci)
    sim = simulate_dataset(pool, model, 3000, 100, seed=2)
    g1 = sim.dataset.cases[:, loci[0]]
    g2 = sim.dataset.cases[:, loci[1]]
    # collapse to carrier/carrier cells to keep every expected count large
    cell = (g1 > 0).astype(int) * 2 + (g2 > 0).astype(int)
    counts = np.bincount(cell, minlength=4)
    probs9 = case_diplotype_probs(model).reshape(3, 3)
    probs4 = np.array(
        [
            probs9[0, 0],
            probs9[0, 1:].sum(),
            probs9[1:, 0].sum(),
            probs9[1:, 1:].sum(),
        ]
    )
    assert chisquare(counts, f_exp=3000 * probs4).pvalue > 1e-3


def test_theta_zero_controls_match_population_and_no_signal():
    pool, loci = disease_pool(10, 0.3, seed=10, block_width=5)
    model = DiseaseModel.from_theta(1, 0.0, 0.3, loci)
    sim = simulate_dataset(pool, model, 2000, 2000, seed=3)
    counts = np.bincount(sim.dataset.controls[:, loci[0]], minlength=3)
    assert chisquare(counts, f_exp=4000 * hw_probs(0.3) / 2).pvalue > 1e-3
    # p-values of a per-locus association test stay uniform across replicates
    pvals = []
    for rep in range(40):
        s = simulate_dataset(pool, model, 100, 100, seed=100 + rep)
        table = np.array(
            [
                np.bincount(s.dataset.cases[:, loci[1]], minlength=3),
                np.bincount(s.dataset.controls[:, loci[1]], minlength=3),
            ]
        )
        table = table[:, table.sum(axis=0) > 0]
        pvals.append(chi2_contingency(table).pvalue)
    assert kstest(pvals, "uniform").pvalue > 1e-3


def test_signal_direction_and_power():
    pool, loci = disease_pool(20, 0.2, seed=11)
    model = DiseaseModel.from_effect(1, 1.5, 0.2, loci)
    hits = 0
    reps = 25
    for rep in range(reps):
        sim = simulate_dataset(pool, model, 500, 500, seed=200 + rep)
        case_carrier = float((sim.dataset.cases[:, loci[0]] > 0).mean())
        ctrl_carrier = float((sim.dataset.controls[:, loci[0]] > 0).mean())
        assert case_carrier > ctrl_carrier
        table = np.array(
            [
                np.bincount(sim.dataset.cases[:, loci[0]], minlength=3),
                np.bincount(sim.dataset.controls[:, loci[0]], minlength=3),
            ]
        )
        table = table[:, table.sum(axis=0) > 0]
        if chi2_contingency(table).pvalue < 0.01:
            hits += 1
    assert hits >= 0.8 * reps


def test_fixed_seed_reproducibility():
    pool, loci = disease_pool(30, 0.25, seed=12)
    model = DiseaseModel.from_theta(3, 1.5, 0.25, loci)
    a = simulate_dataset(pool, model, 50, 50, seed=4)
    b = simulate_dataset(pool, model, 50, 50, seed=4)
    c = simulate_dataset(pool, model, 50, 50, seed=5)
    assert np.array_equal(a.dataset.cases, b.dataset.cases)
    assert np.array_equal(a.dataset.controls, b.dataset.controls)
    assert a.truth == b.truth
    assert not np.array_equal(a.dataset.cases, c.dataset.cases)


# -- locus dropping and truth files --------------------------------------------------------


def test_drop_loci_windows_and_reindexing():
    pool, loci = disease_pool(100, 0.2, seed=13)
    assert loci == (27, 77)
    model = DiseaseModel.from_theta(1, 1.0, 0.2, loci)
    sim = simulate_dataset(pool, model, 30, 30, seed=6)
    dropped = drop_loci(sim)
    ds = dropped.dataset
    assert ds.n_snps == 98
    assert "snp0028" not in ds.snp_ids and "snp0078" not in ds.snp_ids
    assert dropped.truth.windows == ((22, 31), (71, 80))
    assert not dropped.truth.loci_present
    assert dropped.truth.loci == (27, 77)  # original indices retained
    starts = dropped.truth.block_starts
    assert 25 in starts and 29 in starts and 74 in starts and 78 in starts and 93 in starts
    assert len(starts) == 20
    # genotype columns shifted, not altered
    np.testing.assert_array_equal(ds.cases[:, 27], sim.dataset.cases[:, 28])
    np.testing.assert_array_equal(ds.cases[:, 76], sim.dataset.cases[:, 78])


def test_drop_loci_policies():
    pool, loci = disease_pool(20, 0.2, seed=14)
    model = DiseaseModel.from_theta(1, 0.5, 0.2, loci)
    sim = simulate_dataset(pool, model, 10, 10, seed=7)
    once = drop_loci(sim)
    with pytest.raises(ValueError):
        drop_loci(once)


def test_truth_round_trip(tmp_path):
    pool, loci = disease_pool(40, 0.15, seed=15)
    model = DiseaseModel.from_effect(2, 1.0, 0.15, loci)
    sim = drop_loci(simulate_dataset(pool, model, 20, 20, seed=8))
    path = tmp_path / "truth.tsv"
    write_truth(sim.truth, path)
    back = read_truth(path)
    assert back == sim.truth
    # also without windows
    write_truth(simulate_dataset(pool, model, 5, 5, seed=9).truth, path)
    again = read_truth(path)
    assert again.windows is None and again.loci_present
