"""Dirichlet-multinomial diplotype marginals and counting.

The reference implementation used throughout is the sequential predictive
product: observations enter one at a time, each contributing
(alpha + seen_in_cell) / (rho + seen_total). Summed in log space it must equal
the closed-form log marginal exactly (same telescoping gamma ratios), which
gives an independent oracle for randomized checks.
"""

import math

import numpy as np
import pytest

from beamscan.dataio import GenotypeDataset
from beamscan.likelihood import LikelihoodEngine, _pack_matrix, log_marginal
from beamscan.model import JointModel, PriorConfig, mask_from_labels

RHO = 1.5
LOG3 = math.log(3.0)


def predictive_log_marginal(cell_counts, width, rho=RHO):
    """Log of the sequential predictive product, term by term.

    The t=0 term of each cell is ln(alpha) written as ln(rho) - width*ln(3)
    so the reference stays finite for widths where alpha underflows.
    """
    log_alpha = math.log(rho) - width * LOG3
    alpha = math.exp(log_alpha)
    total = 0.0
    for n in cell_counts:
        if n <= 0:
            continue
        total += log_alpha
        for t in range(1, n):
            total += math.log(alpha + t)
    grand = int(sum(cell_counts))
    for t in range(grand):
        total -= math.log(rho + t)
    return total


def dataset_from_rows(case_rows, control_rows, width):
    cases = np.asarray(case_rows, dtype=np.int8).reshape(-1, width)
    controls = np.asarray(control_rows, dtype=np.int8).reshape(-1, width)
    return GenotypeDataset(
        cases=cases,
        controls=controls,
        snp_ids=tuple(f"s{i}" for i in range(width)),
        positions=tuple(i + 1 for i in range(width)),
    )


def row_counts(mat):
    """Test-local counting: occurrences of each distinct row."""
    cells = {}
    for row in map(tuple, np.asarray(mat).tolist()):
        cells[row] = cells.get(row, 0) + 1
    return cells


def unpack_key(key, width):
    """Inverse of the 2-bits-per-SNP packing, first SNP in the low bits."""
    return tuple((int(key) >> (2 * j)) & 3 for j in range(width))


def block_term(ds, a, b, labels):
    priors = PriorConfig(p_boundary=0.5, p1=0.1, p2=0.1, p0=0.8, rho=RHO)
    return JointModel(ds, priors).block_term(a, b, mask_from_labels(labels, a, b))


# -- counting ---------------------------------------------------------------------


def test_count_two_snp_block_example():
    ds = dataset_from_rows([(0, 0), (0, 0), (0, 1)], np.zeros((0, 2)), 2)
    keys, counts = np.unique(_pack_matrix(ds.cases), return_counts=True)
    decoded = {unpack_key(k, 2): int(c) for k, c in zip(keys, counts)}
    assert decoded == {(0, 0): 2, (0, 1): 1}
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.marginal((0, 1), "cases") == pytest.approx(
        predictive_log_marginal([2, 1], 2), abs=1e-12
    )
    assert engine.marginal((0, 1), "controls") == 0.0


def test_count_empty_cohorts():
    ds = dataset_from_rows(np.zeros((0, 2)), np.zeros((0, 2)), 2)
    engine = LikelihoodEngine(ds, rho=RHO)
    for who in ("both", "cases", "controls"):
        assert engine.marginal((0, 1), who) == 0.0
    assert engine.distinct_count((0, 1)) == 0


def test_count_shared_diplotype():
    row = (1, 2, 0)
    ds = dataset_from_rows([row, row], [row, row], 3)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.distinct_count((0, 1, 2)) == 1
    assert engine.marginal((0, 1, 2), "both") == pytest.approx(
        predictive_log_marginal([4], 3), abs=1e-12
    )
    assert engine.marginal((0, 1, 2), "cases") == pytest.approx(
        predictive_log_marginal([2], 3), abs=1e-12
    )


def test_count_zero_width_set():
    ds = dataset_from_rows([(0,), (1,)], [(2,)], 1)
    assert _pack_matrix(ds.cases[:, []]).tolist() == [0, 0]
    # every individual shares the empty diplotype, whose marginal is log 1
    assert log_marginal(np.array([3]), 0, RHO) == pytest.approx(0.0, abs=1e-12)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.marginal((), "both") == 0.0
    assert engine.distinct_count(()) == 0


def test_count_respects_cohort_selector():
    ds = dataset_from_rows([(0,), (1,)], [(1,), (1,)], 1)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.marginal((0,), "cases") == pytest.approx(
        predictive_log_marginal([1, 1], 1), abs=1e-12
    )
    assert engine.marginal((0,), "controls") == pytest.approx(
        predictive_log_marginal([2], 1), abs=1e-12
    )
    with pytest.raises(ValueError):
        engine.marginal((0,), "everyone")


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = int(rng.integers(1, 40))
        codes = rng.integers(0, 3, size=(1, w)).astype(np.int8)
        (key,) = _pack_matrix(codes).tolist()
        assert unpack_key(key, w) == tuple(int(c) for c in codes[0])


def test_wide_matrix_packing_matches_rows():
    # width above the 31-SNP fast path exercises the chunked packing
    rng = np.random.default_rng(1)
    w = 70
    rows = rng.integers(0, 3, size=(40, w)).astype(np.int8)
    keys, counts = np.unique(_pack_matrix(rows), return_counts=True)
    decoded = {unpack_key(k, w): int(c) for k, c in zip(keys, counts)}
    assert decoded == row_counts(rows)


# -- log marginal ------------------------------------------------------------------


def test_zero_observations_any_width():
    for w in (1, 2, 5, 12):
        ds = dataset_from_rows(np.zeros((0, w)), np.zeros((0, w)), w)
        assert LikelihoodEngine(ds, rho=RHO).marginal(tuple(range(w)), "both") == 0.0
        assert log_marginal(np.zeros(0), w, RHO) == 0.0


def test_single_observation_is_log_one_third():
    for g in (0, 1, 2):
        ds = dataset_from_rows([(g,)], np.zeros((0, 1)), 1)
        value = LikelihoodEngine(ds, rho=RHO).marginal((0,), "cases")
        assert value == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)


def test_two_identical_observations():
    ds = dataset_from_rows([(0,), (0,)], np.zeros((0, 1)), 1)
    value = LikelihoodEngine(ds, rho=RHO).marginal((0,), "cases")
    # (0.5/1.5) * (1.5/2.5) = 0.2
    assert value == pytest.approx(math.log(0.2), abs=1e-12)


def test_single_observation_extreme_width():
    # alpha underflows long before width 700; the log form must survive
    w = 700
    row = np.zeros((1, w), np.int8)
    ds = GenotypeDataset(
        cases=row,
        controls=np.zeros((0, w), np.int8),
        snp_ids=tuple(f"s{i}" for i in range(w)),
        positions=tuple(range(1, w + 1)),
    )
    value = LikelihoodEngine(ds, rho=RHO).marginal(tuple(range(w)), "cases")
    assert value == pytest.approx(-w * LOG3, rel=1e-12)


def test_matches_sequential_predictive_randomized():
    rng = np.random.default_rng(7)
    for _ in range(150):
        width = int(rng.integers(1, 7))
        n_cells = int(rng.integers(1, min(9, 3**width + 1)))
        cells = [int(c) for c in rng.integers(1, 30, size=n_cells)]
        rng.choice(3**width, size=n_cells, replace=False)  # keys do not enter the marginal; drawn to keep the seeded sequence
        got = log_marginal(np.array(cells), width, RHO)
        want = predictive_log_marginal(cells, width)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_count_matrix_rows_match_compacted_rows():
    rng = np.random.default_rng(17)
    for width, cells in [(1, 3), (2, 9), (3, 27), (5, 40), (700, 12)]:
        counts = rng.integers(0, 6, size=(20, cells)) * (rng.random((20, cells)) < 0.5)
        counts[0] = 0  # an all-absent row is an empty sample
        got = log_marginal(counts, width, RHO)
        assert isinstance(got, np.ndarray) and got.shape == (20,)
        for row, value in zip(counts, got):
            want = log_marginal(row[row > 0], width, RHO)
            assert isinstance(want, float)
            assert value == pytest.approx(want, rel=0, abs=1e-12)
        assert got[0] == 0.0
    stacked = log_marginal(counts.reshape(4, 5, cells), width, RHO)
    assert np.array_equal(stacked, got.reshape(4, 5))


def test_marginal_invariant_to_cell_identity():
    # only the multiset of counts matters, not which diplotypes carry them
    a = dataset_from_rows([(0, 0)] * 3 + [(1, 2)] * 2, [(0, 0)], 2)
    b = dataset_from_rows([(2, 1)] * 4 + [(0, 2)], [(0, 2)], 2)
    assert LikelihoodEngine(a, rho=RHO).marginal((0, 1), "both") == pytest.approx(
        LikelihoodEngine(b, rho=RHO).marginal((0, 1), "both"), abs=1e-12
    )


def test_marginal_uses_combined_cohorts():
    split = dataset_from_rows([(0,), (0,)], [(0,), (1,), (1,), (1,)], 1)
    merged = dataset_from_rows([(0,)] * 3 + [(1,)] * 3, np.zeros((0, 1)), 1)
    assert LikelihoodEngine(split, rho=RHO).marginal((0,), "both") == pytest.approx(
        LikelihoodEngine(merged, rho=RHO).marginal((0,), "both"), abs=1e-12
    )


def test_rho_config_respected():
    loose = log_marginal(np.array([2]), 1, 3.0)
    # alpha = 1: (1/3) * (2/4)
    assert loose == pytest.approx(math.log((1 / 3) * (2 / 4)), abs=1e-12)
    ds = dataset_from_rows([(0,), (0,)], np.zeros((0, 1)), 1)
    assert LikelihoodEngine(ds, rho=3.0).marginal((0,), "cases") == pytest.approx(loose, abs=1e-12)


# -- conditional terms ----------------------------------------------------------------
# A block term holds the conditional log P(whole block | labelled SNPs) as the
# difference of two combined-cohort marginals.


def test_conditional_on_itself_is_zero():
    ds = dataset_from_rows([(0, 1), (1, 1)], [(2, 0)], 2)
    engine = LikelihoodEngine(ds, rho=RHO)
    # every SNP labelled 1: the block is conditioned on itself, leaving the
    # cohort-specific marginals of the labelled set
    want = engine.marginal((0, 1), "cases") + engine.marginal((0, 1), "controls")
    assert block_term(ds, 0, 2, [1, 1]) == pytest.approx(want, abs=1e-12)


def test_conditional_on_nothing_is_marginal():
    ds = dataset_from_rows([(0, 1), (1, 1)], [(2, 0)], 2)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert block_term(ds, 0, 2, [0, 0]) == pytest.approx(
        engine.marginal((0, 1), "both"), abs=1e-12
    )


def test_conditional_two_snp_hand_value():
    rows = [(0, 0), (0, 1)]
    ds = dataset_from_rows(rows, np.zeros((0, 2)), 2)
    engine = LikelihoodEngine(ds, rho=RHO)
    got = engine.marginal((0, 1), "cases") - engine.marginal((0,), "cases")
    # full: two distinct 2-SNP diplotypes, alpha=1.5/9: (1/6)/1.5 * (1/6)/2.5
    # sub: both individuals genotype 0 at SNP 0: (0.5/1.5) * (1.5/2.5)
    want = math.log((1 / 6) / 1.5 * (1 / 6) / 2.5) - math.log(0.2)
    assert got == pytest.approx(want, abs=1e-12)


# -- engine -----------------------------------------------------------------------


def test_engine_matches_direct_computation():
    rng = np.random.default_rng(11)
    cases = rng.integers(0, 3, size=(25, 6)).astype(np.int8)
    controls = rng.integers(0, 3, size=(30, 6)).astype(np.int8)
    ds = GenotypeDataset(
        cases=cases,
        controls=controls,
        snp_ids=tuple(f"s{i}" for i in range(6)),
        positions=tuple(range(1, 7)),
    )
    engine = LikelihoodEngine(ds, rho=RHO)
    for snps in [(0,), (2, 4), (1, 2, 3), tuple(range(6))]:
        for who in ("both", "cases", "controls"):
            rows = {"both": np.vstack([cases, controls]), "cases": cases, "controls": controls}[who]
            direct = predictive_log_marginal(list(row_counts(rows[:, list(snps)]).values()), len(snps))
            assert engine.marginal(snps, who) == pytest.approx(direct, abs=1e-12)
            # second call hits the memo and must be identical
            assert engine.marginal(snps, who) == engine.marginal(snps, who)


def test_engine_empty_inputs():
    ds = dataset_from_rows([(0,)], np.zeros((0, 1)), 1)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.marginal((), "both") == 0.0
    assert engine.marginal((0,), "controls") == 0.0


def test_engine_distinct_count():
    ds = dataset_from_rows([(0, 1), (0, 1), (1, 1)], [(2, 2)], 2)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.distinct_count((0, 1)) == 3
    assert engine.distinct_count((1,)) == 2
    # the count comes with the combined-cohort marginal, which is now memoized
    assert set(engine._marg) == {((0, 1), "both"), ((1,), "both")}
    assert engine.marginal((0, 1), "both") == pytest.approx(
        predictive_log_marginal([2, 1, 1], 2), abs=1e-12
    )
