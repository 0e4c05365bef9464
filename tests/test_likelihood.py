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
from scipy.special import gammaln

from beamscan import dataio, likelihood
from beamscan.bstat import _SetKernel
from helpers import NEVER_BINDS
from beamscan.dataio import GenotypeDataset
from beamscan.likelihood import (
    FLOAT32_KEY_WIDTH,
    FLOAT_KEY_WIDTH,
    LikelihoodEngine,
    _lgam_ascending,
    _lngamma,
    _marginal_constants,
    _pack_matrix,
    _run_counts,
    _table_counts,
    log_marginal,
    rho_is_valid,
)
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
    """Inverse of the ternary key of a set of at most FLOAT_KEY_WIDTH SNPs,
    first SNP in the lowest digit."""
    return tuple(int(key) // 3**j % 3 for j in range(width))


def decode_counts(keys, rows):
    """Occurrences of each distinct row, read through the keys: every row
    that shares a key must be the same row."""
    uniq, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    decoded = {}
    for cell in range(uniq.size):
        members = {tuple(r) for r in np.asarray(rows)[inv == cell].tolist()}
        assert len(members) == 1
        decoded[members.pop()] = int(counts[cell])
    return decoded


def block_term(ds, a, b, labels):
    priors = PriorConfig(p_boundary=0.5, p1=0.1, p2=0.1, rho=RHO,
                         max_distinct_diplotypes=NEVER_BINDS, max_order=NEVER_BINDS)
    return JointModel(ds, priors).block_term(a, b, mask_from_labels(labels, a, b))


# -- counting ---------------------------------------------------------------------


def test_count_two_snp_block_example():
    ds = dataset_from_rows([(0, 0), (0, 0), (0, 1)], np.zeros((0, 2)), 2)
    keys, counts = np.unique(_pack_matrix(ds.cases.T), return_counts=True)
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
    assert _pack_matrix(ds.cases[:, []].T).tolist() == [0, 0]
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
    # ternary keys round-trip; wider sets are keyed by rank (see the order tests)
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = int(rng.integers(1, FLOAT_KEY_WIDTH + 1))
        codes = rng.integers(0, 3, size=(1, w)).astype(np.int8)
        (key,) = _pack_matrix(codes.T).tolist()
        assert unpack_key(key, w) == tuple(int(c) for c in codes[0])


def test_wide_matrix_packing_matches_rows():
    # width above the float64 ternary keys exercises the rank keys
    rng = np.random.default_rng(1)
    w = 70
    rows = rng.integers(0, 3, size=(40, w)).astype(np.int8)
    rows[20:30] = rows[:10]  # repeated diplotypes
    assert decode_counts(_pack_matrix(rows.T), rows) == row_counts(rows)


def row_major_keys(mat):
    """Keys of an (n, w) row-major code matrix by int64 shifts, 31 SNPs at most,
    and chunk-wise Python ints beyond: the packing the SNP-major one replaced."""
    n, w = mat.shape
    if w <= 31:
        weights = np.left_shift(np.int64(1), 2 * np.arange(w, dtype=np.int64))
        return mat.astype(np.int64) @ weights
    keys = [0] * n
    for start in range(0, w, 24):
        chunk = mat[:, start : start + 24].astype(np.int64)
        weights = np.left_shift(np.int64(1), 2 * np.arange(chunk.shape[1], dtype=np.int64))
        vals = (chunk @ weights).tolist()
        keys = [k | (int(v) << (2 * start)) for k, v in zip(keys, vals)]
    return np.array(keys, dtype=object)


def same_order_and_counts(keys, want):
    """True when two key vectors give the same ``np.unique`` inverse and counts."""
    _, inv_a, counts_a = np.unique(keys, return_inverse=True, return_counts=True)
    _, inv_b, counts_b = np.unique(want, return_inverse=True, return_counts=True)
    return np.array_equal(inv_a, inv_b) and np.array_equal(counts_a, counts_b)


@pytest.mark.parametrize("w", range(1, 41))
def test_snp_major_keys_equal_row_major_keys(w):
    # the keys differ in value from the row-major ones (base 3 or ranks, not
    # base 4) but must sort and group the individuals identically
    rng = np.random.default_rng(w)
    rows = rng.integers(0, 3, size=(500, w)).astype(np.int8)
    rows[0] = 2  # the largest key of the width
    rows[1] = 0
    rows[2:12] = rows[12:22]  # repeated diplotypes
    codes = np.ascontiguousarray(rows.T)
    got = _pack_matrix(codes)
    want = row_major_keys(rows)
    assert same_order_and_counts(got, want)
    assert got.argmax() == 0 and got.argmin() == 1
    # float32 keys while 3^w - 1 < 2^24, float64 keys while it is below 2^53;
    # the largest key is exact at either width
    if w <= FLOAT32_KEY_WIDTH:
        assert got.dtype == np.float32 and int(got[0]) == 3**w - 1
    elif w <= FLOAT_KEY_WIDTH:
        assert got.dtype == np.float64 and int(got[0]) == 3**w - 1
    # the engine packs row slices of its SNP-major matrix, which are views
    assert same_order_and_counts(_pack_matrix(np.vstack([codes, codes])[:w, 100:]), want[100:])


def python_int_keys(codes):
    """Base-4 Python-int keys of a SNP-major (w, n) matrix, first SNP in the
    lowest digit: a packer that shares no code with ``_pack_matrix``."""
    cols = codes.T.tolist()
    return np.array([sum(c << (2 * j) for j, c in enumerate(col)) for col in cols], dtype=object)


@pytest.mark.parametrize("w", [*range(1, 41), 700])
def test_keys_group_and_order_as_python_int_keys(w):
    rng = np.random.default_rng(100 + w)
    codes = rng.integers(0, 3, size=(w, 300)).astype(np.int8)
    codes[:, 0] = 2  # the all-2 diplotype, 3^33 - 1 at width 33
    codes[:, 1] = 0
    codes[:, 50:80] = codes[:, 100:130]  # repeated diplotypes
    keys = _pack_matrix(codes)
    assert same_order_and_counts(keys, python_int_keys(codes))
    # the engine's counting (sort, then run lengths) reads the same cells
    _, counts = np.unique(python_int_keys(codes), return_counts=True)
    ds = dataset_from_rows(codes.T[:170], codes.T[170:], w)
    snps = tuple(range(w))
    assert LikelihoodEngine(ds, rho=RHO).marginal(snps, "both") == log_marginal(counts, w, RHO)
    assert LikelihoodEngine(ds, rho=RHO).distinct_count(snps) == counts.size


@pytest.mark.parametrize("w", [6, 15, 16])
def test_engine_marginals_at_the_float32_key_edge(w):
    # the widest float32 keys and the narrowest float64 ones, over a run of
    # SNPs (a view of the panel) and a scattered set (a copy of its rows),
    # in every cohort; at width 6 the cohorts are counted by bincount
    rng = np.random.default_rng(200 + w)
    n_cases, n_snps = 800, w + 3
    codes = rng.integers(0, 3, size=(n_snps, 1700)).astype(np.int8)
    codes[:, 0] = 2  # the largest key of every width
    codes[:, 900:1000] = codes[:, 100:200]  # repeated diplotypes
    ds = dataset_from_rows(codes.T[:n_cases], codes.T[n_cases:], n_snps)
    engine = LikelihoodEngine(ds, rho=RHO)
    cohorts = {"cases": slice(None, n_cases), "controls": slice(n_cases, None), "both": slice(None)}
    for snps in (tuple(range(2, 2 + w)), (0, *range(4, 3 + w))):
        assert len(snps) == w
        assert _pack_matrix(codes[list(snps)]).dtype == (np.float32 if w <= FLOAT32_KEY_WIDTH else np.float64)
        for who, columns in cohorts.items():
            _, counts = np.unique(python_int_keys(codes[list(snps), columns]), return_counts=True)
            assert engine.marginal(snps, who) == log_marginal(counts, w, RHO), (snps, who)


@pytest.mark.parametrize("w", [1, 33, 34, 700])
def test_keys_of_an_empty_cohort(w):
    keys = _pack_matrix(np.zeros((w, 0), dtype=np.int8))
    assert keys.shape == (0,)
    ds = dataset_from_rows(np.zeros((0, w)), np.zeros((0, w)), w)
    engine = LikelihoodEngine(ds, rho=RHO)
    assert engine.marginal(tuple(range(w)), "both") == 0.0
    assert engine.distinct_count(tuple(range(w))) == 0


def test_all_two_row_at_the_widest_float_key():
    w = FLOAT_KEY_WIDTH
    codes = np.full((w, 3), 2, dtype=np.int8)
    codes[0, 1] = 1  # one below the largest key; distinct in float64
    keys = _pack_matrix(codes)
    assert keys.dtype == np.float64
    assert keys.tolist() == [3**w - 1, 3**w - 2, 3**w - 1]
    assert 3**w - 1 < 2**53 <= 3 ** (w + 1)
    assert _pack_matrix(np.vstack([codes, codes[:1]])).dtype != np.float64


def unique_row_ranks(codes):
    """Dense ranks of a wide set's code columns, last SNP most significant,
    as ``np.unique`` over the reversed rows gives them."""
    _, ranks = np.unique(codes[::-1].T, axis=0, return_inverse=True)
    return ranks.reshape(codes.shape[1])


@pytest.mark.parametrize("w", [34, 40, 66, 100])
def test_wide_keys_equal_unique_row_ranks(w):
    # LD-like columns: copies of eight founders with 2% noise, so many ties,
    # plus columns that differ only in their first or last SNP
    rng = np.random.default_rng(300 + w)
    founders = rng.integers(0, 3, size=(w, 8)).astype(np.int8)
    codes = founders[:, rng.integers(0, 8, size=1500)]
    noise = rng.random(codes.shape) < 0.02
    codes[noise] = rng.integers(0, 3, size=int(noise.sum()))
    codes[:, 1:4] = codes[:, :1]
    codes[0, 1] = (codes[0, 0] + 1) % 3
    codes[-1, 2] = (codes[-1, 0] + 1) % 3
    keys = _pack_matrix(codes)
    assert keys.dtype == np.intp
    assert np.array_equal(keys, unique_row_ranks(codes))
    assert np.array_equal(_pack_matrix(codes[:, ::7]), unique_row_ranks(codes[:, ::7]))
    # every value counted through the keys is the one the unique ranks give
    ds = dataset_from_rows(codes.T[:700], codes.T[700:], w)
    snps = tuple(range(w))
    engine = LikelihoodEngine(ds, rho=RHO)
    for who, columns in (("cases", slice(None, 700)), ("controls", slice(700, None)), ("both", slice(None))):
        _, counts = np.unique(unique_row_ranks(codes[:, columns]), return_counts=True)
        assert engine.marginal(snps, who) == log_marginal(counts, w, RHO), who
    assert engine.distinct_count(snps) == np.unique(unique_row_ranks(codes)).size
    kernel = _SetKernel(ds, snps, RHO)
    _, inverse, counts = np.unique(unique_row_ranks(codes), return_inverse=True, return_counts=True)
    assert np.array_equal(kernel.joint_inverse, inverse)
    assert np.array_equal(kernel.joint_counts, counts)
    assert kernel.log_joint_both == log_marginal(counts, w, RHO)


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
    # every marginal, the engine's and the set statistic's, rejects a rho
    # that is not positive with a finite lnGamma(rho)
    for rho in (0.0, -1.0, math.nan, math.inf, 3e305, 1e-320):
        with pytest.raises(ValueError, match="finite and positive"):
            log_marginal(np.array([2]), 1, rho)
        with pytest.raises(ValueError, match="finite and positive"):
            LikelihoodEngine(ds, rho=rho).marginal((0,), "cases")


def test_rho_is_valid_up_to_1e8_where_lngamma_is_finite():
    # Cephes lgam is finite down to where 1/rho overflows; above 1e8 the
    # marginals' lnG(n + rho) - lnG(rho) loses too many digits
    low = [1e-320, 5e-309, 6e-309, 2.2250738585072014e-308, 1.5]
    for rho in low:
        assert rho_is_valid(rho) == math.isfinite(gammaln(rho)), rho
    assert [rho_is_valid(r) for r in low] == [False, False, True, True, True]
    high = [1e8, math.nextafter(1e8, math.inf), 1e9, 2.5e305, 2.556348e305, 3e305]
    assert [rho_is_valid(r) for r in high] == [True, False, False, False, False, False]
    assert not any(rho_is_valid(r) for r in (0.0, -1.0, -0.5, math.nan, math.inf))


def fsum_log_marginal(cell_counts, width, rho):
    """The log marginal as one correctly rounded sum of its ln(a + k) terms."""
    log_alpha = math.log(rho) - width * LOG3
    alpha = math.exp(log_alpha)
    terms = []
    for n in cell_counts:
        if n:
            terms.append(log_alpha)
            terms.extend(math.log(alpha + k) for k in range(1, n))
    terms.extend(-math.log(rho + t) for t in range(sum(cell_counts)))
    return math.fsum(terms)


@pytest.mark.parametrize("counts, width", [([100, 80, 20], 1), ([3, 1, 250, 7, 40], 3), ([2000], 2)])
def test_log_marginal_at_the_largest_valid_rho_keeps_its_digits(counts, width):
    # lnG(n + rho) - lnG(rho) cancels: at rho = 1e8 the error is about 1e-7 on a value near -220
    for rho in (RHO, 1e4, 1e8):
        want = fsum_log_marginal(counts, width, rho)
        assert abs(log_marginal(np.array(counts), width, rho) - want) < 1e-6, rho
        if width == 1:  # the engine's singleton, cell c holding code c
            rows = [(cell,) for cell, n in enumerate(counts) for _ in range(n)]
            engine = LikelihoodEngine(dataset_from_rows(rows, np.zeros((0, 1)), 1), rho=rho)
            assert abs(engine.marginal((0,), "cases") - want) < 1e-6, rho


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


@pytest.mark.parametrize(
    "n_cases, n_controls", [(0, 600), (600, 0), (1, 257), (257, 1), (255, 256), (256, 255), (0, 0)]
)
def test_engine_panel_is_the_stacked_transpose_byte_for_byte(n_cases, n_controls):
    rng = np.random.default_rng(n_cases + 1000 * n_controls)
    cases = rng.integers(0, 3, size=(n_cases, 7)).astype(np.int8)
    controls = rng.integers(0, 3, size=(n_controls, 7)).astype(np.int8)
    ds = GenotypeDataset(
        cases=cases,
        controls=controls,
        snp_ids=tuple(f"s{i}" for i in range(7)),
        positions=tuple(range(1, 8)),
    )
    want = np.hstack([cases.T, controls.T])
    assert ds.codes.dtype == np.int8 and ds.codes.flags.c_contiguous
    assert ds.codes.shape == want.shape
    assert ds.codes.tobytes() == want.tobytes()
    # the engine reads the dataset's matrix itself, not a copy
    assert LikelihoodEngine(ds, rho=RHO)._codes is ds.codes


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
    # the count comes with the combined-cohort marginal, which is now memoized;
    # the first singleton's brings every SNP's
    assert set(engine._marg) == {((0, 1), "both"), ((0,), "both"), ((1,), "both")}
    assert engine.marginal((0, 1), "both") == pytest.approx(
        predictive_log_marginal([2, 1, 1], 2), abs=1e-12
    )


# -- the engine's counting paths against a per-cohort reference -------------------------


def reference_marginal(ds, snps, who):
    """The log marginal of one cohort packed on its own and counted by np.unique,
    evaluated in the engine's expression and order."""
    rows = {"cases": ds.cases, "controls": ds.controls,
            "both": np.vstack([ds.cases, ds.controls])}[who]
    keys = _pack_matrix(np.ascontiguousarray(rows[:, list(snps)].T))
    counts = np.unique(keys, return_counts=True)[1].astype(np.float64)
    alpha, per_present, log_g_rho = _marginal_constants(len(snps), RHO)
    per_cell = counts.size * per_present + np.add.reduce(gammaln(counts + alpha))
    return float(per_cell + log_g_rho - gammaln(np.add.reduce(counts) + RHO))


def low_diversity_dataset(seed, n_cases, n_controls, n_snps):
    """Codes drawn from a few founder rows, so wide sets repeat diplotypes."""
    rng = np.random.default_rng(seed)
    founders = rng.integers(0, 3, size=(6, n_snps)).astype(np.int8)
    draw = lambda m: np.where(rng.random((m, n_snps)) < 0.05,
                              rng.integers(0, 3, size=(m, n_snps)),
                              founders[rng.integers(0, 6, size=m)]).astype(np.int8)
    return GenotypeDataset(
        cases=draw(n_cases),
        controls=draw(n_controls),
        snp_ids=tuple(f"s{i}" for i in range(n_snps)),
        positions=tuple(range(1, n_snps + 1)),
    )


@pytest.mark.parametrize("n_cases, n_controls", [(30, 250), (250, 30), (0, 90), (90, 0)])
def test_cohort_pair_memo_is_bit_equal_to_a_per_cohort_reference(n_cases, n_controls):
    # 3^w <= cohort size switches counting to the table at w <= 3 for 30 people, w <= 5
    # for 250 and 280, and never for an empty cohort; keys turn to ranks past w = 33
    n_snps = 45
    ds = low_diversity_dataset(n_cases + 7 * n_controls, n_cases, n_controls, n_snps)
    rng = np.random.default_rng(n_cases)
    sets = []
    for w in range(1, 41):
        sets.append(tuple(range(2, 2 + w)))
        sets.append(tuple(sorted(int(v) for v in rng.choice(n_snps, size=w, replace=False))))
    # the two singletons once more with the singleton pass off, each packed on its own
    for snps, batched in [(snps, True) for snps in sets] + [(snps, False) for snps in sets[:2]]:
        engine = LikelihoodEngine(ds, rho=RHO)
        pair = LikelihoodEngine(ds, rho=RHO)
        if not batched:
            engine._batch_singletons = pair._batch_singletons = lambda cohorts: None
        for first in ("cases", "controls", "both"):
            engine.marginal(snps, first)
        # one cold request for either cohort of the pair memoizes both, and a
        # singleton's every SNP's singletons of both
        pair.marginal(snps, "controls")
        if len(snps) == 1 and batched:
            assert set(pair._marg) == {((i,), who) for i in range(n_snps) for who in ("cases", "controls")}
        else:
            assert set(pair._marg) == {(snps, "cases"), (snps, "controls")}
        for who in ("cases", "controls", "both"):
            want = reference_marginal(ds, snps, who)
            assert engine._marg[(snps, who)] == want, (snps, who)
            assert pair.marginal(snps, who) == want, (snps, who)


def singleton_panel(case):
    """Panels for the singleton pass: random codes, monomorphic and two-code
    columns, a single SNP, and panels with an empty cohort."""
    rng = np.random.default_rng(len(case))
    shapes = {"random": (210, 170, 40), "monomorphic": (60, 50, 9), "one-snp": (25, 30, 1),
              "two-people": (1, 1, 12), "no-cases": (0, 80, 7), "no-controls": (80, 0, 7)}
    n_cases, n_controls, n_snps = shapes[case]
    codes = rng.integers(0, 3, size=(n_cases + n_controls, n_snps)).astype(np.int8)
    if case == "monomorphic":
        codes[:, 0] = 0
        codes[:, 1] = 1
        codes[:, 2] = 2
        codes[:, 3] = 2 * rng.integers(0, 2, size=codes.shape[0])  # codes 0 and 2 only
        codes[:n_cases, 4] = 1  # one code per cohort, another overall
        codes[n_cases:, 4] = 0
    return GenotypeDataset(
        cases=codes[:n_cases],
        controls=codes[n_cases:],
        snp_ids=tuple(f"s{i}" for i in range(n_snps)),
        positions=tuple(range(1, n_snps + 1)),
    )


@pytest.mark.parametrize("case", ["random", "monomorphic", "one-snp", "two-people",
                                  "no-cases", "no-controls"])
@pytest.mark.parametrize("cells", [None, 37], ids=["one-pass", "row-chunks"])
def test_prefetched_singletons_equal_the_scalar_path(monkeypatch, case, cells):
    if cells is not None:  # count a few rows at a time, the last chunk short
        monkeypatch.setattr(dataio, "_COUNT_CELLS", cells)
    ds = singleton_panel(case)
    snps = [(i,) for i in range(ds.n_snps)]
    singletons = {(snp, who) for snp in snps for who in ("cases", "controls", "both")}
    for rho in (RHO, 0.01, 1e8):
        scalar = LikelihoodEngine(ds, rho=rho)
        scalar._batch_singletons = lambda cohorts: None  # one singleton at a time
        fetched = LikelihoodEngine(ds, rho=rho)
        fetched.marginal(snps[-1], "both")
        fetched.marginal(snps[-1], "cases")
        # the two passes memoize every singleton, and the combined distinct counts
        assert fetched._marg.keys() == singletons
        assert fetched._distinct.keys() == set(snps)
        for snp in reversed(snps):
            for who in ("controls", "both", "cases"):
                want = scalar.marginal(snp, who)
                got = fetched._marg[(snp, who)]
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (snp, who)
                assert fetched.marginal(snp, who) is got, (snp, who)
            assert fetched._distinct[snp] == scalar.distinct_count(snp)
            assert fetched.distinct_count(snp) == fetched._distinct[snp]
        assert fetched._marg.keys() == singletons and fetched._distinct.keys() == set(snps)
        assert fetched._marg == scalar._marg and fetched._distinct == scalar._distinct


@pytest.mark.parametrize("w", [1, 2, 4, 6, 8, 12])
def test_table_and_run_counts_agree(w):
    rng = np.random.default_rng(w)
    for n in (0, 1, 5, 81, 500):
        keys = _pack_matrix(rng.integers(0, 3, size=(w, n)).astype(np.int8))
        table, runs = _table_counts(keys), _run_counts(keys)
        np.testing.assert_array_equal(table, runs)
        np.testing.assert_array_equal(runs, np.unique(keys, return_counts=True)[1])
        assert table.dtype == runs.dtype == np.intp


# -- lnG tables against scipy.special.gammaln -----------------------------------------


def test_lngamma_tables_equal_scipy_gammaln_bit_for_bit():
    # k + alpha crosses every branch of Cephes lgam (below 13, 13 to 1000, from
    # 1000 on); at width 700 alpha underflows to 0 and lnG(0 + 0) is inf
    k = np.arange(3001)
    for rho in (1.5, 0.7, 10.0, 1e-3):
        for width in (0, 1, 2, 5, 12, 40, 700):
            alpha = _marginal_constants(width, rho)[0]
            assert np.array_equal(_lngamma(alpha, k), gammaln(k + alpha)), (rho, width)
        assert np.array_equal(_lngamma(rho, k), gammaln(k + rho))
    assert _lngamma(0.0, 0) == math.inf


def test_lgam_equals_scipy_gammaln_across_its_range():
    # past 1e8 Stirling's leading terms stand alone, and past 2.556348e305 lnG is inf
    x = np.sort(np.concatenate([np.linspace(0.0, 20.0, 2001), 10.0 ** np.linspace(-300, 307, 6001)]))
    assert np.array_equal(_lgam_ascending(x), gammaln(x))


def test_lngamma_table_grown_in_steps_equals_one_built_at_once(monkeypatch):
    a = RHO / 3**4
    monkeypatch.setattr(likelihood, "_LNGAMMA", {})
    for n in (0, 1, 11, 12, 13, 40, 999, 1000, 2500, 7):
        _lngamma(a, np.arange(n + 1))
    stepped = likelihood._LNGAMMA[a]
    monkeypatch.setattr(likelihood, "_LNGAMMA", {})
    _lngamma(a, 2500)
    at_once = likelihood._LNGAMMA[a]
    assert stepped.size == at_once.size == 2501
    assert np.array_equal(stepped, at_once)


def test_log_marginal_refuses_counts_that_are_not_non_negative_integers():
    assert log_marginal(np.array([2.0, 1.0]), 1, RHO) == log_marginal(np.array([2, 1]), 1, RHO)
    for bad in ([2.5, 1.0], [2, -1]):
        with pytest.raises(ValueError, match="non-negative integers"):
            log_marginal(np.array(bad), 1, RHO)
