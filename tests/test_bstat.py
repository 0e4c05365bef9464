"""Set-association statistic, permutation and analytic calibration, candidate sets."""

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincinv
from scipy.stats import chi2, kstest

import beamscan
import helpers
from helpers import ref_marginal
from beamscan.bstat import (
    MAX_SET_SIZE,
    PERM_BATCH,
    BStatResult,
    _median,
    _median_shift,
    _SetKernel,
    analytic_shift,
    bstat,
    fit_shift_constant,
    null_calibration,
    permutation_null,
    posterior_candidates,
    results_to_tsv,
)
from beamscan.cli import score_sets
from beamscan.likelihood import _pack_matrix, log_marginal
from beamscan.model import ConstraintError

RHO = 1.5
make_dataset = partial(helpers.make_dataset, spacing=7)


def null_dataset(seed, n_cases, n_controls, n_snps):
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.2, 0.5, size=n_snps)
    draw = lambda m: ((rng.random((m, n_snps)) < freq).astype(np.int8)
                      + (rng.random((m, n_snps)) < freq).astype(np.int8))
    return make_dataset(draw(n_cases), draw(n_controls))


def ref_bstat(ds, snps):
    cols = list(snps)
    ca = ds.cases[:, cols]
    co = ds.controls[:, cols]
    both = np.vstack([ca, co])
    sing_u = sum(ref_marginal(co[:, [j]]) for j in range(len(cols)))
    sing_du = sum(ref_marginal(both[:, [j]]) for j in range(len(cols)))
    return (
        ref_marginal(ca)
        + np.logaddexp(ref_marginal(co), sing_u)
        - np.logaddexp(ref_marginal(both), sing_du)
    )


# -- the statistic itself --------------------------------------------------------------


def test_all_reference_single_snp_value():
    ds = make_dataset([[0], [0]], [[0], [0]])
    assert bstat(ds, (0,)) == pytest.approx(math.log(0.36), abs=1e-12)
    assert bstat(ds, (0,)) == pytest.approx(-1.0216512475319814, abs=1e-12)


def test_divergent_single_snp_value():
    # identical case/case and control/control pairs but disjoint cohorts;
    # the two-cohort model wins and the statistic is log(4.2)
    ds = make_dataset([[1], [1]], [[0], [0]])
    assert bstat(ds, (0,)) == pytest.approx(math.log(4.2), abs=1e-12)
    assert bstat(ds, (0,)) == pytest.approx(1.4350845252893225, abs=1e-12)


def test_no_individuals_gives_zero():
    ds = make_dataset(np.zeros((0, 2)), np.zeros((0, 2)))
    assert bstat(ds, (0,)) == 0.0
    assert bstat(ds, (0, 1)) == 0.0


def test_matches_reference_formula_on_random_sets():
    rng = np.random.default_rng(41)
    ds = make_dataset(rng.integers(0, 3, (30, 6)), rng.integers(0, 3, (25, 6)))
    for snps in [(0,), (3,), (0, 1), (2, 5), (1, 3, 4)]:
        assert bstat(ds, snps) == pytest.approx(ref_bstat(ds, snps), abs=1e-10)


def test_strong_signal_is_positive_null_is_not():
    signal = make_dataset(np.full((40, 1), 2), np.zeros((40, 1)))
    assert bstat(signal, (0,)) > 20
    rng = np.random.default_rng(42)
    shared = rng.integers(0, 3, (80, 1)).astype(np.int8)
    null = make_dataset(shared[:40], shared[40:])
    assert bstat(null, (0,)) < 2


def test_set_validation():
    ds = null_dataset(43, 10, 10, 4)
    with pytest.raises(ValueError):
        bstat(ds, ())
    with pytest.raises(ValueError):
        bstat(ds, (1, 1))
    with pytest.raises(IndexError):
        bstat(ds, (4,))
    with pytest.raises(IndexError):
        bstat(ds, (-1,))


# -- permutation calibration -------------------------------------------------------------


def test_permutation_null_shape_and_determinism():
    ds = null_dataset(44, 30, 30, 3)
    a = permutation_null(ds, (0,), n_perm=600, seed=5)
    b = permutation_null(ds, (0,), n_perm=600, seed=5)
    c = permutation_null(ds, (0,), n_perm=600, seed=6)
    assert a.shape == (600,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def python_int_keys(rows):
    """Base-4 Python-int keys of an (n, w) code matrix, first SNP in the
    lowest digit; the reference counts through these, not ``_pack_matrix``."""
    return np.array(
        [sum(c << (2 * j) for j, c in enumerate(row)) for row in rows.tolist()], dtype=object
    )


class ReferenceKernel:
    """The one-replicate-at-a-time statistic that the batched kernel replaced."""

    def __init__(self, ds, snps, rho=RHO):
        self.rho, self.width = rho, len(snps)
        combined = np.vstack([ds.cases, ds.controls])
        keys = python_int_keys(combined[:, list(snps)])
        _, self.joint_inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        self.joint_cells = counts.size
        self.log_joint_both = log_marginal(counts, self.width, rho)
        self.single_cols = [np.ascontiguousarray(combined[:, j]) for j in snps]
        self.log_singles_both = 0.0
        for col in self.single_cols:
            c = np.bincount(col, minlength=3)
            self.log_singles_both += log_marginal(c[c > 0], 1, rho)

    def statistic(self, case_mask):
        rho, width = self.rho, self.width
        case_counts = np.bincount(self.joint_inverse[case_mask], minlength=self.joint_cells)
        ctrl_counts = np.bincount(self.joint_inverse[~case_mask], minlength=self.joint_cells)
        log_cases = log_marginal(case_counts[case_counts > 0], width, rho)
        log_controls = log_marginal(ctrl_counts[ctrl_counts > 0], width, rho)
        log_singles_controls = 0.0
        for col in self.single_cols:
            c = np.bincount(col[~case_mask], minlength=3)
            log_singles_controls += log_marginal(c[c > 0], 1, rho)
        return float(
            log_cases
            + np.logaddexp(log_controls, log_singles_controls)
            - np.logaddexp(self.log_joint_both, self.log_singles_both)
        )


def reference_permutation_null(ds, snps, n_perm, seed):
    kernel = ReferenceKernel(ds, snps)
    total = ds.n_cases + ds.n_controls
    rng = np.random.default_rng(seed)
    values = np.empty(n_perm)
    for r in range(n_perm):
        mask = np.zeros(total, dtype=bool)
        mask[rng.permutation(total)[: ds.n_cases]] = True
        values[r] = kernel.statistic(mask)
    return values, kernel


@pytest.mark.parametrize("n_perm", [1, PERM_BATCH - 1, PERM_BATCH, PERM_BATCH + 1, 600])
@pytest.mark.parametrize("snps", [(1,), (0, 2), (0, 1, 3)])
def test_batched_null_matches_one_at_a_time_reference(snps, n_perm):
    ds = null_dataset(52, 23, 31, 4)
    want, _ = reference_permutation_null(ds, snps, n_perm, seed=8)
    got = permutation_null(ds, snps, n_perm=n_perm, seed=8)
    assert got.shape == (n_perm,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batched_null_matches_reference_on_a_32_snp_set():
    ds = null_dataset(53, 20, 24, 32)
    snps = tuple(range(32))  # ternary float64 keys, still exact
    assert _pack_matrix(ds.cases[:, list(snps)].T).dtype == np.float64
    want, _ = reference_permutation_null(ds, snps, 300, seed=2)
    got = permutation_null(ds, snps, n_perm=300, seed=2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert bstat(ds, snps) == pytest.approx(ref_bstat(ds, snps), abs=1e-10)


def test_batched_null_matches_reference_on_a_36_snp_set():
    ds = null_dataset(54, 20, 24, 36)
    snps = tuple(range(36))
    # the reference's keys overflow int64 and become Python ints; the kernel
    # under test keys the set by rank
    assert python_int_keys(ds.cases[:, list(snps)]).dtype == object
    assert _pack_matrix(ds.cases[:, list(snps)].T).dtype == np.intp
    want, _ = reference_permutation_null(ds, snps, 300, seed=3)
    got = permutation_null(ds, snps, n_perm=300, seed=3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert bstat(ds, snps) == pytest.approx(ref_bstat(ds, snps), abs=1e-10)


def test_batched_null_on_a_zero_individual_panel():
    ds = make_dataset(np.zeros((0, 3)), np.zeros((0, 3)))
    for snps in [(0,), (0, 2)]:
        want, _ = reference_permutation_null(ds, snps, PERM_BATCH + 3, seed=1)
        got = permutation_null(ds, snps, n_perm=PERM_BATCH + 3, seed=1)
        assert np.array_equal(got, want) and not got.any()


def index_statistics(kernel, case_rows):
    """The statistic as it was computed from a matrix of case indices: gather
    each row's joint cells, offset row i by i cells, and count."""
    r, cells = case_rows.shape[0], kernel.joint_counts.size
    offsets = (np.arange(r) * cells)[:, None]
    cases = np.bincount(
        (kernel.joint_inverse[case_rows] + offsets).ravel(), minlength=r * cells
    ).reshape(r, cells)
    controls = kernel.joint_counts - cases
    return (
        log_marginal(cases, kernel.width, kernel.rho)
        + np.logaddexp(log_marginal(controls, kernel.width, kernel.rho), kernel._log_singles(controls))
        - np.logaddexp(kernel.log_joint_both, kernel.log_singles_both)
    )


def index_permutation_null(ds, snps, n_perm, seed):
    """The null as it was drawn: shuffle stacked ``arange`` rows of individual
    indices, then gather the cases' joint cells."""
    kernel = _SetKernel(ds, snps, RHO)
    total = ds.n_cases + ds.n_controls
    rng = np.random.default_rng(seed)
    values = np.empty(n_perm)
    for start in range(0, n_perm, PERM_BATCH):
        r = min(PERM_BATCH, n_perm - start)
        perm = np.tile(np.arange(total), (r, 1))
        rng.permuted(perm, axis=1, out=perm)
        values[start : start + r] = index_statistics(kernel, perm[:, : ds.n_cases])
    return values


@pytest.mark.parametrize("n_perm", [1, 255, 256, 257, 600, 1000])
def test_null_over_cell_labels_equals_the_index_shuffle_bit_for_bit(n_perm):
    # shuffling the cell labels draws what shuffling the indices drew, since
    # the shuffle's draws depend on the row length only
    base = null_dataset(60, 29, 47, 4)
    monomorphic = lambda g: np.column_stack([g, np.ones(len(g), dtype=np.int8)])
    ds = make_dataset(monomorphic(base.cases), monomorphic(base.controls))
    for snps in [(0,), (4,), (1, 4), (0, 2, 3), (0, 1, 3, 4)]:
        for seed in range(5):
            want = index_permutation_null(ds, snps, n_perm, seed)
            assert np.array_equal(permutation_null(ds, snps, n_perm=n_perm, seed=seed), want)


def test_observed_statistic_equals_the_index_path_bit_for_bit():
    for ds in (null_dataset(61, 29, 47, 4), null_dataset(62, 40, 13, 4)):
        for snps in [(0,), (3,), (1, 2), (0, 1, 3), (0, 1, 2, 3)]:
            kernel = _SetKernel(ds, snps, RHO)
            want = index_statistics(kernel, np.arange(ds.n_cases)[None, :])[0]
            assert bstat(ds, snps) == want


def float_bits(x):
    return np.float64(x).view(np.uint64)


@pytest.mark.parametrize(
    "values",
    [
        [2.5],
        [-0.0],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-0.0, -0.0],
        [1.0, 3.0],
        [0.1, 0.2],
        [3.0, -1.0, 0.5],
        [3.0, -1.0, 0.5, 2.0],
        [1.0, 1.0, 1.0, 2.0, 2.0],
        [2.0, 2.0, 1.0, 1.0],
        [-np.inf, np.inf],
        [-np.inf, 1.0, np.inf],
        [np.inf, np.inf, 1.0, 2.0],
        [-np.inf, -np.inf, 1.0],
        [1.0, np.nan, 2.0],
        [np.nan],
        [np.nan, 1.0],
        [np.inf, np.nan, -np.inf, 0.0],
    ],
)
def test_median_equals_numpy_bit_for_bit(values):
    values = np.array(values)
    with np.errstate(invalid="ignore"):  # the mean of -inf and inf is nan
        got, want = _median(values), np.median(values)
    assert (np.isnan(got) and np.isnan(want)) or float_bits(got) == float_bits(want)


def test_median_equals_numpy_on_permutation_nulls():
    rng = np.random.default_rng(9)
    for n in (500, 501, 1000, 1001):
        values = np.round(rng.normal(size=n), 2)  # many ties
        assert float_bits(_median(values)) == float_bits(np.median(values))
    null = permutation_null(null_dataset(63, 30, 30, 2), (0, 1), n_perm=1000, seed=2)
    assert float_bits(_median(null)) == float_bits(np.median(null))


def test_shift_fits_and_calibrations_leave_numpy_ma_unloaded():
    # np.median imports numpy.ma for its NaN check; both calibrations take a
    # median before any p-value would import scipy
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from beamscan.bstat import fit_shift_constant, null_calibration\n"
        "from beamscan.dataio import GenotypeDataset\n"
        "rng = np.random.default_rng(0)\n"
        "g = lambda n: rng.integers(0, 3, size=(n, 3)).astype(np.int8)\n"
        "ds = GenotypeDataset(g(40), g(50), ('a', 'b', 'c'), (1, 2, 3))\n"
        "c = fit_shift_constant(ds, (0, 2), n_perm=500)\n"
        "null_calibration(ds, (1,), n_perm=500)\n"
        "null_calibration(ds, (0, 2), mode='analytic', shift_constant=c)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'] or m.startswith('scipy')))\n"
    )
    src = str(Path(beamscan.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_permutations_that_reproduce_the_observed_table_tie_exactly():
    # 4 cases + 4 controls over two genotypes: every permutation that puts the
    # same number of 2s among the cases reproduces the observed count table
    ds = make_dataset([[2], [2], [0], [0]], [[2], [0], [2], [0]])
    for snps, seed in [((0,), 3), ((0,), 4)]:
        want, kernel = reference_permutation_null(ds, snps, 600, seed)
        mask = np.arange(8) < 4
        observed = kernel.statistic(mask)
        got = permutation_null(ds, snps, n_perm=600, seed=seed)
        b = bstat(ds, snps)
        assert np.sum(got == b) > 100  # many exact ties with the observed value
        assert np.sum(got >= b) == np.sum(want >= observed)
    # nine joint cells, so each row sums more than eight terms: the replicates
    # whose case table is the observed one must still equal bstat exactly
    c = [(a, b) for a in range(3) for b in range(3)]
    nine = make_dataset(c[:6], [c[0], c[1], c[6], c[7], c[8], c[8]])
    keys = np.vstack([nine.cases, nine.controls]) @ np.array([3, 1])
    observed = np.bincount(keys[:6], minlength=9)
    got = permutation_null(nine, (0, 1), n_perm=2000, seed=0)
    rng = np.random.default_rng(0)
    same = np.array([np.array_equal(np.bincount(keys[rng.permutation(12)[:6]], minlength=9),
                                    observed) for _ in range(2000)])
    b = bstat(nine, (0, 1))
    assert same.sum() > 0 and np.all(got[same] == b)
    want, kernel = reference_permutation_null(nine, (0, 1), 2000, 0)
    assert np.sum(got >= b) == np.sum(want >= kernel.statistic(np.arange(12) < 6))


def test_permutation_p_value_bounds():
    cal = null_calibration(null_dataset(45, 10, 10, 2), (0,), mode="permutation",
                           n_perm=500, seed=0)
    assert cal.p_value(math.inf) == pytest.approx(1 / 501)
    assert cal.p_value(-math.inf) == 1.0
    mid = cal.p_value(float(np.median(cal.null_values)))
    assert 0.3 < mid < 0.8


def test_permutation_p_values_are_roughly_uniform_under_the_null():
    ds = null_dataset(46, 50, 50, 2)
    cal = null_calibration(ds, (0,), mode="permutation", n_perm=999, seed=1)
    fresh = permutation_null(ds, (0,), n_perm=300, seed=2)
    pvals = np.array([cal.p_value(b) for b in fresh])
    assert kstest(pvals, "uniform").pvalue > 1e-3
    # never anti-conservative by more than sampling noise
    for t in (0.01, 0.05, 0.1, 0.2):
        frac = float(np.mean(pvals <= t))
        assert frac <= t + 3 * math.sqrt(t * (1 - t) / pvals.size) + 1 / 999


def test_calibration_input_validation():
    ds = null_dataset(47, 20, 20, 2)
    with pytest.raises(ValueError):
        null_calibration(ds, ())
    with pytest.raises(ConstraintError, match="the panel has no cases;"):
        null_calibration(null_dataset(47, 0, 20, 2), (0,))
    with pytest.raises(ValueError):
        null_calibration(ds, (0,), mode="permutation", n_perm=499)
    with pytest.raises(ValueError):
        null_calibration(ds, (0,), mode="bootstrap")


# -- analytic calibration ---------------------------------------------------------------


def test_analytic_shift_algebra():
    c = 0.7
    n = 400
    assert analytic_shift(n, n, 1, c) == pytest.approx(-c * 2 * math.log(n / 2))
    assert analytic_shift(n, n, 2, c) == pytest.approx(-c * 8 * math.log(n / 2))
    # doubling both cohorts moves the shift by -c * df * log(2)
    delta = analytic_shift(2 * n, 2 * n, 1, c) - analytic_shift(n, n, 1, c)
    assert delta == pytest.approx(-c * 2 * math.log(2))
    with pytest.raises(ConstraintError, match="the panel has no cases;"):
        analytic_shift(0, n, 1, c)
    with pytest.raises(ConstraintError, match="the panel has no cases and no controls;"):
        analytic_shift(0, 0, 1, c)


def test_fitted_constant_sets_the_analytic_shift():
    ds = null_dataset(48, 37, 41, 2)
    c = fit_shift_constant(ds, (0,), n_perm=600, seed=3)
    assert c > 0
    assert fit_shift_constant(ds, (0,), n_perm=600, seed=3) == c  # no hidden state
    cal = null_calibration(ds, (0,), mode="analytic", shift_constant=c)
    assert cal.shift == pytest.approx(analytic_shift(37, 41, 1, c))
    assert cal.df == 2
    explicit = null_calibration(ds, (1,), mode="analytic", shift_constant=0.5)
    assert explicit.shift == pytest.approx(analytic_shift(37, 41, 1, 0.5))
    with pytest.raises(ValueError):
        null_calibration(ds, (0,), mode="analytic")  # no constant given
    with pytest.raises(ValueError):
        fit_shift_constant(ds, (0,), n_perm=499)
    with pytest.raises(ConstraintError, match="the panel has no controls;"):
        fit_shift_constant(null_dataset(48, 37, 0, 2), (0,), n_perm=600)


def test_median_shift_uses_the_chi_square_median():
    null = np.array([3.0, -1.0, 0.5, 2.0])
    for df in (2, 8, 26, 80, 242, 3**20 - 1):
        assert _median_shift(null, df) == float(np.median(null)) - float(chi2.ppf(0.5, df)) / 2.0


def test_median_shift_equals_scipy_for_every_set_size():
    null = np.array([3.0, -1.0, 0.5, 2.0])
    for m in range(1, MAX_SET_SIZE + 1):
        df = 3**m - 1
        assert _median_shift(null, df) == 1.25 - float(gammaincinv((3**m - 1) / 2, 0.5)), m


def test_fit_shift_constant_rejects_two_cases_and_two_controls():
    ds = make_dataset([[0], [1]], [[2], [1]])
    assert analytic_shift(2, 2, 1, 1.0) == 0.0
    with pytest.raises(ValueError, match="2 cases and 2 controls"):
        fit_shift_constant(ds, (0,), n_perm=500)


def test_analytic_null_median_is_stable_out_of_sample():
    ds = null_dataset(49, 120, 120, 2)
    c = fit_shift_constant(ds, (0,), n_perm=800, seed=4)
    cal = null_calibration(ds, (0,), mode="analytic", shift_constant=c)
    fresh = permutation_null(ds, (0,), n_perm=800, seed=5)
    med = float(np.median(2.0 * (fresh - cal.shift)))
    assert med == pytest.approx(chi2.ppf(0.5, 2), rel=0.25)
    mid_p = cal.p_value(float(np.median(fresh)))
    assert 0.3 < mid_p < 0.7


# -- posterior candidates and set scoring ------------------------------------------------


def test_screen_empty_summary():
    ds = null_dataset(50, 20, 20, 3)
    assert posterior_candidates([0.1, 0.2, 0.0], {}, 0.5) == []
    assert score_sets(ds, [], 0.05) == []


def test_screen_single_candidate():
    ds = make_dataset(
        np.column_stack([np.full(40, 2), np.zeros(40)]),
        np.column_stack([np.zeros(40), np.zeros(40)]),
    )
    candidates = posterior_candidates([0.95, 0.05], {}, 0.5)
    assert candidates == [(0,)]
    out = score_sets(ds, candidates, 0.05, n_perm=600, seed=9)
    assert [r.snp_set for r in out] == [(0,)]
    r = out[0]
    assert r.calibration == "permutation"
    assert r.df == 2
    assert r.p_value == pytest.approx(1 / 601)
    assert r.significant  # 1/601 < 0.05 / C(2,1)
    assert r.b_value == pytest.approx(bstat(ds, (0,)))


def test_screen_pure_epistasis_beats_marginals():
    # joint distribution differs completely between cohorts while both
    # single-SNP margins are identical fifty-fifty splits
    cases = np.array([[0, 0]] * 50 + [[1, 1]] * 50, np.int8)
    controls = np.array([[0, 1]] * 50 + [[1, 0]] * 50, np.int8)
    ds = make_dataset(cases, controls)
    candidates = posterior_candidates([0.9, 0.9], {(0, 1): 0.8}, 0.5)
    assert candidates == [(0,), (1,), (0, 1)]
    out = score_sets(ds, candidates, 0.05, n_perm=600, seed=11)
    assert [r.snp_set for r in out] == [(0,), (1,), (0, 1)]
    single0, single1, joint = out
    assert joint.b_value > max(single0.b_value, single1.b_value) + 10
    assert joint.p_value < min(single0.p_value, single1.p_value)
    assert joint.significant
    assert not single0.significant and not single1.significant
    assert joint.df == 8


def test_screen_n_tests_override():
    ds = make_dataset(np.full((30, 1), 2), np.zeros((30, 1)))
    strict = score_sets(ds, posterior_candidates([1.0], {}, 0.5), 0.05,
                        n_tests=10_000_000, n_perm=600, seed=2)
    assert not strict[0].significant  # 1/601 is above 0.05 / 1e7


def test_screen_decides_a_bonferroni_divisor_past_the_float_range_exactly():
    # 0.05 / 10**400 overflows a float, so significance is decided on fractions
    ds = make_dataset(np.full((600, 1), 2), np.zeros((600, 1)))
    [perm] = score_sets(ds, [(0,)], 0.05, n_tests=10**400, n_perm=500, seed=2)
    assert perm.p_value == pytest.approx(1 / 501) and not perm.significant
    [exact] = score_sets(ds, [(0,)], 0.05, n_tests=10**400, mode="analytic", n_perm=500, seed=2)
    assert exact.p_value == 0.0 and exact.significant


def test_set_size_cap_is_the_largest_whose_degrees_of_freedom_fit_a_float():
    assert math.isfinite(float(3**MAX_SET_SIZE - 1))
    with pytest.raises(OverflowError):
        float(3 ** (MAX_SET_SIZE + 1) - 1)
    ds = null_dataset(52, 10, 10, MAX_SET_SIZE + 1)
    with pytest.raises(ConstraintError, match=f"exceeds {MAX_SET_SIZE}"):
        bstat(ds, range(MAX_SET_SIZE + 1))


def test_results_to_tsv_format():
    rows = [
        BStatResult((0,), 3.25, 2, -1.5, 0.001, "permutation", True),
        BStatResult((1, 2), -0.5, 8, -6.0, 0.9, "analytic", False),
    ]
    text = results_to_tsv(rows, ("rs1", "rs2", "rs3"))
    lines = text.strip().split("\n")
    assert lines[0] == "#snp_ids\tm\tb_value\tdf\tshift\tp_value\tcalibration\tsignificant"
    assert lines[1].split("\t") == ["rs1", "1", "3.25", "2", "-1.5", "0.001", "permutation", "1"]
    assert lines[2].split("\t")[0] == "rs2,rs3"
    assert lines[2].split("\t")[-1] == "0"
