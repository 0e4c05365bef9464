"""Bayes-factor statistic for joint association of a SNP set.

The statistic compares an association model (cases and controls drawn from
separate diplotype distributions over the set) against a null mixture of one
shared distribution and per-SNP independence; both alternatives enter as
equal-weight mixtures whose normalization cancels. Calibration is either by
label permutation (empirical p-values with add-one smoothing) or by a shifted
chi-square with 3^M - 1 degrees of freedom whose shift constant is fit by
matching the permutation-null median (``fit_shift_constant``) and passed to
``null_calibration`` by the caller. ``null_calibration`` takes the dataset
and the set it calibrates and reads the cohort sizes and the set size (so
the degrees of freedom) from them.

Both shifts put the null's median on half the chi-square median, which
``_half_chi2_median`` gives without scipy and equal to ``scipy.special``'s
value bit for bit; scipy is imported only for an analytic p-value. The
null's median comes from ``_median``: ``np.median``'s own partition and mean,
without the NaN check that imports ``numpy.ma``.

The observed labelling and every permuted one go through one statistic,
``_SetKernel.statistics``: it takes each labelling's case cells (every case's
joint diplotype cell, row i offset by i times the cell count), counts them
with one ``bincount``, derives the per-SNP counts from the joint counts with
one matrix product, and evaluates every marginal with ``log_marginal`` over
the count rows. ``bstat`` passes the first ``n_cases`` cells unshuffled. A
permutation that reproduces the observed count table therefore ties with the
observed value exactly, which the ``null >= b`` count of the p-value relies
on.

``permutation_null`` shuffles cell labels, not individuals, so no gather
follows the shuffle: each batch fills the ``PERM_BATCH`` rows of one reused
buffer with every individual's joint cell, shuffles each row with
``Generator.permuted``, and offsets row i's case columns by i cells. The
shuffle's draws depend on the row length only, never on the values, so row
i's case columns hold the cells of exactly the individuals that the i-th
successive ``Generator.permutation`` call would put first: the stream and
every null value are those of one such call per replicate, whatever the
batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # at import: numpy 2 loads numpy.random on first use

from .dataio import GenotypeDataset
from .likelihood import RHO_DEFAULT, _pack_matrix, log_marginal
from .model import ConstraintError

PERM_BATCH = 256  # permutation replicates evaluated per batch
MAX_SET_SIZE = 646  # the largest M whose 3^M - 1 degrees of freedom fit a float
N_PERM_DEFAULT = 1000  # permutation replicates per set
N_PERM_MIN = 500  # the fewest replicates that a calibration or a shift-constant fit takes


@dataclass
class BStatResult:
    """One tested SNP set with its statistic and calibrated p-value."""

    snp_set: tuple[int, ...]
    b_value: float
    df: int
    shift: float
    p_value: float
    calibration: str
    significant: bool | None = None


class _SetKernel:
    """Precomputed pieces of the statistic that survive label permutation."""

    def __init__(self, dataset: GenotypeDataset, snps: tuple[int, ...], rho: float):
        self.rho = rho
        self.width = len(snps)
        # the set's rows of GenotypeDataset.codes: SNP-major, cases before controls
        codes = dataset.codes[list(snps)]
        keys = _pack_matrix(codes)
        _, first, inv, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        self.joint_inverse = inv
        self.joint_counts = counts
        self.log_joint_both = log_marginal(counts, self.width, rho)
        # Each joint cell fixes every member's genotype, so per-SNP counts are
        # joint counts times a (cells, 3 * width) one-hot map.
        self.single_map = np.zeros((counts.size, 3 * self.width))
        cells = 3 * np.arange(self.width) + codes[:, first].T
        np.put_along_axis(self.single_map, cells, 1.0, axis=1)
        self.log_singles_both = float(self._log_singles(counts[None, :])[0])

    def _log_singles(self, joint: np.ndarray) -> np.ndarray:
        """Summed per-SNP log marginals for each row of joint cell counts."""
        singles = (joint @ self.single_map).reshape(joint.shape[0], self.width, 3)
        return log_marginal(singles, 1, self.rho).sum(axis=-1)

    def statistics(self, case_cells: np.ndarray) -> np.ndarray:
        """The statistic for each row of ``case_cells``, which lists the joint
        cells of one labelling's cases, row i offset by i times the cell count."""
        r, cells = case_cells.shape[0], self.joint_counts.size
        cases = np.bincount(case_cells.ravel(), minlength=r * cells).reshape(r, cells)
        controls = self.joint_counts - cases
        log_cases = log_marginal(cases, self.width, self.rho)
        log_controls = log_marginal(controls, self.width, self.rho)
        return (
            log_cases
            + np.logaddexp(log_controls, self._log_singles(controls))
            - np.logaddexp(self.log_joint_both, self.log_singles_both)
        )


def _validated_set(dataset: GenotypeDataset, snp_set) -> tuple[int, ...]:
    snps = tuple(int(s) for s in snp_set)
    if len(snps) < 1:
        raise ValueError("snp_set must contain at least one SNP")
    if len(set(snps)) != len(snps):
        raise ValueError("duplicate SNP indices in snp_set")
    for s in snps:
        if not 0 <= s < dataset.n_snps:
            raise IndexError(f"SNP index {s} out of range")
    if len(snps) > MAX_SET_SIZE:
        raise ConstraintError(
            f"set size {len(snps)} exceeds {MAX_SET_SIZE}, the largest whose "
            "3^M - 1 degrees of freedom fit a float"
        )
    return snps


def bstat(dataset: GenotypeDataset, snp_set, rho: float = RHO_DEFAULT) -> float:
    """Log Bayes factor of joint association for ``snp_set``."""
    snps = _validated_set(dataset, snp_set)
    kernel = _SetKernel(dataset, snps, rho)
    return float(kernel.statistics(kernel.joint_inverse[None, : dataset.n_cases])[0])


def permutation_null(
    dataset: GenotypeDataset,
    snp_set,
    rho: float = RHO_DEFAULT,
    n_perm: int = N_PERM_DEFAULT,
    seed: int = 0,
) -> np.ndarray:
    """Statistic values under ``n_perm`` random case/control relabelings."""
    snps = _validated_set(dataset, snp_set)
    kernel = _SetKernel(dataset, snps, rho)
    rng = default_rng(seed)
    values = np.empty(n_perm)
    rows = min(PERM_BATCH, n_perm)
    shuffled = np.empty((rows, kernel.joint_inverse.size), dtype=kernel.joint_inverse.dtype)
    offsets = (np.arange(rows) * kernel.joint_counts.size)[:, None]
    for start in range(0, n_perm, PERM_BATCH):
        r = min(PERM_BATCH, n_perm - start)
        # each row is every individual's joint cell, shuffled; a row's offset
        # is the same in every column, so it is added to the case columns only
        batch = shuffled[:r]
        batch[...] = kernel.joint_inverse
        rng.permuted(batch, axis=1, out=batch)
        values[start : start + r] = kernel.statistics(batch[:, : dataset.n_cases] + offsets[:r])
    return values


def chi2_sf(x: float, df: float) -> float:
    """Chi-square upper tail P(X >= x); equals ``scipy.stats.chi2.sf``.

    ``scipy.special`` is imported on the first call with x > 0, off every
    command's start-up: only an analytic p-value calls this.
    """
    if x <= 0:
        return 1.0
    from scipy.special import chdtrc

    return float(chdtrc(df, x))


@dataclass
class NullCalibration:
    """Null reference for converting a statistic into a p-value."""

    mode: str
    df: int
    shift: float
    null_values: np.ndarray | None = None

    def p_value(self, b: float) -> float:
        if self.mode == "permutation":
            assert self.null_values is not None
            exceed = int(np.sum(self.null_values >= b))
            return (1 + exceed) / (self.null_values.size + 1)
        return chi2_sf(2.0 * (b - self.shift), self.df)


# gammaincinv(df / 2, 0.5) as scipy.special returns it, for df = 3^M - 1 and M = 1..8
_HALF_MEDIANS = {
    3**m - 1: value
    for m, value in enumerate((0.6931471805599455, 3.672060748850897, 12.668229058738632,
                               39.6671650106891, 120.6668304082287, 363.6667209878287,
                               1092.6666847450608, 3279.6666726896196), start=1)
}
_SERIES_DF = 3**9 - 1


def _half_chi2_median(df: int) -> float:
    """Half the median of a chi-square with ``df`` = 3^M - 1 degrees of freedom,
    equal to ``scipy.special.gammaincinv(df / 2, 0.5)`` bit for bit.

    From M = 9 on it is Choi's (1994) series for the gamma median,
    a - 1/3 + 8/(405a) + 184/(25515a^2) with a = df / 2, evaluated in this
    order; below, the series is off by up to 4.8e-4 and the values are recorded.
    """
    if df >= _SERIES_DF:
        a = df / 2
        return a - 1 / 3 + 8 / (405 * a) + 184 / (25515 * a * a)
    return _HALF_MEDIANS[df]


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit.

    The same partition (the middle index or two, and the last for a NaN) and
    the same mean of the middle slice, without the NaN check that imports
    ``numpy.ma``: a NaN sorts last, and then the median is NaN.
    """
    half = values.size // 2
    kth = [half] if values.size % 2 else [half - 1, half]
    part = np.partition(values, [*kth, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[kth[0] : half + 1]))


def _median_shift(null: np.ndarray, df: int) -> float:
    """The shift that puts half the chi-square median on the null's median."""
    return _median(null) - _half_chi2_median(df)


def _check_cohorts(n_cases: int, n_controls: int) -> None:
    """Refuse a panel that lacks a cohort: a set's null compares the two."""
    empty = [name for name, n in (("cases", n_cases), ("controls", n_controls)) if n < 1]
    if empty:
        raise ConstraintError(f"the panel has no {' and no '.join(empty)}; a set test needs both cohorts")


def analytic_shift(n_cases: int, n_controls: int, m: int, c: float) -> float:
    """Shift of the chi-square null: -c * (3^M - 1) * ln(Nd*Nu / (Nd+Nu))."""
    _check_cohorts(n_cases, n_controls)
    df = 3**m - 1
    return -c * df * math.log(n_cases * n_controls / (n_cases + n_controls))


def fit_shift_constant(
    dataset: GenotypeDataset,
    snp_set,
    rho: float = RHO_DEFAULT,
    n_perm: int = N_PERM_DEFAULT,
    seed: int = 0,
) -> float:
    """Fit the analytic shift constant c by matching the permutation median:
    the permutation calibration's shift over the analytic shift at c = 1,
    so the fit needs at least ``N_PERM_MIN`` replicates.
    """
    snps = _validated_set(dataset, snp_set)
    unit_shift = analytic_shift(dataset.n_cases, dataset.n_controls, len(snps), 1.0)
    if unit_shift == 0.0:
        raise ValueError(
            f"the analytic shift is 0 for {dataset.n_cases} cases and "
            f"{dataset.n_controls} controls, so its constant cannot be fit; "
            "use permutation calibration"
        )
    null = null_calibration(dataset, snps, rho=rho, mode="permutation", n_perm=n_perm, seed=seed)
    return null.shift / unit_shift


def null_calibration(
    dataset: GenotypeDataset,
    snp_set,
    rho: float = RHO_DEFAULT,
    mode: str = "permutation",
    n_perm: int = N_PERM_DEFAULT,
    seed: int = 0,
    shift_constant: float | None = None,
) -> NullCalibration:
    """Build the null reference for ``snp_set`` in ``dataset``.

    The cohort sizes and the set size come from the two. Permutation mode
    (the default) needs at least ``N_PERM_MIN`` replicates. Analytic mode needs
    ``shift_constant``, as returned by :func:`fit_shift_constant` for a set
    of the same size.
    """
    snps = _validated_set(dataset, snp_set)
    _check_cohorts(dataset.n_cases, dataset.n_controls)
    df = 3 ** len(snps) - 1
    if mode == "permutation":
        if n_perm < N_PERM_MIN:
            raise ValueError(f"permutation calibration needs n_perm >= {N_PERM_MIN}")
        null = permutation_null(dataset, snps, rho=rho, n_perm=n_perm, seed=seed)
        shift = _median_shift(null, df)
        return NullCalibration(mode="permutation", df=df, shift=shift, null_values=null)
    if mode == "analytic":
        if shift_constant is None:
            raise ValueError("analytic calibration needs a fitted shift constant")
        shift = analytic_shift(dataset.n_cases, dataset.n_controls, len(snps), shift_constant)
        return NullCalibration(mode="analytic", df=df, shift=shift)
    raise ValueError(f"unknown calibration mode: {mode!r}")


def posterior_candidates(assoc_posterior, interaction_sets, threshold: float) -> list[tuple[int, ...]]:
    """The SNP sets a posterior puts forward for testing.

    Single SNPs whose association posterior reaches ``threshold`` come first,
    in SNP order; sampled interaction sets at or above it follow, ordered by
    size and then by members.
    """
    candidates: list[tuple[int, ...]] = [
        (int(i),) for i in np.flatnonzero(np.asarray(assoc_posterior) >= threshold)
    ]
    joints = [
        tuple(int(v) for v in key)
        for key, freq in sorted(interaction_sets.items())
        if freq >= threshold
    ]
    candidates.extend(sorted(joints, key=lambda s: (len(s), s)))
    return candidates


def results_to_tsv(results: list[BStatResult], snp_ids) -> str:
    """Serialize screening results as a tab-separated table."""
    lines = ["#snp_ids\tm\tb_value\tdf\tshift\tp_value\tcalibration\tsignificant"]
    for r in results:
        ids = ",".join(snp_ids[i] for i in r.snp_set)
        lines.append(
            f"{ids}\t{len(r.snp_set)}\t{r.b_value:.6g}\t{r.df}\t{r.shift:.6g}\t"
            f"{r.p_value:.6g}\t{r.calibration}\t{int(bool(r.significant))}"
        )
    return "\n".join(lines) + "\n"
