"""Bayes-factor statistic for joint association of a SNP set.

The statistic compares an association model (cases and controls drawn from
separate diplotype distributions over the set) against a null mixture of one
shared distribution and per-SNP independence; both alternatives enter as
equal-weight mixtures whose normalization cancels. Calibration is either by
label permutation (empirical p-values with add-one smoothing) or by a shifted
chi-square with 3^M - 1 degrees of freedom whose shift constant is fit by
matching the permutation-null median (``fit_shift_constant``) and passed to
``null_calibration`` by the caller.

The observed labelling and every permuted one go through one statistic,
``_SetKernel.statistics``: it scores a matrix of case assignments with one
offset ``bincount`` over the set's joint diplotype cells, derives the per-SNP
counts from the joint counts with one matrix product, and evaluates every
marginal with ``log_marginal`` over the count rows. A permutation that
reproduces the observed count table therefore ties with the observed value
exactly, which the ``null >= b`` count of the p-value relies on.
``permutation_null`` draws ``PERM_BATCH`` replicates at a time with
``Generator.permuted`` over stacked ``arange`` rows; that consumes the seed's
stream exactly as one ``Generator.permutation`` call per replicate does, so
the null values of a seed do not depend on the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .dataio import GenotypeDataset, chi2_sf
from .likelihood import _pack_matrix, log_marginal
from .model import ConstraintError

PERM_BATCH = 256  # permutation replicates evaluated per batch


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
        combined = np.vstack([dataset.cases, dataset.controls])[:, list(snps)]
        keys = _pack_matrix(combined)
        _, first, inv, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        self.joint_inverse = inv
        self.joint_counts = counts
        self.log_joint_both = log_marginal(counts, self.width, rho)
        # Each joint cell fixes every member's genotype, so per-SNP counts are
        # joint counts times a (cells, 3 * width) one-hot map.
        self.single_map = np.zeros((counts.size, 3 * self.width))
        cols = 3 * np.arange(self.width) + combined[first]
        np.put_along_axis(self.single_map, cols, 1.0, axis=1)
        self.log_singles_both = float(self._log_singles(counts[None, :])[0])

    def _log_singles(self, joint: np.ndarray) -> np.ndarray:
        """Summed per-SNP log marginals for each row of joint cell counts."""
        singles = (joint @ self.single_map).reshape(joint.shape[0], self.width, 3)
        return log_marginal(singles, 1, self.rho).sum(axis=-1)

    def statistics(self, case_rows: np.ndarray) -> np.ndarray:
        """The statistic for each row of ``case_rows``, which lists the cases
        by their index in the cases-then-controls stacking."""
        r, cells = case_rows.shape[0], self.joint_counts.size
        offsets = (np.arange(r) * cells)[:, None]
        cases = np.bincount(
            (self.joint_inverse[case_rows] + offsets).ravel(), minlength=r * cells
        ).reshape(r, cells)
        controls = self.joint_counts - cases
        log_cases = log_marginal(cases, self.width, self.rho)
        log_controls = log_marginal(controls, self.width, self.rho)
        return (
            log_cases
            + np.logaddexp(log_controls, self._log_singles(controls))
            - np.logaddexp(self.log_joint_both, self.log_singles_both)
        )


def _validated_set(dataset: GenotypeDataset, snp_set, max_order: int | None) -> tuple[int, ...]:
    snps = tuple(int(s) for s in snp_set)
    if len(snps) < 1:
        raise ValueError("snp_set must contain at least one SNP")
    if len(set(snps)) != len(snps):
        raise ValueError("duplicate SNP indices in snp_set")
    for s in snps:
        if not 0 <= s < dataset.n_snps:
            raise IndexError(f"SNP index {s} out of range")
    if max_order is not None and len(snps) > max_order:
        raise ConstraintError(
            f"set size {len(snps)} exceeds the interaction-order cap {max_order}"
        )
    return snps


def bstat(dataset: GenotypeDataset, snp_set, rho: float = 1.5, max_order: int | None = None) -> float:
    """Log Bayes factor of joint association for ``snp_set``."""
    snps = _validated_set(dataset, snp_set, max_order)
    kernel = _SetKernel(dataset, snps, rho)
    return float(kernel.statistics(np.arange(dataset.n_cases)[None, :])[0])


def permutation_null(
    dataset: GenotypeDataset,
    snp_set,
    rho: float = 1.5,
    n_perm: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Statistic values under ``n_perm`` random case/control relabelings."""
    snps = _validated_set(dataset, snp_set, None)
    kernel = _SetKernel(dataset, snps, rho)
    total = dataset.n_cases + dataset.n_controls
    rng = np.random.default_rng(seed)
    values = np.empty(n_perm)
    for start in range(0, n_perm, PERM_BATCH):
        r = min(PERM_BATCH, n_perm - start)
        # Row i is what the i-th successive rng.permutation(total) would draw.
        perm = np.tile(np.arange(total), (r, 1))
        rng.permuted(perm, axis=1, out=perm)
        values[start : start + r] = kernel.statistics(perm[:, : dataset.n_cases])
    return values


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


def _median_shift(null: np.ndarray, df: int) -> float:
    """The shift that puts half the chi-square median on the null's median."""
    # gammaincinv(df / 2, 0.5) is half the median, as scipy.stats.chi2.ppf computes it
    return float(np.median(null)) - float(gammaincinv(df / 2, 0.5))


def analytic_shift(n_cases: int, n_controls: int, m: int, c: float) -> float:
    """Shift of the chi-square null: -c * (3^M - 1) * ln(Nd*Nu / (Nd+Nu))."""
    if n_cases < 1 or n_controls < 1:
        raise ValueError("both cohorts must be non-empty for the analytic shift")
    df = 3**m - 1
    return -c * df * math.log(n_cases * n_controls / (n_cases + n_controls))


def fit_shift_constant(
    dataset: GenotypeDataset,
    snp_set,
    rho: float = 1.5,
    n_perm: int = 1000,
    seed: int = 0,
) -> float:
    """Fit the analytic shift constant c by matching the permutation median.

    Like permutation calibration, the fit needs at least 500 replicates.
    """
    snps = _validated_set(dataset, snp_set, None)
    if n_perm < 500:
        raise ValueError("fitting the shift constant needs n_perm >= 500")
    unit_shift = analytic_shift(dataset.n_cases, dataset.n_controls, len(snps), 1.0)
    if unit_shift == 0.0:
        raise ValueError(
            f"the analytic shift is 0 for {dataset.n_cases} cases and "
            f"{dataset.n_controls} controls, so its constant cannot be fit; "
            "use permutation calibration"
        )
    null = permutation_null(dataset, snps, rho=rho, n_perm=n_perm, seed=seed)
    return _median_shift(null, 3 ** len(snps) - 1) / unit_shift


def null_calibration(
    n_cases: int,
    n_controls: int,
    m: int,
    rho: float = 1.5,
    mode: str = "permutation",
    dataset: GenotypeDataset | None = None,
    snp_set=None,
    n_perm: int = 1000,
    seed: int = 0,
    shift_constant: float | None = None,
) -> NullCalibration:
    """Build the null reference for a size-``m`` set.

    Permutation mode (the default) needs the dataset, the set, and at least
    500 replicates. Analytic mode needs ``shift_constant``, as returned by
    :func:`fit_shift_constant` for a set of the same size.
    """
    if m < 1:
        raise ValueError("set size must be at least 1")
    if n_cases < 1 or n_controls < 1:
        raise ValueError("degenerate cohort sizes")
    df = 3**m - 1
    if mode == "permutation":
        if dataset is None or snp_set is None:
            raise ValueError("permutation calibration requires a dataset and a SNP set")
        if n_perm < 500:
            raise ValueError("permutation calibration needs n_perm >= 500")
        if (dataset.n_cases, dataset.n_controls) != (n_cases, n_controls):
            raise ValueError("dataset cohort sizes disagree with n_cases/n_controls")
        null = permutation_null(dataset, snp_set, rho=rho, n_perm=n_perm, seed=seed)
        shift = _median_shift(null, df)
        return NullCalibration(mode="permutation", df=df, shift=shift, null_values=null)
    if mode == "analytic":
        if shift_constant is None:
            raise ValueError("analytic calibration needs a fitted shift constant")
        shift = analytic_shift(n_cases, n_controls, m, shift_constant)
        return NullCalibration(mode="analytic", df=df, shift=shift)
    raise ValueError(f"unknown calibration mode: {mode!r}")


def posterior_candidates(summary, threshold: float) -> list[tuple[int, ...]]:
    """The SNP sets a posterior summary puts forward for testing.

    Single SNPs whose association posterior reaches ``threshold`` come first,
    in SNP order; sampled interaction sets at or above it follow, ordered by
    size and then by members.
    """
    candidates: list[tuple[int, ...]] = [
        (int(i),) for i in np.flatnonzero(np.asarray(summary.assoc_posterior) >= threshold)
    ]
    joints = [
        tuple(int(v) for v in key)
        for key, freq in sorted(summary.interaction_sets.items())
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
