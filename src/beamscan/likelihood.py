"""Dirichlet-multinomial marginal likelihoods over SNP-set diplotypes.

A width-w SNP set has 3^w possible diplotypes (genotype code sequences).
Counts are modelled by a multinomial with a symmetric Dirichlet prior whose
per-cell pseudocount is alpha_h = rho / 3^w, so the total pseudocount mass is
rho regardless of width. All evaluation is in log space; alpha_h underflows
double precision past w ~ 650, so per-cell terms use the exact identity

    lnG(n + a) - lnG(a) = ln(a) + lnG(n + a) - lnG(1 + a)      (n >= 1)

with ln(a) formed as ln(rho) - w * ln(3).

Individuals' genotype rows are packed into integer keys (2 bits per SNP) by
``_pack_matrix`` and counted with ``np.unique``; ``log_marginal`` turns
per-diplotype counts into the log marginal, one sample per row of a count
matrix (zero cells are absent diplotypes), and
``LikelihoodEngine`` memoizes it per (SNP set, cohort) along with the number
of distinct diplotypes that the block-diversity constraint reads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .dataio import GenotypeDataset

LOG3 = math.log(3.0)

WHO_BOTH = "both"
WHO_CASES = "cases"
WHO_CONTROLS = "controls"


def _pack_matrix(mat: np.ndarray) -> np.ndarray:
    """Pack each row of an (n, w) code matrix into an integer key.

    Rows with w <= 31 fit an int64; wider rows are packed chunk-wise into
    Python ints (rare: only very wide blocks reach this path).
    """
    n, w = mat.shape
    if w == 0:
        return np.zeros(n, dtype=np.int64)
    if w <= 31:
        weights = np.left_shift(np.int64(1), 2 * np.arange(w, dtype=np.int64))
        return mat.astype(np.int64) @ weights
    keys = [0] * n
    for start in range(0, w, 24):
        chunk = mat[:, start : start + 24].astype(np.int64)
        weights = np.left_shift(np.int64(1), 2 * np.arange(chunk.shape[1], dtype=np.int64))
        vals = (chunk @ weights).tolist()
        shift = 2 * start
        keys = [k | (int(v) << shift) for k, v in zip(keys, vals)]
    return np.array(keys, dtype=object)


def log_marginal(counts: np.ndarray, width: int, rho: float) -> float | np.ndarray:
    """Log marginal of multinomial samples under the width-scaled prior.

    ``counts`` holds per-diplotype totals along its last axis, one sample per
    row; zero cells are absent diplotypes and contribute nothing. Returns a
    float for a 1-D input and an array of the leading shape otherwise.
    """
    counts = np.asarray(counts, dtype=np.float64)
    log_alpha = math.log(rho) - width * LOG3
    alpha = math.exp(log_alpha)  # may underflow to 0.0 for huge widths; harmless
    absent = counts == 0
    terms = gammaln(counts + alpha)
    terms[absent] = 0.0
    present = counts.shape[-1] - np.add.reduce(absent, axis=-1)
    per_cell = present * (log_alpha - float(gammaln(1.0 + alpha))) + np.add.reduce(terms, axis=-1)
    # an empty sample gives lnG(rho) - lnG(0 + rho), exactly 0
    value = per_cell + float(gammaln(rho)) - gammaln(np.add.reduce(counts, axis=-1) + rho)
    return float(value) if counts.ndim == 1 else value


class LikelihoodEngine:
    """Memoized marginal evaluator bound to one dataset and one rho.

    Keys are (sorted SNP index tuple, cohort selector); values are the log
    marginals. The sampler and the exact enumerator share one instance so
    identical subsets are never recounted.
    """

    def __init__(self, dataset: GenotypeDataset, rho: float = 1.5):
        if not rho > 0:
            raise ValueError("rho must be positive")
        self.rho = float(rho)
        self.n_cases = dataset.n_cases
        self.n_controls = dataset.n_controls
        # One combined matrix, cases stacked above controls.
        self._all = np.ascontiguousarray(
            np.vstack([dataset.cases, dataset.controls]), dtype=np.int8
        )
        self._marg: dict[tuple[tuple[int, ...], str], float] = {}
        self._distinct: dict[tuple[int, ...], int] = {}

    def _rows(self, who: str) -> np.ndarray:
        if who == WHO_BOTH:
            return self._all
        if who == WHO_CASES:
            return self._all[: self.n_cases]
        if who == WHO_CONTROLS:
            return self._all[self.n_cases :]
        raise ValueError(f"unknown cohort selector: {who!r}")

    def marginal(self, snps: tuple[int, ...], who: str) -> float:
        """Log marginal of ``snps`` in cohort ``who``; 0 for an empty set or cohort."""
        if not snps:
            return 0.0
        key = (snps, who)
        hit = self._marg.get(key)
        if hit is not None:
            return hit
        keys = _pack_matrix(self._rows(who)[:, list(snps)])
        _, counts = np.unique(keys, return_counts=True)
        value = log_marginal(counts, len(snps), self.rho)
        if who == WHO_BOTH:
            self._distinct[snps] = int(counts.size)
        self._marg[key] = value
        return value

    def distinct_count(self, snps: tuple[int, ...]) -> int:
        """Number of distinct diplotypes observed across both cohorts.

        The count is recorded by the combined-cohort marginal, which is
        evaluated here when it is not memoized yet.
        """
        if snps not in self._distinct:
            self.marginal(snps, WHO_BOTH)
        return self._distinct.get(snps, 0)
