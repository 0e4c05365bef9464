"""Dirichlet-multinomial marginal likelihoods over SNP-set diplotypes.

A width-w SNP set has 3^w possible diplotypes (genotype code sequences).
Counts are modelled by a multinomial with a symmetric Dirichlet prior whose
per-cell pseudocount is alpha_h = rho / 3^w, so the total pseudocount mass is
rho regardless of width. All evaluation is in log space; alpha_h underflows
double precision past w ~ 650, so per-cell terms use the exact identity

    lnG(n + a) - lnG(a) = ln(a) + lnG(n + a) - lnG(1 + a)      (n >= 1)

with ln(a) formed as ln(rho) - w * ln(3).

Genotypes are held SNP-major, one row of codes per SNP, so a SNP set's codes
are a few contiguous rows. ``_pack_matrix`` packs each individual's codes over
the set into one key per individual, ordered as the code sequences are with
the set's last SNP most significant: up to ``FLOAT_KEY_WIDTH`` SNPs the key is
the ternary number sum_j code_j 3^j, formed as a float64 matrix-vector
product whose every partial sum is an integer below 2^53 and so exact; wider
sets get dense ranks from ``np.unique`` over the rows. ``_key_counts`` counts
one cohort's keys in one of two ways. Where the table of all 3^w possible
keys is no larger than the cohort, it takes the nonzero cells of
``np.bincount``, which costs O(n + 3^w); elsewhere it sorts the keys and
measures runs, which costs O(n log n). Both list the counts in ascending key
order, so they return the same array. ``log_marginal`` turns per-diplotype
counts into the log marginal, one sample per row of a count matrix (zero
cells are absent diplotypes).

``LikelihoodEngine`` memoizes the log marginal per (SNP set, cohort) along
with the number of distinct diplotypes that the block-diversity constraint
reads. The model always asks for a set's case and control marginals
together, so a cold request for either packs the set once over all
individuals, counts the case and control slices of those keys, and memoizes
both values. The engine, ``bstat`` and the tests all count through
``_pack_matrix``; since both key forms sort like the code sequences, counts
come out in the same cell order at every width.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .dataio import GenotypeDataset

LOG3 = math.log(3.0)

WHO_BOTH = "both"
WHO_CASES = "cases"
WHO_CONTROLS = "controls"

FLOAT_KEY_WIDTH = 33  # widest set whose ternary key is exact in float64
_TERNARY = 3.0 ** np.arange(FLOAT_KEY_WIDTH)


def _pack_matrix(codes: np.ndarray) -> np.ndarray:
    """Key each column of a SNP-major (w, n) code matrix.

    Up to ``FLOAT_KEY_WIDTH`` SNPs the key of individual i is the float64
    sum_j codes[j, i] * 3^j, which is exact because 3^33 < 2^53; wider
    columns get the int dense rank of their code sequence, last SNP most
    significant. Either way keys sort as the code sequences do.
    """
    w, n = codes.shape
    if w <= FLOAT_KEY_WIDTH:
        return np.dot(_TERNARY[:w], codes)
    _, ranks = np.unique(codes[::-1].T, axis=0, return_inverse=True)
    return ranks.reshape(n)


@lru_cache(maxsize=1024)
def _marginal_constants(width: int, rho: float) -> tuple[float, float, float]:
    """alpha, the per-present-cell constant ln(alpha) - lnG(1 + alpha), and lnG(rho)."""
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho!r}")
    log_alpha = math.log(rho) - width * LOG3
    alpha = math.exp(log_alpha)  # may underflow to 0.0 for huge widths; harmless
    return alpha, log_alpha - float(gammaln(1.0 + alpha)), float(gammaln(rho))


def _table_counts(keys: np.ndarray) -> np.ndarray:
    """Counts of integer-valued keys, in key order: the nonzero cells of their bincount."""
    table = np.bincount(keys.astype(np.intp))
    return table[table.nonzero()[0]]


def _run_counts(keys: np.ndarray) -> np.ndarray:
    """Counts of keys, in key order: the run lengths of the sorted keys."""
    keys = np.sort(keys)
    edges = np.empty(keys.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    runs = edges.nonzero()[0]
    return runs[1:] - runs[:-1]


def _key_counts(keys: np.ndarray, width: int) -> np.ndarray:
    """Per-diplotype counts of one cohort's keys of a width-``width`` set, in key order."""
    if 3**width <= keys.size:  # a table of every possible key is no larger than the cohort
        return _table_counts(keys)
    return _run_counts(keys)


def _log_marginal_present(counts: np.ndarray, width: int, rho: float, log_g_total: float) -> float:
    """``log_marginal`` of one sample whose ``counts`` has no zero cell, given
    ``log_g_total`` = lnG(total + rho); the same expression in the same order."""
    alpha, per_present, log_g_rho = _marginal_constants(width, rho)
    per_cell = counts.size * per_present + float(np.add.reduce(gammaln(counts + alpha)))
    return per_cell + log_g_rho - log_g_total


def log_marginal(counts: np.ndarray, width: int, rho: float) -> float | np.ndarray:
    """Log marginal of multinomial samples under the width-scaled prior.

    ``counts`` holds per-diplotype totals along its last axis, one sample per
    row; zero cells are absent diplotypes and contribute nothing. Returns a
    float for a 1-D input and an array of the leading shape otherwise.
    """
    counts = np.asarray(counts, dtype=np.float64)
    alpha, per_present, log_g_rho = _marginal_constants(width, rho)
    terms = gammaln(counts + alpha)
    present = counts.shape[-1]
    if np.count_nonzero(counts) < counts.size:
        absent = counts == 0
        terms[absent] = 0.0
        present = present - np.add.reduce(absent, axis=-1)
    per_cell = present * per_present + np.add.reduce(terms, axis=-1)
    # an empty sample gives lnG(rho) - lnG(0 + rho), exactly 0
    value = per_cell + log_g_rho - gammaln(np.add.reduce(counts, axis=-1) + rho)
    return float(value) if counts.ndim == 1 else value


class LikelihoodEngine:
    """Memoized marginal evaluator bound to one dataset and one rho.

    Keys are (sorted SNP index tuple, cohort selector); values are the log
    marginals. The sampler and the exact enumerator share one instance so
    identical subsets are never recounted.
    """

    def __init__(self, dataset: GenotypeDataset, rho: float = 1.5):
        self.rho = float(rho)
        self.n_cases = dataset.n_cases
        self.n_controls = dataset.n_controls
        # One SNP-major matrix: row j holds SNP j's codes, cases before controls.
        self._codes = np.ascontiguousarray(
            np.hstack([dataset.cases.T, dataset.controls.T]), dtype=np.int8
        )
        # the cohorts a cold request evaluates, each with its columns and
        # lnG(size + rho): the model always asks for a set's case and control
        # marginals together
        def log_g(size: int) -> float:
            return float(gammaln(size + self.rho))

        both = (WHO_BOTH, slice(None), log_g(self.n_cases + self.n_controls))
        cases = (WHO_CASES, slice(None, self.n_cases), log_g(self.n_cases))
        controls = (WHO_CONTROLS, slice(self.n_cases, None), log_g(self.n_controls))
        pair = (cases, controls)
        self._cohorts = {WHO_BOTH: (both,), WHO_CASES: pair, WHO_CONTROLS: pair}
        self._marg: dict[tuple[tuple[int, ...], str], float] = {}
        self._distinct: dict[tuple[int, ...], int] = {}
        self.cold_s = 0.0  # seconds spent evaluating marginals that were not memoized

    def marginal(self, snps: tuple[int, ...], who: str) -> float:
        """Log marginal of ``snps``, a sorted tuple of SNP indices, in cohort
        ``who``; 0 for an empty set or cohort.

        A cold case or control request evaluates and memoizes both cohorts
        from one pack of the set's rows.
        """
        if not snps:
            return 0.0
        key = (snps, who)
        hit = self._marg.get(key)
        if hit is not None:
            return hit
        cohorts = self._cohorts.get(who)
        if cohorts is None:
            raise ValueError(f"unknown cohort selector: {who!r}")
        started = time.perf_counter()
        width = len(snps)
        first = snps[0]
        if snps[-1] - first + 1 == width:  # a run of SNPs: a view of the panel
            keys = _pack_matrix(self._codes[first : first + width])
        else:
            keys = _pack_matrix(self._codes.take(snps, axis=0))
        for cohort, columns, log_g_total in cohorts:
            counts = _key_counts(keys[columns], width)
            self._marg[(snps, cohort)] = _log_marginal_present(counts, width, self.rho, log_g_total)
            if cohort == WHO_BOTH:
                self._distinct[snps] = int(counts.size)
        self.cold_s += time.perf_counter() - started
        return self._marg[key]

    def distinct_count(self, snps: tuple[int, ...]) -> int:
        """Number of distinct diplotypes observed across both cohorts.

        The count is recorded by the combined-cohort marginal, which is
        evaluated here when it is not memoized yet.
        """
        if snps not in self._distinct:
            self.marginal(snps, WHO_BOTH)
        return self._distinct.get(snps, 0)
