"""Dirichlet-multinomial marginal likelihoods over SNP-set diplotypes.

A width-w SNP set has 3^w possible diplotypes (genotype code sequences).
Counts are modelled by a multinomial with a symmetric Dirichlet prior whose
per-cell pseudocount is alpha_h = rho / 3^w, so the total pseudocount mass is
rho regardless of width. All evaluation is in log space; alpha_h underflows
double precision past w ~ 650, so per-cell terms use the exact identity

    lnG(n + a) - lnG(a) = ln(a) + lnG(n + a) - lnG(1 + a)      (n >= 1)

with ln(a) formed as ln(rho) - w * ln(3).

The engine and ``bstat`` read ``GenotypeDataset.codes``, the panel's one
SNP-major matrix (one row of codes per SNP, cases first), so a SNP set's codes
are a few contiguous rows. ``_pack_matrix`` packs each individual's codes over
the set into one key per individual, ordered as the code sequences are with
the set's last SNP most significant: up to ``FLOAT_KEY_WIDTH`` SNPs the key is
the ternary number sum_j code_j 3^j, formed as a matrix-vector product over
the int8 rows themselves, whose every partial sum is an integer below 3^w and
so exact. Up to ``FLOAT32_KEY_WIDTH`` SNPs that product is float32 (3^15 <
2^24), which takes about half the time of a float64 one; from 16 to 33 SNPs
it is float64 (3^33 < 2^53); wider sets get dense ranks from ``np.lexsort``
over float64 keys of at most 33 SNPs each (``np.unique`` over the rows,
which gives the same ranks, took 40 to 70 times as long on 2,000
individuals). No copy of the panel is made. ``_key_counts`` counts
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

Every client that reads one singleton of a cohort kind reads them all: the
diplotype-cap check reads each SNP's combined-cohort count, and a label sweep
or the exact enumerator each SNP's case/control pair. Counted per command,
``map`` (400 SNPs x 1,000 people) reads 400 of 400 singletons of each
cohort, ``partition`` (400 x 4,000) 400 of 400 combined and none of the pair,
and ``oracle`` (10 SNPs) 10 of 10 of each. So the engine's first cold width-1
request of a kind, the combined cohort or the case/control pair, evaluates
every SNP's singletons of that kind in one array pass
(``_batch_singletons``), counting each SNP's codes per cohort with
``dataio.genotype_counts`` and evaluating the count matrix by
``log_marginal``'s row form, bit-equal to one-at-a-time evaluation. The
values go straight into the memo, the combined cohort's distinct counts with
them, and later width-1 requests of that kind are memo hits.

Counts are integers, so every lnG the marginal needs is lnG(k + a) for an
integer k and one of a few offsets a: alpha_h of each width, and rho itself
(lnG(total + rho) and lnG(rho)). ``_lngamma`` keeps one table per offset,
grown to the largest k asked for. Its entries come from a port of Cephes
``lgam`` (Moshier 1989), the routine behind ``scipy.special.gammaln``, and
equal it bit for bit, so scipy is not imported here.

``rho_is_valid`` is the one rule on rho: it must be positive, at most
``RHO_MAX`` = 1e8 and have a finite lnG(rho). That refuses 0, nan, inf, rho
below about 5.6e-309, where the terms would be inf - inf, and rho above 1e8,
where lnG(n + rho) - lnG(rho) cancels so many digits that marginals drift
and, near lnG's own limit, posteriors exceed 1. The command line,
``PriorConfig`` and every marginal apply it.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np

from .dataio import GenotypeDataset, genotype_counts

LOG3 = math.log(3.0)

WHO_BOTH = "both"
WHO_CASES = "cases"
WHO_CONTROLS = "controls"

FLOAT_KEY_WIDTH = 33  # widest set whose ternary key is exact in float64
FLOAT32_KEY_WIDTH = 15  # widest set whose ternary key is exact in float32
_TERNARY = 3.0 ** np.arange(FLOAT_KEY_WIDTH)
_TERNARY32 = _TERNARY[:FLOAT32_KEY_WIDTH].astype(np.float32)


def _pack_matrix(codes: np.ndarray) -> np.ndarray:
    """Key each column of a SNP-major (w, n) code matrix.

    Up to ``FLOAT_KEY_WIDTH`` SNPs the key of individual i is
    sum_j codes[j, i] * 3^j: float32 up to ``FLOAT32_KEY_WIDTH`` SNPs, exact
    because 3^15 < 2^24, and float64 beyond, exact because 3^33 < 2^53.
    Wider columns get the int dense rank of their code sequence, last SNP
    most significant, from a lexsort over the float64 keys of successive
    ``FLOAT_KEY_WIDTH``-SNP chunks, the last chunk the primary key. Either
    way keys sort as the code sequences do.
    """
    w, n = codes.shape
    if w <= FLOAT32_KEY_WIDTH:
        return np.dot(_TERNARY32[:w], codes)
    if w <= FLOAT_KEY_WIDTH:
        return np.dot(_TERNARY[:w], codes)
    chunks = np.stack([
        np.dot(_TERNARY[: min(FLOAT_KEY_WIDTH, w - lo)], codes[lo : lo + FLOAT_KEY_WIDTH])
        for lo in range(0, w, FLOAT_KEY_WIDTH)
    ])
    order = np.lexsort(chunks)
    ordered = chunks[:, order]
    starts = np.ones(n, dtype=np.intp)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = np.cumsum(starts) - 1
    return ranks


# Cephes lgam's coefficients: Stirling's series (A) and the rational function on [2, 3) (B, C)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LN_SQRT_2PI = 0.91893853320467274178
_LGAM_MAX = 2.556348e305  # lgam is inf above this
_LIBM_LOG = np.frompyfunc(math.log, 1, 1)  # the C library's log per element, as an object array


def _lgam_below_13(x: float) -> float:
    """Cephes lgam for 0 <= x < 13: recur into [2, 3), then a rational function."""
    z = 1.0
    p = 0.0
    u = x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        if u == 0.0:
            return math.inf
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    num = _LGAM_B[0]
    for b in _LGAM_B[1:]:
        num = num * x + b
    den = x + _LGAM_C[0]
    for c in _LGAM_C[1:]:
        den = den * x + c
    return math.log(z) + x * num / den


def _lgam_ascending(x: np.ndarray) -> np.ndarray:
    """Cephes lgam of an ascending float64 array of non-negative values.

    From 13 on, Stirling's series runs over the array one IEEE operation at a
    time, in the C's order. Logarithms come from ``math.log``, the C library's,
    because ``np.log``'s vectorised log rounds a few inputs differently.
    """
    out = np.empty_like(x)
    i13, i1000 = np.searchsorted(x, (13.0, 1000.0))
    i1e8, imax = np.searchsorted(x, (1e8, _LGAM_MAX), side="right")
    out[:i13] = [_lgam_below_13(v) for v in x[:i13].tolist()]
    big = x[i13:imax]
    q = (big - 0.5) * _LIBM_LOG(big).astype(np.float64) - big + _LN_SQRT_2PI
    mid = big[: i1000 - i13]  # 13 <= x < 1000
    p = 1.0 / (mid * mid)
    poly = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        poly = poly * p + a
    q[: mid.size] += poly / mid
    far = big[mid.size : i1e8 - i13]  # 1000 <= x <= 1e8; above, Stirling's leading terms alone
    p = 1.0 / (far * far)
    q[mid.size : i1e8 - i13] += (
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333
    ) / far
    out[i13:imax] = q
    out[imax:] = math.inf
    return out


# offset a -> [lnG(a), lnG(1 + a), ...]; shared by every engine and caller in the
# process, which is safe because an entry depends only on its k and a
_LNGAMMA: dict[float, np.ndarray] = {}


def _lngamma(a: float, k):
    """lnG(k + a), bit-equal to ``scipy.special.gammaln(k + a)``, for a
    non-negative integer or integer array ``k``.

    Values are read from a table of a's; when ``k`` runs past its end the
    table grows to the largest k. An entry depends only on k and a, never on
    the order of the requests.
    """
    try:
        return _LNGAMMA[a][k]
    except (KeyError, IndexError):
        pass
    table = _LNGAMMA.get(a, np.empty(0))
    grown = np.arange(table.size, int(np.max(k, initial=0)) + 1, dtype=np.float64) + a
    _LNGAMMA[a] = np.concatenate((table, _lgam_ascending(grown)))
    return _LNGAMMA[a][k]


RHO_DEFAULT = 1.5
RHO_MAX = 1e8
RHO_RULE = "must be finite and positive, with a finite lnGamma(rho), and at most 1e8"


def rho_is_valid(rho: float) -> bool:
    """True when 0 < rho <= ``RHO_MAX`` and lnG(rho) is finite: the one
    condition on rho.

    lnG is infinite below about 5.6e-309, where 1/rho overflows; there the
    model's terms would be inf - inf. Every marginal subtracts lnG(rho) from
    lnG(n + rho), two values near rho ln(rho), so a large rho cancels their
    digits: for counts (100, 80, 20) of one SNP the error is about 1e-7 at
    rho = 1e8, 1e-5 at 1e10, 0.2 at 1e14 and 90 at 1e16, and near lnG's own
    limit (2.556348e305) posteriors come out above 1. False for nan.
    """
    return 0 < rho <= RHO_MAX and math.isfinite(float(_lgam_ascending(np.array([rho], dtype=np.float64))[0]))


def checked_rho(rho: float) -> float:
    """``rho`` as a float, or ValueError unless ``rho_is_valid``."""
    if not rho_is_valid(rho):
        raise ValueError(f"rho {RHO_RULE}, got {rho!r}")
    return float(rho)


@lru_cache(maxsize=1024)
def _marginal_constants(width: int, rho: float) -> tuple[float, float, float]:
    """alpha, the per-present-cell constant ln(alpha) - lnG(1 + alpha), and lnG(rho)."""
    rho = checked_rho(rho)
    log_alpha = math.log(rho) - width * LOG3
    alpha = math.exp(log_alpha)  # may underflow to 0.0 for huge widths; harmless
    return alpha, log_alpha - float(_lngamma(alpha, 1)), float(_lngamma(rho, 0))


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
    per_cell = counts.size * per_present + float(np.add.reduce(_lngamma(alpha, counts)))
    return per_cell + log_g_rho - log_g_total


def _log_marginal_rows(counts: np.ndarray, width: int, rho: float, log_g_total=None):
    """``log_marginal`` of each row of an intp count array; ``log_g_total``,
    lnG(total + rho) for every row alike, saves looking up each row's own."""
    alpha, per_present, log_g_rho = _marginal_constants(width, rho)
    if log_g_total is None:
        # an empty sample gives lnG(rho) - lnG(0 + rho), exactly 0
        log_g_total = _lngamma(rho, np.add.reduce(counts, axis=-1))
    terms = _lngamma(alpha, counts)
    present = counts.shape[-1]
    if np.count_nonzero(counts) < counts.size:
        absent = counts == 0
        terms[absent] = 0.0
        present = present - np.add.reduce(absent, axis=-1)
    per_cell = present * per_present + np.add.reduce(terms, axis=-1)
    return per_cell + log_g_rho - log_g_total


def log_marginal(counts: np.ndarray, width: int, rho: float) -> float | np.ndarray:
    """Log marginal of multinomial samples under the width-scaled prior.

    ``counts`` holds per-diplotype totals along its last axis, one sample per
    row; zero cells are absent diplotypes and contribute nothing. Counts must
    be non-negative integers, of any dtype. Returns a float for a 1-D input
    and an array of the leading shape otherwise.
    """
    given = np.asarray(counts)
    counts = given.astype(np.intp)
    if counts.size and (counts.min() < 0 or not np.array_equal(counts, given)):
        raise ValueError("counts must be non-negative integers")
    value = _log_marginal_rows(counts, width, rho)
    return float(value) if counts.ndim == 1 else value


class LikelihoodEngine:
    """Memoized marginal evaluator bound to one dataset and one rho.

    Keys are (sorted SNP index tuple, cohort selector); values are the log
    marginals. The sampler and the exact enumerator share one instance so
    identical subsets are never recounted.
    """

    def __init__(self, dataset: GenotypeDataset, rho: float = RHO_DEFAULT):
        self.rho = checked_rho(rho)  # before any table is built for it
        self.n_cases = dataset.n_cases
        self.n_controls = dataset.n_controls
        self._codes = dataset.codes  # the dataset's SNP-major panel, not a copy
        # the cohorts a cold request evaluates, each with its columns and
        # lnG(size + rho): the model always asks for a set's case and control
        # marginals together
        sizes = sorted({self.n_cases, self.n_controls, self.n_cases + self.n_controls})
        log_g = dict(zip(sizes, _lgam_ascending(np.array(sizes, dtype=np.float64) + self.rho).tolist()))
        both = (WHO_BOTH, slice(None), log_g[self.n_cases + self.n_controls])
        cases = (WHO_CASES, slice(None, self.n_cases), log_g[self.n_cases])
        controls = (WHO_CONTROLS, slice(self.n_cases, None), log_g[self.n_controls])
        pair = (cases, controls)
        self._cohorts = {WHO_BOTH: (both,), WHO_CASES: pair, WHO_CONTROLS: pair}
        self._marg: dict[tuple[tuple[int, ...], str], float] = {}
        self._distinct: dict[tuple[int, ...], int] = {}
        self.cold_s = 0.0  # seconds spent evaluating marginals that were not memoized

    def _batch_singletons(self, cohorts) -> None:
        """Evaluate and memoize every SNP's singleton marginal in ``cohorts``,
        in one array pass, with the combined cohort's distinct counts.

        The values come from ``_log_marginal_rows``, the row form behind
        ``log_marginal``, and equal ``_log_marginal_present``'s bit for bit:
        the same lnG table entries, absent cells adding exact zeros in
        ``np.add.reduce``'s order, and the same operations after the sum.
        """
        started = time.perf_counter()
        for cohort, columns, log_g_total in cohorts:
            counts = genotype_counts(self._codes[:, columns])
            values = _log_marginal_rows(counts, 1, self.rho, log_g_total)
            present = np.count_nonzero(counts, axis=1)
            for snp, (value, distinct) in enumerate(zip(values.tolist(), present.tolist())):
                self._marg[(snp,), cohort] = value
                if cohort == WHO_BOTH:
                    self._distinct[(snp,)] = distinct
        self.cold_s += time.perf_counter() - started

    def marginal(self, snps: tuple[int, ...], who: str) -> float:
        """Log marginal of ``snps``, a sorted tuple of SNP indices, in cohort
        ``who``; 0 for an empty set or cohort.

        A cold case or control request evaluates and memoizes both cohorts
        from one pack of the set's rows. The first cold single-SNP request of
        a kind memoizes every SNP's singletons of that kind in one pass; a
        singleton that the pass did not memoize is packed on its own.
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
        if len(snps) == 1:  # the first singleton of its kind: every SNP's, in one pass
            self._batch_singletons(cohorts)
            hit = self._marg.get(key)
            if hit is not None:
                return hit
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
