"""Helpers shared by several test modules: hand-built panels, flat priors
(with caps that never bind unless a test sets them) and a reference log
marginal that never touches the package's likelihood code.

Each module binds its own SNP spacing and prior values, for example
``make_dataset = partial(helpers.make_dataset, spacing=10)``.
"""

import math

import numpy as np

from beamscan.dataio import GenotypeDataset
from beamscan.model import PriorConfig


def make_dataset(cases, controls, spacing):
    """A panel from 2-D case and control genotype arrays; SNP ``i`` is named
    ``s{i}`` and sits at position ``spacing * i + 1``."""
    cases = np.asarray(cases, np.int8)
    controls = np.asarray(controls, np.int8)
    n = cases.shape[1]
    return GenotypeDataset(
        cases=cases,
        controls=controls,
        snp_ids=tuple(f"s{i}" for i in range(n)),
        positions=tuple(spacing * i + 1 for i in range(n)),
    )


def empty_dataset(n_snps, spacing):
    """A panel of ``n_snps`` SNPs and no individuals."""
    return make_dataset(np.zeros((0, n_snps)), np.zeros((0, n_snps)), spacing)


# a cap that no test panel reaches: no block holds this many distinct
# diplotypes and no group-2 set this many SNPs
NEVER_BINDS = 10**9


def flat_priors(p_boundary, p1, p2, max_distinct_diplotypes=NEVER_BINDS, max_order=NEVER_BINDS):
    return PriorConfig(
        p_boundary=p_boundary,
        p1=p1,
        p2=p2,
        max_distinct_diplotypes=max_distinct_diplotypes,
        max_order=max_order,
        rho=1.5,
    )


def ref_marginal(mat, rho=1.5):
    """Sequential-predictive log marginal over the rows of ``mat``."""
    mat = np.asarray(mat)
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        return 0.0
    width = mat.shape[1]
    cells = {}
    for row in map(tuple, mat.tolist()):
        cells[row] = cells.get(row, 0) + 1
    log_alpha = math.log(rho) - width * math.log(3.0)
    alpha = math.exp(log_alpha)
    total = 0.0
    for n in cells.values():
        total += log_alpha
        for t in range(1, n):
            total += math.log(alpha + t)
    for t in range(sum(cells.values())):
        total -= math.log(rho + t)
    return total
