"""Helpers shared by several test modules: hand-built panels, flat priors
(with caps that never bind unless a test sets them), a reference log
marginal that never touches the package's likelihood code, and an exact
transition enumerator for the sampler's kernels (``kernel_transitions``).

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


def capped_panel(seed=41, n_snps=8, n_per_arm=150):
    """Random genotypes: blocks of four or more SNPs exceed a cap of 29."""
    rng = np.random.default_rng(seed)
    return make_dataset(rng.integers(0, 3, (n_per_arm, n_snps)),
                        rng.integers(0, 3, (n_per_arm, n_snps)), spacing=5)


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


# -- exact kernel transitions -------------------------------------------------------


class _Uniform(float):
    """A uniform draw that accepts (choice 0) or rejects (choice 1) whatever
    threshold it is compared with, and records that branch's probability."""

    def __new__(cls, draw):
        self = super().__new__(cls, 0.5)
        self.draw = draw
        return self

    def __lt__(self, threshold):
        p_accept = min(1.0, float(threshold))
        self.draw[2] = p_accept if self.draw[1] == 0 else 1.0 - p_accept
        return self.draw[1] == 0


class ScriptedRng:
    """Replays one branch of a kernel's random draws and records each one.

    ``integers(m)`` returns the scripted choice among m equally likely values;
    ``random()`` returns a :class:`_Uniform`. Draws past the end of the script
    take choice 0. Each record is ``[n_choices, choice, probability]``; a
    uniform that is never compared leaves the outcome unchanged, so its
    choice 0 carries probability 1 and choice 1 probability 0.
    """

    def __init__(self, script):
        self.script = script
        self.draws = []

    def _next(self, n_choices, p):
        pos = len(self.draws)
        choice = self.script[pos] if pos < len(self.script) else 0
        self.draws.append([n_choices, choice, p])
        return choice

    def integers(self, m):
        return self._next(int(m), 1.0 / int(m))

    def random(self):
        choice = self._next(2, 1.0)
        if choice == 1:
            self.draws[-1][2] = 0.0
        return _Uniform(self.draws[-1])


def kernel_transitions(state, run, starts, labels):
    """Every outcome of ``run(state)`` from the chain state (starts, labels),
    keyed by its own ``(starts, labels)`` tuples, with its probability."""
    out = {}
    stack = [[]]
    while stack:
        script = stack.pop()
        state.assign(starts, labels)
        state.rng = ScriptedRng(script)
        run(state)
        draws = state.rng.draws
        p = math.prod(d[2] for d in draws)
        if p > 0.0:
            key = (tuple(state.bounds[:-1]), tuple(state.labels))
            out[key] = out.get(key, 0.0) + p
        for pos in range(len(script), len(draws)):
            if draws[pos][2] == 1.0:  # the other choices have probability 0
                continue
            prefix = [d[1] for d in draws[:pos]]
            stack.extend(prefix + [alt] for alt in range(1, draws[pos][0]))
    return out
