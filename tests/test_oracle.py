"""Exhaustive-enumeration oracle against plain brute force and prior echoes."""

import math
from dataclasses import replace
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from scipy.special import logsumexp

import helpers
from beamscan.model import ConstraintError, JointModel, log_sum_exp, mask_from_labels
from beamscan.oracle import ORACLE_MAX_SNPS, OracleGuardError, enumerate_posterior, tilings


make_dataset = partial(helpers.make_dataset, spacing=5)
capped_panel = helpers.capped_panel
empty_dataset = partial(helpers.empty_dataset, spacing=5)
flat_priors = partial(helpers.flat_priors, p_boundary=0.3, p1=0.2, p2=0.1)


def all_partitions(n):
    for bits in range(1 << (n - 1)):
        starts = [0] + [i + 1 for i in range(n - 1) if (bits >> i) & 1]
        yield tuple(starts)


def brute_force(ds, priors):
    """Plain double loop over every partition and every label vector."""
    n = ds.n_snps
    model = JointModel(ds, priors)
    states = []
    for starts in all_partitions(n):
        for labels in product((0, 1, 2), repeat=n):
            lz = model.log_joint(starts, labels)
            if lz > -math.inf:
                states.append((lz, starts, labels))
    log_z = float(logsumexp([s[0] for s in states]))
    p1 = np.zeros(n)
    p2 = np.zeros(n)
    boundary = np.zeros(n)
    for lz, starts, labels in states:
        w = math.exp(lz - log_z)
        for i, lab in enumerate(labels):
            if lab == 1:
                p1[i] += w
            elif lab == 2:
                p2[i] += w
        for s in starts:
            boundary[s] += w
    return p1, p2, boundary, log_z


def test_empty_data_echoes_the_prior():
    priors = flat_priors()
    res = enumerate_posterior(empty_dataset(3), priors)
    np.testing.assert_allclose(res.marginal_posterior, priors.p1, atol=1e-12)
    np.testing.assert_allclose(res.epistatic_posterior, priors.p2, atol=1e-12)
    assert res.boundary_posterior[0] == pytest.approx(1.0)
    np.testing.assert_allclose(res.boundary_posterior[1:], priors.p_boundary, atol=1e-12)
    # prior mass sums to one apart from the constant factor for the always-on
    # first boundary, which the joint carries by convention
    assert res.log_normalizer == pytest.approx(math.log(priors.p_boundary), abs=1e-10)


def test_empty_data_with_order_cap_truncates_the_label_prior():
    priors = flat_priors(max_distinct_diplotypes=50, max_order=1)
    res = enumerate_posterior(empty_dataset(3), priors)
    # direct truncated-prior computation over label vectors with <= 1 twos
    p = (priors.p0, priors.p1, priors.p2)
    mass = np.zeros(1)
    m1 = np.zeros(3)
    m2 = np.zeros(3)
    for labels in product((0, 1, 2), repeat=3):
        if sum(1 for v in labels if v == 2) > 1:
            continue
        w = math.prod(p[v] for v in labels)
        mass += w
        for i, v in enumerate(labels):
            if v == 1:
                m1[i] += w
            elif v == 2:
                m2[i] += w
    np.testing.assert_allclose(res.marginal_posterior, m1 / mass, atol=1e-12)
    np.testing.assert_allclose(res.epistatic_posterior, m2 / mass, atol=1e-12)
    assert res.log_normalizer == pytest.approx(
        math.log(priors.p_boundary * mass[0]), abs=1e-10
    )


def test_single_snp_three_state_weights():
    ds = make_dataset([[2], [2]], [[0], [0]])
    priors = flat_priors()
    res = enumerate_posterior(ds, priors)
    # label 0: one pooled column with counts {2: 2, 0: 2}
    alpha = 0.5
    lm_both = math.log(alpha * (alpha + 1) * alpha * (alpha + 1) / (1.5 * 2.5 * 3.5 * 4.5))
    # labels 1 and 2: cases and controls modeled separately, identical value
    lm_split = 2 * math.log(alpha * (alpha + 1) / (1.5 * 2.5))
    w0 = priors.p0 * math.exp(lm_both)
    w1 = priors.p1 * math.exp(lm_split)
    w2 = priors.p2 * math.exp(lm_split)
    z = w0 + w1 + w2
    assert res.marginal_posterior[0] == pytest.approx(w1 / z, abs=1e-12)
    assert res.epistatic_posterior[0] == pytest.approx(w2 / z, abs=1e-12)
    assert res.log_normalizer == pytest.approx(
        math.log(priors.p_boundary * z), abs=1e-10
    )
    assert res.boundary_posterior[0] == 1.0


def test_factorized_sum_matches_brute_force():
    rng = np.random.default_rng(31)
    ds = make_dataset(rng.integers(0, 3, (15, 4)), rng.integers(0, 3, (12, 4)))
    priors = flat_priors()
    res = enumerate_posterior(ds, priors)
    p1, p2, boundary, log_z = brute_force(ds, priors)
    np.testing.assert_allclose(res.marginal_posterior, p1, atol=1e-10)
    np.testing.assert_allclose(res.epistatic_posterior, p2, atol=1e-10)
    np.testing.assert_allclose(res.boundary_posterior, boundary, atol=1e-10)
    assert res.log_normalizer == pytest.approx(log_z, abs=1e-10)


def test_factorized_sum_matches_brute_force_under_constraints():
    rng = np.random.default_rng(32)
    ds = make_dataset(rng.integers(0, 3, (20, 4)), rng.integers(0, 3, (20, 4)))
    priors = flat_priors(max_distinct_diplotypes=12, max_order=1)
    res = enumerate_posterior(ds, priors)
    p1, p2, boundary, log_z = brute_force(ds, priors)
    np.testing.assert_allclose(res.marginal_posterior, p1, atol=1e-10)
    np.testing.assert_allclose(res.epistatic_posterior, p2, atol=1e-10)
    np.testing.assert_allclose(res.boundary_posterior, boundary, atol=1e-10)
    assert res.log_normalizer == pytest.approx(log_z, abs=1e-10)


def test_states_enumerated_accounting():
    priors = flat_priors()
    res = enumerate_posterior(empty_dataset(4), priors)
    assert res.states_enumerated == 2**3 * 3**4
    capped = enumerate_posterior(empty_dataset(4), replace(priors, max_distinct_diplotypes=50, max_order=1))
    assert capped.states_enumerated == 2**3 * (2**4 + 4 * 2**3)


def test_zero_epistatic_prior_closes_group2():
    rng = np.random.default_rng(33)
    ds = make_dataset(rng.integers(0, 3, (10, 3)), rng.integers(0, 3, (10, 3)))
    priors = flat_priors(p_boundary=0.3, p1=0.2, p2=0.0)
    res = enumerate_posterior(ds, priors)
    assert not res.epistatic_posterior.any()
    assert (res.marginal_posterior > 0).all()


def test_size_guard():
    priors = flat_priors()
    with pytest.raises(OracleGuardError):
        enumerate_posterior(empty_dataset(ORACLE_MAX_SNPS + 1), priors)
    capped = replace(priors, max_distinct_diplotypes=50, max_order=1)
    res = enumerate_posterior(empty_dataset(ORACLE_MAX_SNPS), capped)
    assert res.boundary_posterior.shape == (ORACLE_MAX_SNPS,)


def test_every_partition_blocked_raises():
    ds = make_dataset([[0], [1], [2]], [[1], [2]])
    with pytest.raises(ConstraintError):
        enumerate_posterior(ds, flat_priors(max_distinct_diplotypes=2, max_order=1))


def test_posteriors_are_probabilities():
    rng = np.random.default_rng(34)
    ds = make_dataset(rng.integers(0, 3, (25, 5)), rng.integers(0, 3, (25, 5)))
    res = enumerate_posterior(ds, flat_priors())
    for arr in (res.marginal_posterior, res.epistatic_posterior, res.boundary_posterior):
        assert (arr >= 0).all() and (arr <= 1 + 1e-12).all()
    assert (res.marginal_posterior + res.epistatic_posterior <= 1 + 1e-12).all()
    assert res.boundary_posterior[0] == 1.0
    np.testing.assert_allclose(res.assoc_posterior,
                               res.marginal_posterior + res.epistatic_posterior)


# -- equivalence with the partition-by-partition enumeration ---------------------------


def reference_enumerate_posterior(dataset, priors, model_cls=JointModel):
    """Double loop over allowed partitions and group-2 sets, summed term by term."""
    n = dataset.n_snps
    model = model_cls(dataset, priors)
    max_order = min(model.max_order, n)
    log_p2 = model.log_label[2]
    log_label01 = model.log_label[:2]

    subsets = [()]
    if log_p2 > -math.inf:
        for k in range(1, max_order + 1):
            subsets.extend(combinations(range(n), k))
    g2term = {s: model.group2_term(s) + len(s) * (log_p2 if s else 0.0) for s in subsets}
    weight_cache = {}

    def block_weights(a, b, t_local):
        key = (a, b, t_local)
        if key in weight_cache:
            return weight_cache[key]
        w = b - a
        free = [j for j in range(w) if j not in t_local]
        terms, bits = [], []
        for sigma in product((0, 1), repeat=len(free)):
            labels = [2] * w
            prior = 0.0
            for j, lab in zip(free, sigma):
                labels[j] = lab
                prior += log_label01[lab]
            terms.append(model.block_term(a, b, mask_from_labels(labels, 0, w)) + prior)
            bits.append(sigma)
        terms_arr = np.asarray(terms)
        log_w = float(logsumexp(terms_arr))
        log_w1 = np.full(w, -math.inf)
        for pos, j in enumerate(free):
            sel = np.asarray([sigma[pos] == 1 for sigma in bits])
            if sel.any():
                log_w1[j] = float(logsumexp(terms_arr[sel]))
        weight_cache[key] = (log_w, log_w1)
        return weight_cache[key]

    partitions = []
    for starts in all_partitions(n):
        blocks = list(zip(starts, starts[1:] + (n,)))
        if all(model.block_allowed(a, b) for a, b in blocks):
            partitions.append((starts, blocks))
    if not partitions:
        raise ConstraintError("every partition violates the diplotype cap")

    def split_by_blocks(s, blocks):
        return [tuple(i - a for i in s if a <= i < b) for a, b in blocks]

    entries = []
    for starts, blocks in partitions:
        for s in subsets:
            lz = model.log_partition_prior(len(starts)) + g2term[s]
            for (a, b), t_local in zip(blocks, split_by_blocks(s, blocks)):
                lz += block_weights(a, b, t_local)[0]
            if lz > -math.inf:
                entries.append((lz, starts, blocks, s))
    top = max(e[0] for e in entries)
    z_rel = 0.0
    p1, p2, boundary = np.zeros(n), np.zeros(n), np.zeros(n)
    for lz, starts, blocks, s in entries:
        wt = math.exp(lz - top)
        z_rel += wt
        for snp in s:
            p2[snp] += wt
        for (a, b), t_local in zip(blocks, split_by_blocks(s, blocks)):
            log_w, log_w1 = block_weights(a, b, t_local)
            for j in range(b - a):
                if log_w1[j] > -math.inf:
                    p1[a + j] += wt * math.exp(log_w1[j] - log_w)
        for snp in starts:
            boundary[snp] += wt
    return p1 / z_rel, p2 / z_rel, boundary / z_rel, top + math.log(z_rel)


def assert_matches_reference(ds, priors):
    res = enumerate_posterior(ds, priors)
    p1, p2, boundary, log_z = reference_enumerate_posterior(ds, priors)
    np.testing.assert_allclose(res.marginal_posterior, p1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.epistatic_posterior, p2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.boundary_posterior, boundary, rtol=0, atol=1e-12)
    assert abs(res.log_normalizer - log_z) <= 1e-12
    n = ds.n_snps
    assert res.states_enumerated == 2 ** (n - 1) * sum(
        math.comb(n, k) * 2 ** (n - k) for k in range(min(priors.max_order, n) + 1)
    )
    return res


def test_capped_panel_forbids_some_blocks_but_not_every_partition():
    ds = capped_panel()
    model = JointModel(ds, flat_priors(max_distinct_diplotypes=29, max_order=3))
    assert not model.block_allowed(0, 8)
    assert all(model.block_allowed(i, i + 2) for i in range(7))


@pytest.mark.parametrize(
    "priors, max_order",
    [
        (flat_priors(), 3),
        (flat_priors(p_boundary=0.3, p1=0.0, p2=0.1), 3),
        (flat_priors(p_boundary=0.3, p1=0.2, p2=0.0), 3),
        (flat_priors(), 1),
        (flat_priors(), 2),
    ],
    ids=["default", "p1-zero", "p2-zero", "order-1", "order-2"],
)
def test_forward_backward_matches_reference_on_a_capped_panel(priors, max_order):
    capped = replace(priors, max_distinct_diplotypes=29, max_order=max_order)
    assert_matches_reference(capped_panel(), capped)


def test_forward_backward_matches_reference_without_constraints():
    rng = np.random.default_rng(42)
    ds = make_dataset(rng.integers(0, 3, (40, 5)), rng.integers(0, 3, (40, 5)))
    assert_matches_reference(ds, flat_priors(p_boundary=0.45))


def test_forward_backward_matches_reference_on_zero_individuals():
    for priors in (flat_priors(), flat_priors(max_distinct_diplotypes=1, max_order=2)):
        assert_matches_reference(empty_dataset(6), priors)


def test_forward_backward_evaluates_the_reference_block_terms(monkeypatch):
    """Same (block, labels) terms, bit for bit, and the same cap checks as the
    double loop, with nothing memoized per labelling."""
    import beamscan.oracle as oracle_module

    built = []

    class RecordingModel(JointModel):
        """Records each ``block_terms`` value by (start, end, label mask)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.evaluated = {}
            built.append(self)

        def block_terms(self, a, b, labelled, group2):
            values = super().block_terms(a, b, labelled, group2)
            (x, x_rows), (x2, x2_rows) = labelled, group2
            for i, j, value in zip(x_rows.tolist(), x2_rows.tolist(), values.tolist()):
                labels = [0] * (b - a)
                for k in x[i] + x2[j]:
                    labels[k] += 1
                mask = mask_from_labels(labels, 0, b - a)
                assert (a, b, mask) not in self.evaluated
                self.evaluated[a, b, mask] = value
            return values

    ds = capped_panel()
    priors = flat_priors(max_distinct_diplotypes=29, max_order=3)
    monkeypatch.setattr(oracle_module, "JointModel", RecordingModel)
    result = oracle_module.enumerate_posterior(ds, priors)
    reference_enumerate_posterior(ds, priors, model_cls=RecordingModel)
    new, ref = built
    assert new.evaluated == ref._block_terms
    assert new._block_terms == {}
    assert result.cache["block_terms"] == len(new.evaluated)
    # The reference checks the cap of every block; the oracle's scan stops
    # each start at its first block over the cap, so the combined-cohort
    # marginals of the blocks past that one are all it leaves out.
    n = ds.n_snps
    skipped = {
        (tuple(range(a, b)), "both")
        for a in range(n) for b in range(a + 2, n + 1) if not ref.block_allowed(a, b - 1)
    }
    assert skipped and skipped <= ref.engine._marg.keys()
    assert new.engine._marg == {k: v for k, v in ref.engine._marg.items() if k not in skipped}


def brute_tilings(blocks, i):
    """Log sums, per weight entry, over every sequence of blocks tiling [0, i)."""
    paths = [(0, 0.0)]
    sums = []
    while paths:
        at, total = paths.pop()
        if at == i:
            sums.append(total)
        paths.extend((b, total + w) for a, b, w in blocks if a == at and b <= i)
    return logsumexp(np.array(sums), axis=0) if sums else np.full(2, -math.inf)


def test_tilings_give_minus_infinity_where_no_block_ends():
    rng = np.random.default_rng(44)
    spans = [(0, 1), (0, 2), (1, 2), (2, 4), (1, 4), (3, 4), (4, 5), (4, 7), (2, 7), (5, 7)]
    blocks = [(a, b, rng.normal(size=2)) for a, b in spans]
    mirrored = [(7 - b, 7 - a, w) for a, b, w in blocks]
    for tiles, gaps in ((blocks, {3, 6}), (mirrored, {1})):
        f = tilings(tiles)
        assert f.shape == (8, 2) and f[0].tolist() == [0.0, 0.0]
        for i in range(1, 8):
            rows = [f[a] + w for a, b, w in tiles if b == i]
            if i in gaps:
                assert not rows and (f[i] == -math.inf).all()
                continue
            # the blocks ending at i are summed in list order, bit for bit
            assert f[i].tolist() == log_sum_exp(np.stack(rows)).tolist()
            np.testing.assert_allclose(f[i], brute_tilings(tiles, i), rtol=0, atol=1e-12)


def test_factorized_sum_matches_brute_force_when_the_cap_removes_partitions():
    rng = np.random.default_rng(43)
    ds = make_dataset(rng.integers(0, 3, (20, 5)), rng.integers(0, 3, (20, 5)))
    priors = flat_priors(max_distinct_diplotypes=9, max_order=2)
    model = JointModel(ds, priors)
    allowed = [
        starts for starts in all_partitions(5)
        if all(model.block_allowed(a, b) for a, b in zip(starts, starts[1:] + (5,)))
    ]
    assert 0 < len(allowed) < 2**4
    res = enumerate_posterior(ds, priors)
    p1, p2, boundary, log_z = brute_force(ds, priors)
    np.testing.assert_allclose(res.marginal_posterior, p1, atol=1e-10)
    np.testing.assert_allclose(res.epistatic_posterior, p2, atol=1e-10)
    np.testing.assert_allclose(res.boundary_posterior, boundary, atol=1e-10)
    assert res.log_normalizer == pytest.approx(log_z, abs=1e-10)
    assert res.boundary_posterior[0] == 1.0


def test_every_partition_blocked_names_the_cap():
    ds = make_dataset([[0, 1], [1, 1], [2, 1]], [[1, 1], [2, 1]])
    with pytest.raises(ConstraintError, match="every partition violates the diplotype cap"):
        enumerate_posterior(ds, flat_priors(max_distinct_diplotypes=2, max_order=1))
