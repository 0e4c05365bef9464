"""Joint model: priors, block terms, log joint.

Reference values come from a sequential-predictive evaluator in the test
helpers that never touches the package's likelihood code, so joint-probability
checks are independent of the implementation under test.
"""

import math
from dataclasses import replace
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from scipy.special import logsumexp

import helpers
from helpers import NEVER_BINDS, ref_marginal
from beamscan.dataio import GenotypeDataset
from beamscan.model import (
    ConstraintError,
    JointModel,
    PriorConfig,
    default_priors,
    mask_from_labels,
)

RHO = 1.5
flat_priors = partial(helpers.flat_priors, p_boundary=0.2, p1=0.15, p2=0.1)


def ref_block_term(cases, controls, a, b, labels):
    x = [i for i in range(a, b) if labels[i] in (1, 2)]
    x2 = [i for i in range(a, b) if labels[i] == 2]
    both = np.vstack([cases, controls])
    whole = list(range(a, b))
    return (
        ref_marginal(cases[:, x])
        + ref_marginal(controls[:, x])
        + ref_marginal(both[:, whole])
        - ref_marginal(both[:, x])
        - ref_marginal(cases[:, x2])
        - ref_marginal(controls[:, x2])
    )


def ref_log_joint(ds, starts, labels, priors):
    n = ds.n_snps
    s2 = [i for i in range(n) if labels[i] == 2]
    total = ref_marginal(ds.cases[:, s2]) + ref_marginal(ds.controls[:, s2])
    block_list = list(zip(starts, list(starts[1:]) + [n]))
    for a, b in block_list:
        total += ref_block_term(ds.cases, ds.controls, a, b, labels)
    nb = len(starts)
    total += nb * math.log(priors.p_boundary) + (n - nb) * math.log(1 - priors.p_boundary)
    label_p = (priors.p0, priors.p1, priors.p2)
    for lab in labels:
        total += math.log(label_p[lab])
    return total


def log_block_term(ds, block, labels):
    """One block's conditional term for the full-length label sequence ``labels``."""
    a, b = block
    priors = PriorConfig(p_boundary=0.5, p1=0.1, p2=0.1, rho=RHO,
                         max_distinct_diplotypes=NEVER_BINDS, max_order=NEVER_BINDS)
    return JointModel(ds, priors).block_term(a, b, mask_from_labels(labels, a, b))


def log_joint(ds, starts, labels, priors):
    return JointModel(ds, priors).log_joint(starts, labels)


def random_dataset(rng, n_cases, n_controls, n_snps):
    return GenotypeDataset(
        cases=rng.integers(0, 3, size=(n_cases, n_snps)).astype(np.int8),
        controls=rng.integers(0, 3, size=(n_controls, n_snps)).astype(np.int8),
        snp_ids=tuple(f"s{i}" for i in range(n_snps)),
        positions=tuple(100 * i + 1 for i in range(n_snps)),
    )


# -- priors and constraints ---------------------------------------------------------


def test_default_priors_boundary_formula():
    priors = default_priors(1000, 10**6, 500, 500)
    assert priors.p_boundary == pytest.approx(1.0 / 60.0, rel=1e-9)
    assert priors.p_boundary == pytest.approx(0.016667, abs=5e-7)


def test_default_priors_membership_formula():
    priors = default_priors(1000, 10**6, 500, 500)
    assert priors.p1 == pytest.approx(0.005)
    assert priors.p2 == pytest.approx(0.005)
    assert priors.p0 == pytest.approx(0.99)
    small = default_priors(10, 1000, 50, 50)
    assert small.p1 == pytest.approx(0.1)
    assert small.p0 == pytest.approx(0.8)


def test_default_priors_constraints():
    priors = default_priors(1000, 10**6, 500, 500)
    assert priors.max_order == 4  # 3^4 = 81 <= 100 < 243
    assert priors.max_distinct_diplotypes == 99
    priors30 = default_priors(10, 1000, 15, 15)
    assert priors30.max_order == 1
    with pytest.raises(ConstraintError):
        default_priors(10, 1000, 15, 14)
    with pytest.raises(ConstraintError):
        default_priors(10, 1000, 1, 0)
    # no individuals: the caps cannot bind and the other prior values are echoed
    priors0 = default_priors(10, 1000, 0, 0)
    assert priors0 == replace(priors30, max_distinct_diplotypes=1, max_order=1)
    assert (priors0.max_distinct_diplotypes, priors0.max_order) == (1, 1)
    assert default_priors(10, 1000, 0, 0, max_order=3).max_order == 3


def test_default_priors_overrides():
    priors = default_priors(100, 10**5, 100, 100, p1=0.02, p2=0.01, max_order=2)
    assert (priors.p1, priors.p2) == (0.02, 0.01)
    assert priors.p0 == pytest.approx(0.97)
    assert priors.max_order == 2


def test_prior_config_validation():
    valid = flat_priors(p_boundary=0.1, p1=0.1, p2=0.1)
    with pytest.raises(ValueError):
        replace(valid, p_boundary=0.6)
    with pytest.raises(ValueError):
        replace(valid, p_boundary=0.0)
    with pytest.raises(ValueError, match="p0"):
        replace(valid, p1=0.5, p2=0.5)
    for name in ("p1", "p2"):
        for bad in (-0.1, 1.0, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must lie"):
                replace(valid, **{name: bad})
    for rho in (0.0, float("nan"), float("inf"), 3e305, 1e-320):
        with pytest.raises(ValueError, match="rho"):
            replace(valid, rho=rho)
    with pytest.raises(ValueError):
        replace(valid, max_distinct_diplotypes=0, max_order=1)


# -- state encoding ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "starts, labels, message",
    [
        ((1, 3), (0,) * 5, "first block"),
        ((0, 3, 3), (0,) * 5, "strictly increase"),
        ((0, 5), (0,) * 5, "below the SNP count"),
        ((0,), (0, 3, 0, 0, 0), "labels must be"),
        ((0,), (0,) * 4, "4 labels for 5 SNPs"),
    ],
    ids=["first-start", "repeated-start", "start-past-end", "label-3", "size-mismatch"],
)
def test_log_joint_rejects_malformed_states(starts, labels, message):
    model = JointModel(random_dataset(np.random.default_rng(13), 5, 5, 5), flat_priors())
    with pytest.raises(ValueError, match=message):
        model.log_joint(starts, labels)


def test_mask_from_labels_two_bits_per_snp():
    labels = [2, 0, 1, 2]
    assert mask_from_labels(labels, 0, 4) == 0b10_01_00_10
    assert mask_from_labels(labels, 1, 2) == 0
    # a block's mask is a bit slice of the whole panel's, also past int64
    labels = [int(v) for v in np.random.default_rng(14).integers(0, 3, size=70)]
    key = mask_from_labels(labels, 0, 70)
    assert key > 2**64
    for a, b in combinations(range(71), 2):
        assert mask_from_labels(labels, a, b) == key >> 2 * a & (1 << 2 * (b - a)) - 1


# -- block terms ---------------------------------------------------------------------


def test_block_term_all_group0_collapses_to_marginal():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 8, 6, 3)
    got = log_block_term(ds, (0, 3), [0, 0, 0])
    both = np.vstack([ds.cases, ds.controls])
    assert got == pytest.approx(ref_marginal(both), abs=1e-10)
    # the five other marginals are the empty set's 0.0, so the six-marginal
    # sum is the combined one bit for bit, and only the block's own entries
    # are memoized; a cap of 6 binds from width 2 on
    for width, cap in product(range(1, 7), (NEVER_BINDS, 6)):
        ds = random_dataset(np.random.default_rng(20 + width), 8, 6, 8)
        a, b = 1, 1 + width
        whole = tuple(range(a, b))
        model = JointModel(ds, flat_priors(max_distinct_diplotypes=cap))
        got = model.block_term(a, b, 0)
        marginal = model.engine.marginal(whole, "both")
        want = marginal if model.engine.distinct_count(whole) <= cap else -math.inf
        assert got == want, (width, cap)
        assert list(model._block_terms) == [(a, b, 0)]
        assert list(model.engine._marg) == [(whole, "both")]


def test_block_term_all_group2_is_zero():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 8, 6, 3)
    assert log_block_term(ds, (0, 3), [2, 2, 2]) == pytest.approx(0.0, abs=1e-12)


def test_block_term_two_snp_hand_value():
    ds = GenotypeDataset(
        cases=np.array([[0, 0], [1, 2]], np.int8),
        controls=np.array([[0, 1], [1, 0]], np.int8),
        snp_ids=("a", "b"),
        positions=(1, 2),
    )
    got = log_block_term(ds, (0, 2), [1, 0])
    # cases at SNP 0: codes {0,1} -> (0.5/1.5)*(0.5/2.5) = 1/15; controls identical
    lm_cases_x = math.log(1.0 / 15.0)
    lm_controls_x = math.log(1.0 / 15.0)
    # whole block, both cohorts: 4 distinct pairs, alpha = 1.5/9 = 1/6
    lm_both_m = math.log((1 / 6) ** 4 / (1.5 * 2.5 * 3.5 * 4.5))
    # SNP 0, both cohorts: counts {0: 2, 1: 2}
    lm_both_x = math.log((0.5 * 0.5 * 1.5 * 1.5) / (1.5 * 2.5 * 3.5 * 4.5))
    want = lm_cases_x + lm_controls_x + lm_both_m - lm_both_x
    assert got == pytest.approx(want, abs=1e-12)


def test_block_term_matches_reference_on_random_masks():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 12, 9, 4)
    for _ in range(30):
        labels = [int(v) for v in rng.integers(0, 3, size=4)]
        got = log_block_term(ds, (0, 4), labels)
        want = ref_block_term(ds.cases, ds.controls, 0, 4, labels)
        assert got == pytest.approx(want, abs=1e-10)


def test_block_term_never_positive():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 15, 15, 5)
    for _ in range(40):
        a = int(rng.integers(0, 4))
        b = int(rng.integers(a + 1, 6))
        labels = [int(v) for v in rng.integers(0, 3, size=5)]
        assert log_block_term(ds, (a, b), labels) <= 1e-12


def labellings(rows):
    """The (subsets, inverse) pairs of the labelled and of the group-2 SNPs
    of the block-local label ``rows``, subsets in order of first appearance."""

    def decoded(subsets_per_row):
        subsets = list(dict.fromkeys(subsets_per_row))
        return subsets, np.array([subsets.index(row) for row in subsets_per_row], dtype=np.intp)

    return (
        decoded([tuple(i for i, d in enumerate(row) if d) for row in rows]),
        decoded([tuple(i for i, d in enumerate(row) if d == 2) for row in rows]),
    )


def scalar_terms(model, a, b, rows):
    """``block_term`` of each block-local label row."""
    return [model.block_term(a, b, mask_from_labels(row, 0, b - a)) for row in rows]


def assert_block_terms_match_block_term(ds, priors, a, b, rows):
    """The batch gives the scalar's values, bit for bit, the same marginal
    memos and no block-term memo."""
    batch = JointModel(ds, priors)
    scalar = JointModel(ds, priors)
    got = batch.block_terms(a, b, *labellings(rows))
    assert got.tolist() == scalar_terms(scalar, a, b, rows)
    assert batch._block_terms == {}
    assert batch.engine._marg == scalar.engine._marg
    assert batch.engine._distinct == scalar.engine._distinct
    return got


@pytest.mark.parametrize("width", range(1, 11))
def test_block_terms_are_bit_equal_to_block_term(width):
    rng = np.random.default_rng(60 + width)
    arms = [tuple(int(v) for v in rng.integers(1, 81, size=2)) for _ in range(2)]
    rows = [[0] * width, [2] * width, *rng.integers(0, 3, size=(80, width)).tolist()]
    rows += rows[2:7]  # repeated labellings
    priors = [flat_priors(), flat_priors(p1=0.0), flat_priors(p2=0.0)]
    for (n_cases, n_controls), prior in zip(arms + [(0, 0)], priors):
        ds = random_dataset(rng, n_cases, n_controls, width + 3)
        a = int(rng.integers(0, 4))
        assert_block_terms_match_block_term(ds, prior, a, a + width, rows)


def test_block_terms_of_a_block_wider_than_an_int64_mask():
    rng = np.random.default_rng(72)
    ds = random_dataset(rng, 3, 3, 42)
    rows = [[0] * 41, [2] * 41, [0] * 40 + [2], *rng.integers(0, 3, size=(6, 41)).tolist()]
    assert_block_terms_match_block_term(ds, flat_priors(), 1, 42, rows)


def test_blocks_of_one_width_share_a_decode_but_not_its_values():
    rng = np.random.default_rng(73)
    ds = random_dataset(rng, 60, 50, 10)
    rows = list(product(range(3), repeat=4))
    decoded = labellings(rows)
    batch = JointModel(ds, flat_priors())
    scalar = JointModel(ds, flat_priors())
    first = batch.block_terms(0, 4, *decoded)
    second = batch.block_terms(5, 9, *decoded)
    assert first.tolist() == scalar_terms(scalar, 0, 4, rows)
    assert second.tolist() == scalar_terms(scalar, 5, 9, rows)
    assert first.tolist() != second.tolist()
    assert batch._block_terms == {}
    assert batch.engine._marg == scalar.engine._marg


def test_block_terms_of_a_block_over_the_cap_are_minus_infinity():
    rng = np.random.default_rng(71)
    ds = random_dataset(rng, 40, 40, 4)
    rows = list(product(range(3), repeat=4))
    over = flat_priors(max_distinct_diplotypes=20, max_order=2)
    capped = assert_block_terms_match_block_term(ds, over, 0, 4, rows)
    assert (capped == -math.inf).all()
    under = flat_priors(max_distinct_diplotypes=80, max_order=2)
    within = assert_block_terms_match_block_term(ds, under, 0, 4, rows)
    assert np.isfinite(within).all()


# -- label-summed block weights -------------------------------------------------------


def brute_block_weights(model, a, b, keys):
    """Per block-local set key (SNP a + i at bit i), the log-sum-exp over the
    block's 0/1 labellings of the scalar ``block_term`` plus the free SNPs'
    label priors, and the same over the labellings that hold each SNP at
    label 1."""
    w = b - a
    log_w, log_w1 = [], []
    for bits in keys.tolist():
        free = [i for i in range(w) if not bits >> i & 1]
        scores, at_one = [], [[] for _ in range(w)]
        for sigma in product((0, 1), repeat=len(free)):
            labels = [2] * w
            for i, lab in zip(free, sigma):
                labels[i] = lab
            score = model.block_term(a, b, mask_from_labels(labels, 0, w))
            score += sum(model.log_label[lab] for lab in sigma)
            scores.append(score)
            for i in range(w):
                at_one[i].append(score if labels[i] == 1 else -math.inf)
        log_w.append(logsumexp(scores))
        log_w1.append([logsumexp(row) for row in at_one])
    return np.array(log_w), np.array(log_w1)


@pytest.mark.parametrize("cap", [NEVER_BINDS, 8], ids=["no-cap", "cap-binds"])
@pytest.mark.parametrize(
    "priors",
    [flat_priors(), flat_priors(p1=0.0), flat_priors(p2=0.0)],
    ids=["default", "p1-zero", "p2-zero"],
)
def test_block_weights_match_a_labelling_by_labelling_sum(priors, cap):
    rng = np.random.default_rng(80)
    ds = random_dataset(rng, 40, 40, 7)
    priors = replace(priors, max_distinct_diplotypes=cap)
    sets = [s for k in range(4) for s in combinations(range(7), k)]
    set_bits = np.array([sum(1 << i for i in s) for s in sets], dtype=np.int64)
    model = JointModel(ds, priors)
    scalar = JointModel(ds, priors)
    allowed = []
    for width in range(1, 6):
        log_w, log_w1 = model.block_weights(1, 1 + width, set_bits)
        want_w, want_w1 = brute_block_weights(scalar, 1, 1 + width, set_bits)
        assert log_w.shape == (len(sets),) and log_w1.shape == (len(sets), width)
        np.testing.assert_allclose(log_w, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_w1, want_w1, rtol=0, atol=1e-12)
        allowed.append(model.block_allowed(1, 1 + width))
    if cap == NEVER_BINDS:
        assert all(allowed)
    else:  # the cap removes the wider blocks
        assert allowed[0] and not allowed[-1]


def test_blocks_of_one_width_share_their_labellings_but_not_their_weights():
    rng = np.random.default_rng(81)
    ds = random_dataset(rng, 60, 50, 12)
    set_bits = np.array([0, 0b1, 0b100001, 0b1000001], dtype=np.int64)  # local keys 0 and 1
    model = JointModel(ds, flat_priors())
    first = model.block_weights(0, 3, set_bits)
    second = model.block_weights(5, 8, set_bits)
    assert len(model._shapes) == 1
    scalar = JointModel(ds, flat_priors())
    for got, a in ((first, 0), (second, 5)):
        want = brute_block_weights(scalar, a, a + 3, set_bits)
        for g, wnt in zip(got, want):
            np.testing.assert_allclose(g, wnt, rtol=0, atol=1e-12)
    assert first[0].tolist() != second[0].tolist()


def test_block_weights_take_block_local_keys_past_snp_63():
    rng = np.random.default_rng(82)
    ds = random_dataset(rng, 40, 40, 70)
    keys = np.array([0, 0b1, 0b1010, 0b1100], dtype=np.int64)
    got = JointModel(ds, flat_priors()).block_weights(64, 68, keys)
    want = brute_block_weights(JointModel(ds, flat_priors()), 64, 68, keys)
    for g, wnt in zip(got, want):
        np.testing.assert_allclose(g, wnt, rtol=0, atol=1e-12)
    assert len(set(got[0].tolist())) == len(keys)


# -- the allowed-block scan -----------------------------------------------------------


class CountingModel(JointModel):
    """Counts its ``block_allowed`` calls."""

    calls = 0

    def block_allowed(self, a, b):
        self.calls += 1
        return super().block_allowed(a, b)


def monomorphic_run_panel():
    """Ten random SNPs but for a monomorphic run at SNPs 2-6, so that blocks
    spanning the run stay within a cap of 29."""
    rng = np.random.default_rng(83)
    cases, controls = rng.integers(0, 3, (150, 10)), rng.integers(0, 3, (150, 10))
    cases[:, 2:7] = controls[:, 2:7] = 1
    return helpers.make_dataset(cases, controls, spacing=100)


@pytest.mark.parametrize(
    "ds, cap, widest",
    [
        (helpers.capped_panel(), 29, 3),
        (random_dataset(np.random.default_rng(80), 40, 40, 7), 8, 1),
        (monomorphic_run_panel(), 29, 8),
    ],
    ids=["capped", "cap-binds", "monomorphic-run"],
)
def test_allowed_ends_list_exactly_the_blocks_within_the_cap(ds, cap, widest):
    n = ds.n_snps
    priors = flat_priors(max_distinct_diplotypes=cap)
    ends = JointModel(ds, priors).allowed_ends()
    brute = JointModel(ds, priors)
    want = [(a, b) for a in range(n) for b in range(a + 1, n + 1) if brute.block_allowed(a, b)]
    assert [(a, b) for a, end in enumerate(ends) for b in range(a + 1, end + 1)] == want
    assert ends[0] < n and max(end - a for a, end in enumerate(ends)) == widest


def test_allowed_ends_check_at_most_3n_blocks():
    ds = helpers.capped_panel(n_snps=60)
    model = CountingModel(ds, flat_priors(max_distinct_diplotypes=29))
    ends = model.allowed_ends()
    assert 0 < model.calls <= 3 * 60
    assert all(a < end < 60 for a, end in enumerate(ends[:50]))


def test_allowed_ends_refuse_a_panel_whose_every_singleton_is_over_the_cap():
    ds = helpers.make_dataset([[0, 0], [1, 1], [2, 2]], [[0, 1], [1, 2]], spacing=100)
    model = JointModel(ds, flat_priors(max_distinct_diplotypes=2))
    with pytest.raises(ConstraintError, match="every partition violates the diplotype cap"):
        model.allowed_ends()


# -- joint ----------------------------------------------------------------------------


def test_log_joint_empty_data_is_priors_only():
    ds = GenotypeDataset(
        cases=np.zeros((0, 4), np.int8),
        controls=np.zeros((0, 4), np.int8),
        snp_ids=("a", "b", "c", "d"),
        positions=(1, 2, 3, 4),
    )
    priors = flat_priors()
    for starts, labels in [((0,), (0, 0, 0, 0)), ((0, 2), (1, 0, 2, 2)), ((0, 1, 2, 3), (2, 2, 0, 1))]:
        got = log_joint(ds, starts, labels, priors)
        nb = len(starts)
        want = nb * math.log(0.2) + (4 - nb) * math.log(0.8)
        for lab in labels:
            want += math.log((0.75, 0.15, 0.1)[lab])
        assert got == pytest.approx(want, abs=1e-12)


def test_log_joint_all_group0_single_block():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 10, 10, 3)
    priors = flat_priors()
    got = log_joint(ds, (0,), (0, 0, 0), priors)
    want = (
        ref_marginal(np.vstack([ds.cases, ds.controls]))
        + math.log(0.2)
        + 2 * math.log(0.8)
        + 3 * math.log(0.75)
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_log_joint_matches_reference_on_random_states():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 14, 11, 5)
    priors = flat_priors()
    for _ in range(30):
        cuts = sorted({0} | set(int(v) for v in rng.integers(1, 5, size=rng.integers(0, 4))))
        labels = tuple(int(v) for v in rng.integers(0, 3, size=5))
        got = log_joint(ds, cuts, labels, priors)
        want = ref_log_joint(ds, cuts, labels, priors)
        assert got == pytest.approx(want, abs=1e-10)


def test_log_joint_group2_pair_reference():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, 20, 20, 3)
    priors = flat_priors()
    got = log_joint(ds, (0, 1), (0, 2, 2), priors)
    want = ref_log_joint(ds, [0, 1], (0, 2, 2), priors)
    assert got == pytest.approx(want, abs=1e-10)


def test_group2_term_is_the_engine_case_and_control_marginals():
    # the term keeps no memo of its own: cold and warm calls read the engine's
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 25, 30, 6)
    for s2 in [(1,), (0, 3), (1, 2, 5)]:
        fresh = JointModel(ds, flat_priors()).engine
        want = fresh.marginal(s2, "cases") + fresh.marginal(s2, "controls")
        model = JointModel(ds, flat_priors())
        cold = model.group2_term(s2)
        assert set(model.engine._marg) == {(s2, "cases"), (s2, "controls")}
        warm = model.group2_term(s2)
        eng = model.engine
        assert cold == warm == eng.marginal(s2, "cases") + eng.marginal(s2, "controls") == want
    model = JointModel(ds, flat_priors())
    assert model.group2_term(()) == 0.0
    assert model.engine._marg == {}


def test_split_of_unassociated_block_changes_only_that_block():
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, 12, 12, 6)
    priors = flat_priors()
    model = JointModel(ds, priors)
    labels = (0, 0, 0, 0, 1, 2)
    merged = model.log_joint((0, 4), labels)
    split = model.log_joint((0, 2, 4), labels)
    # only block [0,4) was cut; the difference is its term swap plus one prior factor
    lhs = split - merged
    t_whole = model.block_term(0, 4, mask_from_labels(labels, 0, 4))
    t_left = model.block_term(0, 2, mask_from_labels(labels, 0, 2))
    t_right = model.block_term(2, 4, mask_from_labels(labels, 2, 4))
    prior_delta = math.log(priors.p_boundary) - math.log(1 - priors.p_boundary)
    assert lhs == pytest.approx(t_left + t_right - t_whole + prior_delta, abs=1e-12)


def test_log_joint_forbidden_states():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 20, 20, 4)
    tight = flat_priors(max_distinct_diplotypes=2, max_order=1)
    model = JointModel(ds, tight)
    # a 4-SNP block on random N=40 data exceeds 2 distinct diplotypes
    assert model.log_joint((0,), (0, 0, 0, 0)) == -math.inf
    # epistatic set above max_order
    assert model.log_joint((0, 1, 2, 3), (2, 2, 0, 0)) == -math.inf


def test_log_joint_zero_label_prior_forbids_label():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 10, 10, 2)
    priors = PriorConfig(p_boundary=0.2, p1=0.0, p2=0.2, rho=RHO,
                         max_distinct_diplotypes=NEVER_BINDS, max_order=NEVER_BINDS)
    model = JointModel(ds, priors)
    assert model.log_joint((0, 1), (1, 0)) == -math.inf
    finite = model.log_joint((0, 1), (2, 0))
    assert math.isfinite(finite)


def test_block_allowed_uses_distinct_count():
    ds = GenotypeDataset(
        cases=np.array([[0, 0], [1, 0], [2, 0]], np.int8),
        controls=np.zeros((0, 2), np.int8),
        snp_ids=("a", "b"),
        positions=(1, 2),
    )
    model = JointModel(ds, flat_priors(max_distinct_diplotypes=2, max_order=1))
    assert model.block_allowed(1, 2)  # column b: one distinct value
    assert not model.block_allowed(0, 2)  # three distinct rows
    assert not model.block_allowed(0, 1)  # three distinct values at column a
