"""Joint model: priors, partitions, memberships, block terms, log joint.

Reference values come from a test-local sequential-predictive evaluator that
never touches the package's likelihood code, so joint-probability checks are
independent of the implementation under test.
"""

import math

import numpy as np
import pytest

from beamscan.dataio import GenotypeDataset
from beamscan.model import (
    BlockPartition,
    ConstraintError,
    JointModel,
    MembershipVector,
    ModelConstraints,
    PriorConfig,
    default_priors,
    mask_from_labels,
)

RHO = 1.5


def ref_marginal(mat, rho=RHO):
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
    priors = PriorConfig(p_boundary=0.5, p1=0.1, p2=0.1, p0=0.8, rho=RHO)
    return JointModel(ds, priors).block_term(a, b, mask_from_labels(labels, a, b))


def log_joint(ds, partition, membership, priors):
    return JointModel(ds, priors).log_joint(partition, membership)


def random_dataset(rng, n_cases, n_controls, n_snps):
    return GenotypeDataset(
        cases=rng.integers(0, 3, size=(n_cases, n_snps)).astype(np.int8),
        controls=rng.integers(0, 3, size=(n_controls, n_snps)).astype(np.int8),
        snp_ids=tuple(f"s{i}" for i in range(n_snps)),
        positions=tuple(100 * i + 1 for i in range(n_snps)),
    )


# -- priors and constraints ---------------------------------------------------------


def test_default_priors_boundary_formula():
    priors, _ = default_priors(1000, 10**6, 500, 500)
    assert priors.p_boundary == pytest.approx(1.0 / 60.0, rel=1e-9)
    assert priors.p_boundary == pytest.approx(0.016667, abs=5e-7)


def test_default_priors_membership_formula():
    priors, _ = default_priors(1000, 10**6, 500, 500)
    assert priors.p1 == pytest.approx(0.005)
    assert priors.p2 == pytest.approx(0.005)
    assert priors.p0 == pytest.approx(0.99)
    small, _ = default_priors(10, 1000, 50, 50)
    assert small.p1 == pytest.approx(0.1)
    assert small.p0 == pytest.approx(0.8)


def test_default_priors_constraints():
    _, cons = default_priors(1000, 10**6, 500, 500)
    assert cons.max_order == 4  # 3^4 = 81 <= 100 < 243
    assert cons.max_distinct_diplotypes == 99
    _, cons30 = default_priors(10, 1000, 15, 15)
    assert cons30.max_order == 1
    with pytest.raises(ConstraintError):
        default_priors(10, 1000, 15, 14)
    with pytest.raises(ConstraintError):
        default_priors(10, 1000, 1, 0)
    # no individuals: the caps cannot bind and the priors are echoed
    priors0, cons0 = default_priors(10, 1000, 0, 0)
    assert priors0 == default_priors(10, 1000, 15, 15)[0]
    assert (cons0.max_distinct_diplotypes, cons0.max_order) == (1, 1)
    assert default_priors(10, 1000, 0, 0, max_order=3)[1].max_order == 3


def test_default_priors_overrides():
    priors, cons = default_priors(100, 10**5, 100, 100, p1=0.02, p2=0.01, max_order=2)
    assert (priors.p1, priors.p2) == (0.02, 0.01)
    assert priors.p0 == pytest.approx(0.97)
    assert cons.max_order == 2


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(p_boundary=0.6, p1=0.1, p2=0.1, p0=0.8)
    with pytest.raises(ValueError):
        PriorConfig(p_boundary=0.0, p1=0.1, p2=0.1, p0=0.8)
    with pytest.raises(ValueError):
        PriorConfig(p_boundary=0.1, p1=0.5, p2=0.5, p0=0.0)
    with pytest.raises(ValueError):
        PriorConfig(p_boundary=0.1, p1=0.3, p2=0.3, p0=0.3)
    with pytest.raises(ValueError):
        ModelConstraints(max_distinct_diplotypes=0, max_order=1)


# -- partition and membership types ---------------------------------------------------


def test_partition_boundary_round_trip():
    part = BlockPartition((0, 2, 5), 7)
    assert part.boundary == (True, False, True, False, False, True, False)
    assert BlockPartition.from_boundary(part.boundary) == part
    assert part.n_blocks == 3
    assert part.blocks() == ((0, 2), (2, 5), (5, 7))
    assert part.block_of(4) == (2, 5)
    assert part.block_of(6) == (5, 7)


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition((1, 3), 5)
    with pytest.raises(ValueError):
        BlockPartition((0, 3, 3), 5)
    with pytest.raises(ValueError):
        BlockPartition((0, 5), 5)
    with pytest.raises(ValueError):
        BlockPartition.from_boundary((False, True))
    assert BlockPartition.singletons(3).n_blocks == 3
    assert BlockPartition.single_block(3).n_blocks == 1


def test_membership_vector():
    mv = MembershipVector((0, 2, 1, 2))
    assert mv.epistatic_set == (1, 3)
    assert mv.label_counts() == (1, 1, 2)
    assert MembershipVector.all_unassociated(3).labels == (0, 0, 0)
    with pytest.raises(ValueError):
        MembershipVector((0, 3))


def test_mask_from_labels_ternary():
    labels = [2, 0, 1, 2]
    assert mask_from_labels(labels, 0, 4) == 2 + 0 * 3 + 1 * 9 + 2 * 27
    assert mask_from_labels(labels, 2, 4) == 1 + 2 * 3
    assert mask_from_labels(labels, 1, 2) == 0


# -- block terms ---------------------------------------------------------------------


def test_block_term_all_group0_collapses_to_marginal():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 8, 6, 3)
    got = log_block_term(ds, (0, 3), [0, 0, 0])
    both = np.vstack([ds.cases, ds.controls])
    assert got == pytest.approx(ref_marginal(both), abs=1e-10)


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


# -- joint ----------------------------------------------------------------------------


def flat_priors(p_boundary=0.2, p1=0.15, p2=0.1):
    return PriorConfig(p_boundary=p_boundary, p1=p1, p2=p2, p0=1 - p1 - p2, rho=RHO)


def test_log_joint_empty_data_is_priors_only():
    ds = GenotypeDataset(
        cases=np.zeros((0, 4), np.int8),
        controls=np.zeros((0, 4), np.int8),
        snp_ids=("a", "b", "c", "d"),
        positions=(1, 2, 3, 4),
    )
    priors = flat_priors()
    for starts, labels in [((0,), (0, 0, 0, 0)), ((0, 2), (1, 0, 2, 2)), ((0, 1, 2, 3), (2, 2, 0, 1))]:
        got = log_joint(ds, BlockPartition(starts, 4), MembershipVector(labels), priors)
        nb = len(starts)
        want = nb * math.log(0.2) + (4 - nb) * math.log(0.8)
        for lab in labels:
            want += math.log((0.75, 0.15, 0.1)[lab])
        assert got == pytest.approx(want, abs=1e-12)


def test_log_joint_all_group0_single_block():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 10, 10, 3)
    priors = flat_priors()
    got = log_joint(ds, BlockPartition.single_block(3), MembershipVector.all_unassociated(3), priors)
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
        got = log_joint(ds, BlockPartition(tuple(cuts), 5), MembershipVector(labels), priors)
        want = ref_log_joint(ds, cuts, labels, priors)
        assert got == pytest.approx(want, abs=1e-10)


def test_log_joint_group2_pair_reference():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, 20, 20, 3)
    priors = flat_priors()
    got = log_joint(ds, BlockPartition((0, 1), 3), MembershipVector((0, 2, 2)), priors)
    want = ref_log_joint(ds, [0, 1], (0, 2, 2), priors)
    assert got == pytest.approx(want, abs=1e-10)


def test_split_of_unassociated_block_changes_only_that_block():
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, 12, 12, 6)
    priors = flat_priors()
    model = JointModel(ds, priors)
    labels = MembershipVector((0, 0, 0, 0, 1, 2))
    merged = model.log_joint(BlockPartition((0, 4), 6), labels)
    split = model.log_joint(BlockPartition((0, 2, 4), 6), labels)
    # only block [0,4) was cut; the difference is its term swap plus one prior factor
    lhs = split - merged
    t_whole = model.block_term(0, 4, mask_from_labels(labels.labels, 0, 4))
    t_left = model.block_term(0, 2, mask_from_labels(labels.labels, 0, 2))
    t_right = model.block_term(2, 4, mask_from_labels(labels.labels, 2, 4))
    prior_delta = math.log(priors.p_boundary) - math.log(1 - priors.p_boundary)
    assert lhs == pytest.approx(t_left + t_right - t_whole + prior_delta, abs=1e-12)


def test_log_joint_forbidden_states():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 20, 20, 4)
    priors = flat_priors()
    tight = ModelConstraints(max_distinct_diplotypes=2, max_order=1)
    model = JointModel(ds, priors, tight)
    # a 4-SNP block on random N=40 data exceeds 2 distinct diplotypes
    assert model.log_joint(
        BlockPartition.single_block(4), MembershipVector.all_unassociated(4)
    ) == -math.inf
    # epistatic set above max_order
    assert model.log_joint(
        BlockPartition.singletons(4), MembershipVector((2, 2, 0, 0))
    ) == -math.inf


def test_log_joint_zero_label_prior_forbids_label():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 10, 10, 2)
    priors = PriorConfig(p_boundary=0.2, p1=0.0, p2=0.2, p0=0.8, rho=RHO)
    model = JointModel(ds, priors)
    assert model.log_joint(BlockPartition.singletons(2), MembershipVector((1, 0))) == -math.inf
    finite = model.log_joint(BlockPartition.singletons(2), MembershipVector((2, 0)))
    assert math.isfinite(finite)


def test_log_joint_size_mismatch():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 5, 5, 3)
    model = JointModel(ds, flat_priors())
    with pytest.raises(ValueError):
        model.log_joint(BlockPartition.singletons(2), MembershipVector((0, 0, 0)))


def test_block_allowed_uses_distinct_count():
    ds = GenotypeDataset(
        cases=np.array([[0, 0], [1, 0], [2, 0]], np.int8),
        controls=np.zeros((0, 2), np.int8),
        snp_ids=("a", "b"),
        positions=(1, 2),
    )
    model = JointModel(ds, flat_priors(), ModelConstraints(max_distinct_diplotypes=2, max_order=1))
    assert model.block_allowed(1, 2)  # column b: one distinct value
    assert not model.block_allowed(0, 2)  # three distinct rows
    assert not model.block_allowed(0, 1)  # three distinct values at column a
