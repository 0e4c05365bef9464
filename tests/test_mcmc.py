"""Sampler mechanics: proposals, acceptance, label sweeps, chain drivers.

The move-level tests run the kernels on empty or hand-built data where the
correct acceptance odds are known in closed form; chain-level tests compare
against the exhaustive enumerator on panels small enough to enumerate.
"""

import math
from bisect import insort
from functools import partial
from itertools import permutations, product

import numpy as np
import pytest

import helpers
from beamscan import mcmc
from beamscan.likelihood import LikelihoodEngine
from beamscan.mcmc import (
    ChainState,
    Schedule,
    accept,
    default_schedule,
    gibbs_membership_sweep,
    init_state,
    propose_block_move,
    run_chain,
    run_chains,
    swap_membership_move,
)
from beamscan.model import (
    ConstraintError,
    JointModel,
    PriorConfig,
    default_priors,
    mask_from_labels,
)
from beamscan.oracle import enumerate_posterior

make_dataset = partial(helpers.make_dataset, spacing=10)
empty_dataset = partial(helpers.empty_dataset, spacing=10)
flat_priors = partial(helpers.flat_priors, p_boundary=0.2, p1=0.15, p2=0.1)


def force_state(state, starts, labels):
    """Overwrite the chain configuration through the state's own writer."""
    state.assign(starts, labels)


def apply_move(state, proposal):
    """Apply a proposal whatever its odds, with a log-joint change of 0."""
    state.repartition(proposal, 0.0)


def assert_key_follows_labels(state):
    """The state's label key is the one its labels encode, and so is each
    block's slice of it."""
    n = state.model.n_snps
    assert state.label_key == mask_from_labels(state.labels, 0, n)
    for a, b in zip(state.bounds, state.bounds[1:]):
        assert state.block_mask(a, b) == mask_from_labels(state.labels, a, b)


# -- schedules -----------------------------------------------------------------------


def test_schedule_defaults_and_validation():
    sched = default_schedule(20)
    assert (sched.burnin, sched.iterations) == (200, 1000)
    with pytest.raises(ValueError):
        Schedule(burnin=-1, iterations=10)


# -- proposal shapes and Hastings ratios -----------------------------------------------


def test_split_proposal_two_snps():
    state = init_state(empty_dataset(2), flat_priors(), seed=0)
    force_state(state, (0,), (0, 0))
    prop = propose_block_move(state, "split")
    assert prop.kind == "split"
    assert prop.first == 0
    assert prop.removed == ((0, 2),)
    assert prop.added == ((0, 1), (1, 2))
    assert prop.log_q_ratio == pytest.approx(0.0)
    apply_move(state, prop)
    assert state.bounds[:-1] == [0, 1]


def test_merge_proposal_two_snps():
    state = init_state(empty_dataset(2), flat_priors(), seed=0)
    prop = propose_block_move(state, "merge")
    assert prop.first == 0
    assert prop.removed == ((0, 1), (1, 2))
    assert prop.added == ((0, 2),)
    assert prop.log_q_ratio == pytest.approx(0.0)
    apply_move(state, prop)
    assert state.bounds[:-1] == [0]


def test_split_merge_ratio_scales_with_width():
    state = init_state(empty_dataset(5), flat_priors(), seed=1)
    force_state(state, (0,), (0,) * 5)
    assert propose_block_move(state, "split").log_q_ratio == pytest.approx(math.log(4))
    force_state(state, (0, 2), (0,) * 5)
    assert propose_block_move(state, "merge").log_q_ratio == pytest.approx(-math.log(4))


def test_shift_targets_and_symmetric_ratio():
    state = init_state(empty_dataset(6), flat_priors(), seed=2)
    seen = set()
    for _ in range(200):
        force_state(state, (0, 3), (0,) * 6)
        prop = propose_block_move(state, "shift")
        assert prop.kind == "shift"
        assert prop.log_q_ratio == pytest.approx(0.0)
        assert prop.first == 0
        assert prop.removed == ((0, 3), (3, 6))
        (a, new_t), (new_t2, b) = prop.added
        assert (a, b) == (0, 6) and new_t == new_t2
        assert new_t in {1, 2, 4, 5}
        apply_move(state, prop)
        assert state.bounds[:-1] == [0, new_t]
        seen.add(new_t)
    assert seen == {1, 2, 4, 5}


def test_inapplicable_moves_return_none():
    one = init_state(empty_dataset(1), flat_priors(), seed=3)
    assert propose_block_move(one, "split") is None
    assert propose_block_move(one, "merge") is None
    assert propose_block_move(one, "shift") is None
    two = init_state(empty_dataset(2), flat_priors(), seed=3)
    force_state(two, (0,), (0, 0))
    assert propose_block_move(two, "merge") is None
    with pytest.raises(ValueError):
        propose_block_move(two, "grow")


class ScriptedUniforms:
    """A draw source whose ``random()`` returns the given floats in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_move_kind_cut_points_are_the_running_sums_of_the_kind_probabilities():
    draws = [math.nextafter(0.1, 0), 0.1, math.nextafter(0.2, 0), 0.2, math.nextafter(1.0, 0)]

    def by_accumulation(u):
        acc = 0.0
        for kind, p in mcmc._KIND_PROBS:
            acc += p
            if u < acc:
                return kind

    rng = ScriptedUniforms(draws)
    got = [mcmc._choose_kind(rng) for _ in draws]
    assert got == ["split", "merge", "merge", "shift", "shift"]
    assert got == [by_accumulation(u) for u in draws]


def test_accept_probability_matches_log_ratio():
    # empty data, p = 1/3: splitting a 2-SNP block has acceptance odds
    # exp(log(p) - log(1-p)) = 1/2 exactly
    priors = flat_priors(p_boundary=1.0 / 3.0, p1=0.1, p2=0.1)
    state = init_state(empty_dataset(2), priors, seed=11)
    hits = 0
    trials = 100_000
    for _ in range(trials):
        force_state(state, (0,), (0, 0))
        prop = propose_block_move(state, "split")
        if accept(state, prop):
            hits += 1
            assert state.bounds[:-1] == [0, 1]
        else:
            assert state.bounds[:-1] == [0]
    assert hits / trials == pytest.approx(0.5, abs=0.01)


def test_capped_merge_never_accepted():
    # merged block has 3 distinct diplotypes, over the cap of 2; singletons fit
    ds = make_dataset([[0, 0], [1, 0], [0, 1]], [[0, 0]])
    priors = flat_priors(p_boundary=0.45, max_distinct_diplotypes=2, max_order=1)
    state = init_state(ds, priors, seed=4)
    for _ in range(500):
        prop = propose_block_move(state, "merge")
        assert not accept(state, prop)
        assert state.bounds[:-1] == [0, 1]


def test_singleton_over_cap_is_rejected_at_init():
    ds = make_dataset([[0], [1], [2]], [[0]])
    with pytest.raises(ConstraintError, match=r"SNP s0 \(index 0\) .* every partition violates"):
        init_state(ds, flat_priors(max_distinct_diplotypes=2, max_order=1), seed=0)


# -- membership kernels ----------------------------------------------------------------


def test_gibbs_samples_prior_on_empty_data():
    third = 1.0 / 3.0
    priors = flat_priors(p_boundary=0.2, p1=third, p2=third)
    state = init_state(empty_dataset(1), priors, seed=5)
    counts = [0, 0, 0]
    sweeps = 6000
    for _ in range(sweeps):
        gibbs_membership_sweep(state)
        counts[state.labels[0]] += 1
    for c in counts:
        assert c / sweeps == pytest.approx(third, abs=0.02)


def test_gibbs_respects_interaction_order_cap():
    priors = PriorConfig(p_boundary=0.2, p1=0.1, p2=0.5, rho=1.5,
                         max_distinct_diplotypes=9, max_order=2)
    state = init_state(empty_dataset(6), priors, seed=6)
    saw_full = False
    for _ in range(400):
        gibbs_membership_sweep(state)
        swap_membership_move(state)
        assert len(state.s2) <= 2
        assert state.s2 == [i for i, v in enumerate(state.labels) if v == 2]
        saw_full = saw_full or len(state.s2) == 2
    assert saw_full  # the cap binds rather than label 2 never appearing


def test_swap_between_identical_columns_is_free():
    rng = np.random.default_rng(7)
    col = rng.integers(0, 3, size=30)
    cases = np.stack([col[:15], col[:15]], axis=1)
    controls = np.stack([col[15:], col[15:]], axis=1)
    ds = make_dataset(cases, controls)
    state = init_state(ds, flat_priors(), seed=8)
    force_state(state, (0, 1), (1, 0))
    for _ in range(50):
        assert swap_membership_move(state) == 1
    assert state.counters["swap_accepted"] == state.counters["swap_proposed"] == 50


def test_swap_prefers_the_cleaner_signal_column():
    rng = np.random.default_rng(9)
    n = 30
    causal_cases = np.full(n, 2, np.int8)
    causal_controls = np.zeros(n, np.int8)
    flip = rng.random(2 * n) < 0.1
    proxy = np.concatenate([causal_cases, causal_controls]).copy()
    proxy[flip] = 2 - proxy[flip]
    noise = rng.integers(0, 3, size=(2 * n, 4)).astype(np.int8)
    cases = np.column_stack([causal_cases, proxy[:n], noise[:n]])
    controls = np.column_stack([causal_controls, proxy[n:], noise[n:]])
    ds = make_dataset(cases, controls)
    state = init_state(ds, flat_priors(), seed=10)
    to_causal = 0
    to_noise = 0
    trials = 300
    for _ in range(trials):
        force_state(state, tuple(range(6)), (0, 1, 0, 0, 0, 0))
        if swap_membership_move(state):
            if state.labels[0] == 1:
                to_causal += 1
            else:
                to_noise += 1
    # the causal column is drawn 1/5 of the time; acceptance there should be
    # near certain, elsewhere near zero
    assert to_causal * 5 / trials > 0.5
    assert to_causal > 3 * to_noise


@pytest.mark.parametrize("orbit, starts", [
    ((1, 2, 0), (0, 1)),
    ((1, 1, 0, 0), (0, 2, 3)),
    ((1, 2, 0, 0), (0, 1, 3)),
    ((2, 2, 1, 0, 0), (0, 2, 3)),
])
def test_one_swap_pass_leaves_the_target_invariant(orbit, starts):
    """Exact one-pass transition matrix on every arrangement of a label
    multiset: pi P = pi under the model's own block and group-2 terms."""
    n = len(orbit)
    ds = random_signal_dataset(40 + n, 12, 12, n)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=81, max_order=3)
    state = init_state(ds, priors, seed=0)
    arrangements = sorted(set(permutations(orbit)))
    logw = np.array([state.model.log_joint(starts, x) for x in arrangements])
    pi = np.exp(logw - logw.max())
    pi /= pi.sum()
    index = {x: k for k, x in enumerate(arrangements)}
    P = np.zeros((len(arrangements), len(arrangements)))
    for k, x in enumerate(arrangements):
        for (to_starts, y), p in helpers.kernel_transitions(state, swap_membership_move, starts, x).items():
            assert to_starts == starts
            P[k, index[y]] += p
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # relative to each state's own weight, so the unlikely arrangements count too
    assert np.all(np.abs(pi @ P - pi) <= 1e-9 * pi)


def block_move(kind, state):
    proposal = propose_block_move(state, kind)
    if proposal is not None:
        accept(state, proposal)


@pytest.mark.parametrize("cap, admissible", [(9, 8), (81, 16)], ids=["cap-binds", "cap-free"])
def test_block_moves_leave_the_target_invariant_with_mixed_labels(cap, admissible):
    """Exact transition matrix of the 0.1 / 0.1 / 0.8 split / merge / shift
    mixture on every partition of 5 SNPs whose labels are not all 0:
    pi P = pi over the partitions that the diplotype cap admits."""
    labels = (1, 0, 2, 2, 0)
    n = len(labels)
    ds = random_signal_dataset(45, 12, 12, n)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=cap, max_order=3)
    state = init_state(ds, priors, seed=0)
    partitions = [(0, *(i for i in range(1, n) if bits >> (i - 1) & 1)) for bits in range(1 << (n - 1))]
    logw = {s: state.model.log_joint(s, labels) for s in partitions}
    live = [s for s in partitions if logw[s] > -math.inf]
    assert len(live) == admissible
    top = max(logw[s] for s in live)
    pi = np.array([math.exp(logw[s] - top) for s in live])
    pi /= pi.sum()
    index = {s: k for k, s in enumerate(live)}
    P = np.zeros((len(live), len(live)))
    for kind, prob in (("split", 0.1), ("merge", 0.1), ("shift", 0.8)):
        for k, s in enumerate(live):
            for (to, y), p in helpers.kernel_transitions(state, partial(block_move, kind), s, labels).items():
                assert y == labels
                P[k, index[to]] += prob * p
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.abs(pi @ P - pi) <= 1e-9 * pi)


# -- the Gibbs sweep, exactly -----------------------------------------------------------


class StubRng:
    """``random(n)`` returns the given uniforms, ``integers(k)`` the next given
    choice (at most k - 1), and ``random()`` 0.0, which accepts every block
    move whose odds are not zero."""

    def __init__(self, uniforms=(), choices=()):
        self.uniforms = list(uniforms)
        self.choices = list(choices)

    def random(self, size=None):
        if size is None:
            return 0.0
        assert size == len(self.uniforms)
        return np.array(self.uniforms)

    def integers(self, k):
        return min(self.choices.pop(0), k - 1)


def exact_conditionals(model):
    """SNP i's full conditional over labels 0, 1 and 2 from the joint itself,
    as a function of (starts, labels, i); each value is computed once."""
    memo = {}

    def conditional(starts, labels, i):
        key = (tuple(starts), tuple(labels), i)
        if key not in memo:
            logw = [model.log_joint(starts, labels[:i] + [lab] + labels[i + 1 :]) for lab in (0, 1, 2)]
            top = max(logw)
            weights = [math.exp(w - top) for w in logw]
            memo[key] = [w / sum(weights) for w in weights]
        return memo[key]

    return conditional


def row_conditional(rows, i):
    """The conditional over labels 0, 1 and 2 that label row i decides with."""
    acc0, acc1, total = rows.acc0[i], rows.acc1[i], rows.total[i]
    return [acc0 / total, (acc1 - acc0) / total, (total - acc1) / total]


def assert_row_is(rows, i, want):
    got = row_conditional(rows, i)
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12, (got, want)


def midpoints(cond, labels):
    """Per SNP, the midpoint of its label's interval in its conditional."""
    return [sum(c[:lab]) + c[lab] / 2 for c, lab in zip(cond, labels)]


def label_paths(probe, conditional, starts, labels):
    """Every label path of one sweep from (starts, labels), as (labels after,
    uniforms at the midpoints of the exact intervals along the path, the
    product of the built rows' probabilities along it)."""
    out = []

    def walk(cur, uniforms, p):
        i = len(uniforms)
        if i == len(cur):
            out.append((cur, uniforms, p))
            return
        probe.assign(starts, cur)
        probe.label_rows.build(probe, i, 0.0)
        built = row_conditional(probe.label_rows, i)
        exact = conditional(starts, cur, i)
        for lab in (0, 1, 2):
            if exact[lab] > 0.0:
                walk(cur[:i] + [lab] + cur[i + 1 :], uniforms + midpoints([exact], [lab]), p * built[lab])

    walk(list(labels), [], 1.0)
    return out


GIBBS_PRIORS = {
    "cap-binds": dict(p1=0.2, p2=0.3, max_order=1),
    "cap-free": dict(p1=0.2, p2=0.3, max_order=3),
    "p1-zero": dict(p1=0.0, p2=0.3, max_order=3),
}


@pytest.mark.parametrize("setting", list(GIBBS_PRIORS))
def test_gibbs_sweep_is_exact_on_three_snps(monkeypatch, setting):
    """On every partition and admissible label state of 3 SNPs: (a) every
    built label row is the exact full conditional; (b) uniforms at the
    midpoints of the exact intervals drive the sweep along every label path,
    from all-stale rows and from rows cached by a sweep and a block move;
    (c) the sweep's transition matrix leaves the target invariant."""
    n = 3
    ds = random_signal_dataset(47, 10, 10, n, hot=1)
    priors = PriorConfig(p_boundary=0.3, rho=1.5, max_distinct_diplotypes=81, **GIBBS_PRIORS[setting])
    state = init_state(ds, priors, seed=0)
    model = state.model
    probe = ChainState(model, None)
    conditional = exact_conditionals(model)
    partitions = [(0,), (0, 1), (0, 2), (0, 1, 2)]
    admissible = [list(x) for x in product((0, 1, 2), repeat=n) if model.log_joint((0,), x) > -math.inf]
    assert len(admissible) == {"cap-binds": 20, "cap-free": 27, "p1-zero": 8}[setting]

    # (a) every row, built from every state
    for starts in partitions:
        for labels in admissible:
            state.assign(starts, labels)
            for i in range(n):
                state.label_rows.build(state, i, 0.0)
                assert_row_is(state.label_rows, i, conditional(starts, labels, i))

    # and every row that a sweep below builds
    def checked_build(rows, st, i, r, _build=mcmc.LabelRows.build):
        lab = _build(rows, st, i, r)
        assert_row_is(rows, i, conditional(st.bounds[:-1], st.labels, i))
        return lab

    monkeypatch.setattr(mcmc.LabelRows, "build", checked_build)

    log_joint = {(s, tuple(x)): model.log_joint(s, x) for s in partitions for x in admissible}

    def sweep_along(starts, labels, uniforms, path):
        state.rng = StubRng(uniforms)
        changed = gibbs_membership_sweep(state)
        assert state.labels == path and state.bounds[:-1] == list(starts)
        assert changed == sum(x != y for x, y in zip(labels, path))
        assert_key_follows_labels(state)
        assert state.running_log_joint == pytest.approx(log_joint[starts, tuple(path)], rel=1e-12)

    # (b) from all-stale rows, and (c) from the rows' probabilities
    paths = {}
    for starts in partitions:
        logw = np.array([log_joint[starts, tuple(x)] for x in admissible])
        pi = np.exp(logw - logw.max())
        pi /= pi.sum()
        P = np.zeros((len(admissible), len(admissible)))
        for k, labels in enumerate(admissible):
            paths[starts, tuple(labels)] = label_paths(probe, conditional, starts, labels)
            for path, uniforms, p in paths[starts, tuple(labels)]:
                state.assign(starts, labels)
                sweep_along(starts, labels, uniforms, path)
                P[k, admissible.index(path)] += p
        assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(pi @ P - pi) <= 1e-9 * pi)

    # (b) from rows cached by a sweep that keeps every label and an accepted
    # block move that leaves some rows valid
    moves = {}
    for before in partitions:
        state.assign(before, [0] * n)
        for kind in ("split", "merge", "shift"):
            for choices in product(range(2), repeat=2):
                state.rng = StubRng(choices=choices)
                prop = propose_block_move(state, kind)
                if prop is not None and (prop.added[0][0] > 0 or prop.added[-1][1] < n):
                    after = tuple(rebuilt_starts(before, prop))
                    moves.setdefault((before, after), (kind, choices))
    assert len(moves) == 4
    cached = 0
    for (before, after), (kind, choices) in moves.items():
        for labels in admissible:
            keep = midpoints([conditional(before, labels, i) for i in range(n)], labels)
            for path, uniforms, _ in paths[after, tuple(labels)]:
                state.assign(before, labels)
                sweep_along(before, labels, keep, labels)
                state.rng = StubRng(choices=choices)
                assert accept(state, propose_block_move(state, kind))
                assert tuple(state.bounds[:-1]) == after
                cached += int((~state.label_rows.stale).sum())
                sweep_along(after, labels, uniforms, path)
    assert cached > 0


# -- the chain's draw source -----------------------------------------------------------

# bounds for integers(k): 1 reads nothing; just above 2^31 about half the
# 32-bit draws are rejected; 2^32 takes a whole half; above it the draw is
# the 64-bit Lemire over whole words, up to numpy's int64 limit of 2^63
DRAW_BOUNDS = (1, 2, 3, 57, 400, 2**31 + 1, 2**31 + 12345, 2**32 - 1, 2**32,
               2**32 + 1, 3 * 2**40 + 7, 2**62 + 1, 2**63)


def same_draw(want, got):
    if isinstance(want, np.ndarray):
        return want.dtype == got.dtype and want.tobytes() == got.tobytes()
    return want == got and type(want) is type(got)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 12345])
def test_block_draws_equal_generator_draws(seed):
    """Mixed scalar integers, scalar uniforms and uniform arrays, bit for bit."""
    want = np.random.default_rng(seed)
    got = mcmc.BlockDraws(seed)
    side = np.random.default_rng(seed + 500)
    rejected_bounds = 0
    for _ in range(6000):
        r = side.random()
        if r < 0.5:
            k = DRAW_BOUNDS[side.integers(len(DRAW_BOUNDS))] if r < 0.25 else int(side.integers(1, 500))
            rejected_bounds += k in (2**31 + 1, 2**31 + 12345)
            pair = int(want.integers(k)), got.integers(k)
        elif r < 0.97:
            pair = want.random(), got.random()
        else:
            n = int(side.integers(0, 150))  # 0 to past two blocks of words
            pair = want.random(n), got.random(n)
        assert same_draw(*pair)
    assert rejected_bounds > 100
    assert same_draw(want.random(3), got.random(3))


def test_block_draws_at_block_edges_and_bounds():
    want = np.random.default_rng(9)
    got = mcmc.BlockDraws(9)
    words = mcmc._BLOCK_WORDS
    # an array from an empty block, then one that straddles a block's end
    assert same_draw(want.random(5), got.random(5))
    for _ in range(words - 3):
        assert want.random() == got.random()
    assert same_draw(want.random(10), got.random(10))
    # a kept 32-bit half outlives uniforms, arrays and 64-bit integers
    assert int(want.integers(1000)) == got.integers(1000)
    assert same_draw(want.random(words + 1), got.random(words + 1))
    assert int(want.integers(2**40)) == got.integers(2**40)
    assert want.random() == got.random()
    assert int(want.integers(1000)) == got.integers(1000)  # the kept half
    assert int(want.integers(1)) == got.integers(1) == 0  # reads nothing
    assert int(want.integers(2**32)) == got.integers(2**32)
    assert same_draw(want.random(0), got.random(0))
    assert want.random() == got.random()
    for bad in (0, -3, 2**63 + 1):
        with pytest.raises(ValueError):
            want.integers(bad)
        with pytest.raises(ValueError):
            got.integers(bad)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 400])
def test_array_draws_rewind_over_the_words_read_ahead(n):
    """After k scalar draws, with or without a kept 32-bit half, an array
    draw leaves the PCG64 state and the kept half where numpy's own
    generator has them, whatever part of a block was read ahead."""
    for k in range(2 * mcmc._BLOCK_WORDS + 2):
        for keep_half in (False, True):
            want = np.random.default_rng(k)
            got = mcmc.BlockDraws(k)
            for _ in range(k):
                assert want.random() == got.random()
            if keep_half:
                assert int(want.integers(1000)) == got.integers(1000)
            assert same_draw(want.random(n), got.random(n))
            ref = want.bit_generator.state
            assert got._gen.bit_generator.state["state"] == ref["state"]
            assert got._half == (ref["uinteger"] if ref["has_uint32"] else -1)
            assert (got._half >= 0) == keep_half
            assert int(want.integers(1000)) == got.integers(1000)
            assert want.random() == got.random()


@pytest.mark.parametrize("sample_membership", [True, False], ids=["map", "partition"])
def test_run_chain_through_block_draws_equals_a_generator_chain(monkeypatch, sample_membership):
    # repeated columns: blocks in perfect LD, so merges and shifts are accepted
    base = random_signal_dataset(38, 40, 40, 4, hot=1)
    cols = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
    ds = make_dataset(base.cases[:, cols], base.controls[:, cols])
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=7, max_order=3)
    sched = Schedule(burnin=100, iterations=600)
    new = run_chain(ds, priors, sched, seed=17, sample_membership=sample_membership)

    def generator_state(dataset, priors, seed):
        return ChainState(JointModel(dataset, priors), np.random.default_rng(seed))

    monkeypatch.setattr(mcmc, "init_state", generator_state)
    ref = run_chain(ds, priors, sched, seed=17, sample_membership=sample_membership)
    for name in ("marginal_posterior", "epistatic_posterior", "assoc_posterior",
                 "boundary_posterior", "log_joint_trace"):
        assert same_draw(getattr(ref, name), getattr(new, name)), name
    assert new.interaction_sets == ref.interaction_sets
    assert new.acceptance == ref.acceptance and new.counters == ref.counters
    assert new.samples_used == ref.samples_used == 600
    # the chain moved: it is no test of the draws if nothing was drawn
    assert new.counters["split_proposed"] > 0
    assert new.counters["merge_accepted"] > 0 and new.counters["shift_accepted"] > 0
    if sample_membership:
        assert new.counters["swap_accepted"] > 0 and new.interaction_sets


# -- chain drivers ---------------------------------------------------------------------


def random_signal_dataset(seed, n_cases, n_controls, n_snps, hot=None):
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.2, 0.5, size=n_snps)
    draw = lambda m: (rng.random((m, n_snps)) < freq).astype(np.int8) + (
        rng.random((m, n_snps)) < freq
    ).astype(np.int8)
    cases = draw(n_cases)
    controls = draw(n_controls)
    if hot is not None:
        cases[:, hot] = (rng.random(n_cases) < 0.85).astype(np.int8) * 2
        controls[:, hot] = (rng.random(n_controls) < 0.15).astype(np.int8) * 2
    return make_dataset(cases, controls)


def test_run_chain_is_deterministic_in_the_seed():
    ds = random_signal_dataset(12, 25, 25, 5, hot=2)
    priors = default_priors(5, 50, 25, 25)
    sched = Schedule(burnin=200, iterations=800)
    a = run_chain(ds, priors, sched, seed=42)
    b = run_chain(ds, priors, sched, seed=42)
    assert np.array_equal(a.assoc_posterior, b.assoc_posterior)
    assert np.array_equal(a.boundary_posterior, b.boundary_posterior)
    assert np.array_equal(a.log_joint_trace, b.log_joint_trace)
    assert a.interaction_sets == b.interaction_sets
    assert a.acceptance == b.acceptance
    c = run_chain(ds, priors, sched, seed=43)
    assert not np.array_equal(a.log_joint_trace, c.log_joint_trace)


def test_run_chain_zero_samples_warns():
    ds = random_signal_dataset(13, 20, 20, 3)
    priors = default_priors(3, 30, 20, 20)
    out = run_chain(ds, priors, Schedule(burnin=10, iterations=0), seed=0)
    assert out.samples_used == 0
    assert "warning" not in vars(out)  # `map` warns, from the schedule
    assert not out.assoc_posterior.any()
    assert not out.boundary_posterior.any()
    assert not out.marginal_posterior.any() and not out.epistatic_posterior.any()
    assert out.interaction_sets == {}
    assert out.log_joint_trace.size == 0
    # no iterations at all: the same acceptance keys, every rate 0
    idle = run_chain(ds, priors, Schedule(burnin=0, iterations=0), seed=0)
    assert idle.samples_used == 0 and not idle.assoc_posterior.any()
    assert idle.acceptance == dict.fromkeys(out.acceptance, 0.0)
    assert set(out.acceptance) == {"split", "merge", "shift", "swap", "gibbs_change"}


def test_run_chain_acceptance_bookkeeping():
    ds = random_signal_dataset(14, 25, 25, 4)
    priors = default_priors(4, 40, 25, 25)
    out = run_chain(ds, priors, Schedule(burnin=100, iterations=400), seed=3)
    for key in ("split", "merge", "shift", "swap", "gibbs_change"):
        assert key in out.acceptance
        assert 0.0 <= out.acceptance[key] <= 1.0
    assert out.samples_used == 400
    assert out.log_joint_trace.size == 400
    assert np.isfinite(out.log_joint_trace).all()


def test_partition_only_mode_keeps_labels_off():
    ds = random_signal_dataset(15, 30, 30, 4, hot=1)
    priors = default_priors(4, 40, 30, 30)
    out = run_chain(ds, priors, Schedule(burnin=100, iterations=300), seed=4,
                    sample_membership=False)
    assert not out.assoc_posterior.any()
    assert out.boundary_posterior[0] == 1.0


def test_run_chains_single_chain_matches_run_chain():
    ds = random_signal_dataset(16, 20, 20, 4)
    priors = default_priors(4, 40, 20, 20)
    sched = Schedule(burnin=100, iterations=300)
    solo = run_chain(ds, priors, sched, seed=21)
    avg, chains = run_chains(ds, priors, sched, n_chains=1, base_seed=21)
    assert np.array_equal(avg.assoc_posterior, solo.assoc_posterior)
    assert np.array_equal(avg.boundary_posterior, solo.boundary_posterior)
    assert len(chains) == 1
    with pytest.raises(ValueError):
        run_chains(ds, priors, sched, n_chains=0, base_seed=0)


def test_independent_chains_agree_on_an_epistatic_pair():
    # two unlinked risk SNPs under a both-carrier interaction; every chain
    # should land on the same posterior, so cross-chain correlation is high
    from beamscan.simulate import DiseaseModel, FounderBlock, FounderPool, simulate_dataset

    rng = np.random.default_rng(41)
    mafs = rng.uniform(0.1, 0.5, 32)
    mafs[9] = mafs[22] = 0.3
    pool = FounderPool(tuple(
        FounderBlock(haplotypes=np.array([[0], [1]], np.int8),
                     frequencies=np.array([1.0 - f, f]))
        for f in mafs
    ))
    model = DiseaseModel.from_effect(2, 1.5, 0.3, (9, 22))
    ds = simulate_dataset(pool, model, 200, 200, seed=6).dataset
    priors = default_priors(ds.n_snps, ds.region_length, 200, 200)
    sched = Schedule(burnin=500, iterations=2000)
    avg, chains = run_chains(ds, priors, sched, n_chains=4, base_seed=200)
    pairwise = np.corrcoef([c.assoc_posterior for c in chains])[np.triu_indices(4, 1)]
    assert pairwise.min() >= 0.9
    assert avg.assoc_posterior[9] > 0.9
    assert avg.assoc_posterior[22] > 0.9


def test_run_chains_thread_count_does_not_change_results():
    ds = random_signal_dataset(17, 20, 20, 4, hot=0)
    priors = default_priors(4, 40, 20, 20)
    sched = Schedule(burnin=100, iterations=300)
    serial, _ = run_chains(ds, priors, sched, n_chains=2, base_seed=5, threads=1)
    pooled, _ = run_chains(ds, priors, sched, n_chains=2, base_seed=5, threads=2)
    assert np.array_equal(serial.assoc_posterior, pooled.assoc_posterior)
    assert np.array_equal(serial.boundary_posterior, pooled.boundary_posterior)
    assert serial.interaction_sets == pooled.interaction_sets


def test_cached_log_joint_stays_coherent_during_sampling():
    ds = random_signal_dataset(18, 20, 20, 5, hot=3)
    priors = default_priors(5, 50, 20, 20)
    state = init_state(ds, priors, seed=30)
    for t in range(300):
        prop = propose_block_move(state, ("split", "merge", "shift")[t % 3])
        if prop is not None:
            accept(state, prop)
        gibbs_membership_sweep(state)
        swap_membership_move(state)
        if t % 10 == 0:
            direct = state.model.log_joint(state.bounds[:-1], state.labels)
            assert state.log_joint() == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("sample_membership", [True, False])
def test_running_log_joint_matches_a_full_recompute_in_run_chain(monkeypatch, sample_membership):
    ds = random_signal_dataset(37, 40, 40, 12, hot=4)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=7, max_order=3)
    running = ChainState.log_joint
    calls = []  # run_chain reads the log joint once per retained iteration, after its moves
    checked = []

    def checked_log_joint(state):
        value = running(state)
        calls.append(None)
        if len(calls) % 7 == 0:
            full = state.model.log_joint(state.bounds[:-1], state.labels)
            assert value == pytest.approx(full, rel=1e-9, abs=0)
            checked.append(len(calls))
        return value

    monkeypatch.setattr(ChainState, "log_joint", checked_log_joint)
    out = run_chain(ds, priors, Schedule(burnin=0, iterations=1500), seed=15,
                    sample_membership=sample_membership)
    assert len(checked) >= 1500 // 7
    assert out.acceptance["split"] > 0 and out.acceptance["merge"] > 0
    assert out.acceptance["shift"] > 0
    if sample_membership:
        assert out.acceptance["swap"] > 0 and out.acceptance["gibbs_change"] > 0
        assert out.epistatic_posterior.max() > 0  # group-2 entries and exits happened


@pytest.mark.parametrize("sample_membership", [True, False])
def test_boundary_posterior_equals_a_per_sample_tally(monkeypatch, sample_membership):
    # a weak-data panel, so the partition changes often
    ds = random_signal_dataset(41, 10, 10, 12, hot=4)
    priors = PriorConfig(p_boundary=0.5, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=9, max_order=3)
    schedule = Schedule(burnin=50, iterations=900)
    running = ChainState.log_joint
    tally = np.zeros(ds.n_snps)
    sampled = []

    def tallying_log_joint(state):
        # run_chain reads the log joint once per retained iteration, after its
        # moves, and records every retained iteration as a sample
        tally[state.bounds[:-1]] += 1
        sampled.append(tuple(state.bounds[:-1]))
        return running(state)

    monkeypatch.setattr(ChainState, "log_joint", tallying_log_joint)
    out = run_chain(ds, priors, schedule, seed=8, sample_membership=sample_membership)
    assert out.samples_used == len(sampled) == 900
    assert len(set(sampled)) > 10  # the tally spans many partition changes
    np.testing.assert_array_equal(out.boundary_posterior, tally / len(sampled))


def test_label_posteriors_equal_a_per_sample_tally(monkeypatch):
    ds = random_signal_dataset(41, 10, 10, 12, hot=4)
    priors = PriorConfig(p_boundary=0.5, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=9, max_order=3)
    schedule = Schedule(burnin=50, iterations=900)
    running = ChainState.log_joint
    tally = np.zeros((2, ds.n_snps))
    sampled = []

    def tallying_log_joint(state):
        labels = np.asarray(state.labels)
        tally[0] += labels == 1
        tally[1] += labels == 2
        sampled.append(tuple(state.labels))
        return running(state)

    monkeypatch.setattr(ChainState, "log_joint", tallying_log_joint)
    out = run_chain(ds, priors, schedule, seed=8)
    assert out.samples_used == len(sampled) == 900
    assert len(set(sampled)) > 10  # the tally spans many label changes
    np.testing.assert_array_equal(out.marginal_posterior, tally[0] / len(sampled))
    np.testing.assert_array_equal(out.epistatic_posterior, tally[1] / len(sampled))


def test_member_lists_follow_every_relabel(monkeypatch):
    ds = random_signal_dataset(31, 40, 40, 12, hot=5)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=7, max_order=3)
    relabel = ChainState.relabel
    calls = []

    def checked_relabel(state, i, lab, delta):
        stale = relabel(state, i, lab, delta)
        labels = np.asarray(state.labels)
        assert state.members == [np.flatnonzero(labels == v).tolist() for v in (0, 1, 2)]
        assert state.s2 is state.members[2]
        calls.append(i)
        return stale

    monkeypatch.setattr(ChainState, "relabel", checked_relabel)
    out = run_chain(ds, priors, Schedule(burnin=0, iterations=1500), seed=3)
    assert out.acceptance["swap"] > 0 and out.acceptance["gibbs_change"] > 0
    assert len(calls) > 300


def test_chain_matches_enumeration_on_four_snps():
    ds = random_signal_dataset(19, 40, 40, 4, hot=1)
    priors = default_priors(4, 40, 40, 40)
    out = run_chain(ds, priors, Schedule(burnin=2000, iterations=20000), seed=9)
    exact = enumerate_posterior(ds, priors)
    assert np.max(np.abs(out.assoc_posterior - exact.assoc_posterior)) < 0.05
    assert np.max(np.abs(out.boundary_posterior - exact.boundary_posterior)) < 0.05


def test_single_snp_chain_matches_enumeration():
    ds = random_signal_dataset(20, 30, 30, 1, hot=0)
    priors = default_priors(1, 1, 30, 30)
    out = run_chain(ds, priors, Schedule(burnin=500, iterations=4000), seed=2)
    exact = enumerate_posterior(ds, priors)
    assert exact.assoc_posterior[0] > 0.9  # the signal is unmistakable
    assert abs(out.assoc_posterior[0] - exact.assoc_posterior[0]) < 0.03


def test_null_data_association_stays_low():
    ds = random_signal_dataset(21, 200, 200, 12)
    priors = default_priors(12, 120, 200, 200)
    out = run_chain(ds, priors, Schedule(burnin=1000, iterations=4000), seed=7)
    assert float(out.assoc_posterior.mean()) < 0.5 * (priors.p1 + priors.p2)
    assert float(out.assoc_posterior.max()) < 0.2


# -- incremental Gibbs sweep against the per-SNP reference ----------------------------


def reference_gibbs_sweep(state):
    """The per-SNP sweep: every label's full conditional rebuilt on every sweep."""
    model = state.model
    rng = state.rng
    labels = state.labels
    log_label = model.log_label
    max_order = model.max_order
    changed = 0
    for i in range(model.n_snps):
        a, b = state.block_of(i)
        cur = labels[i]
        if cur == 2:
            s2_without = tuple(v for v in state.s2 if v != i)
            s2_with = tuple(state.s2)
        else:
            s2_without = tuple(state.s2)
            s2_with = None
        allow2 = cur == 2 or len(state.s2) < max_order
        weights = []
        labs = []
        g2_without = model.group2_term(s2_without)
        for lab in (0, 1, 2):
            if lab == 2 and not allow2:
                continue
            if lab == 2:
                if s2_with is None:
                    tmp = list(s2_without)
                    insort(tmp, i)
                    s2_with = tuple(tmp)
                g2 = model.group2_term(s2_with)
            else:
                g2 = g2_without
            mask = mask_from_labels(labels[:i] + [lab] + labels[i + 1 :], a, b)
            w = model.block_term(a, b, mask) + g2 + log_label[lab]
            weights.append(w)
            labs.append(lab)
        top = max(weights)
        probs = [math.exp(w - top) for w in weights]
        total = sum(probs)
        u = rng.random() * total
        acc = 0.0
        pick = labs[-1]
        for lab, p in zip(labs, probs):
            acc += p
            if u < acc:
                pick = lab
                break
        state.bump("gibbs_draws")
        if pick != cur:
            changed += 1
            state.bump("gibbs_changes")
            labels[i] = pick
            state.label_key = mask_from_labels(labels, 0, model.n_snps)
            state.members[cur].remove(i)
            insort(state.members[pick], i)
            state.running_log_joint += weights[labs.index(pick)] - weights[labs.index(cur)]
            state.version += 1
    return changed


def assert_same_state(ref, new):
    assert new.labels == ref.labels
    assert new.bounds[:-1] == ref.bounds[:-1]
    assert new.label_key == ref.label_key
    assert new.members == ref.members
    # both sides also agree with the labels themselves
    labels = np.asarray(new.labels)
    assert new.members == [np.flatnonzero(labels == v).tolist() for v in (0, 1, 2)]
    assert_key_follows_labels(new)
    assert [len(m) for m in new.members] == [len(m) for m in ref.members]
    assert new.counters == ref.counters
    assert list(new.counters) == list(ref.counters)


def random_force(rng, n, max_order):
    """A random admissible (starts, labels) pair with at most max_order group-2 SNPs."""
    starts = [0] + sorted(int(v) for v in rng.choice(np.arange(1, n), rng.integers(0, n), replace=False))
    labels = [int(v) for v in rng.choice(3, size=n, p=(0.5, 0.3, 0.2))]
    for i in [i for i, v in enumerate(labels) if v == 2][max_order:]:
        labels[i] = 1
    return starts, labels


def run_pair(ds, priors, seed, steps, moves=True, force_every=0, init=None):
    """Drive a reference and an incremental state through the same kernels.

    Each step applies one block move and one swap pass (with ``moves``), one
    sweep, and every ``force_every`` steps a random ``force_state`` rewrite.
    Returns the two states and the number of labels changed overall.
    """
    ref = init_state(ds, priors, seed)
    new = init_state(ds, priors, seed)
    if init is not None:
        force_state(ref, *init)
        force_state(new, *init)
    side = np.random.default_rng(seed + 1000)
    n = ds.n_snps
    total_changed = 0
    for t in range(steps):
        if force_every and t % force_every == force_every - 1 and n > 1:
            starts, labels = random_force(side, n, ref.model.max_order)
            force_state(ref, starts, labels)
            force_state(new, starts, labels)
        if moves:
            kind = mcmc._choose_kind(ref.rng)
            assert mcmc._choose_kind(new.rng) == kind
            props = propose_block_move(ref, kind), propose_block_move(new, kind)
            assert (props[0] is None) == (props[1] is None)
            if props[0] is not None:
                ok = accept(ref, props[0])
                assert accept(new, props[1]) == ok
                for state in (ref, new):
                    state.bump(f"{kind}_accepted", int(ok))
        expected = reference_gibbs_sweep(ref)
        assert gibbs_membership_sweep(new) == expected
        total_changed += expected
        assert_same_state(ref, new)
        if moves:
            assert swap_membership_move(ref) == swap_membership_move(new)
            assert_same_state(ref, new)
    assert new.rng.random() == ref.rng.random()
    return ref, new, total_changed


def test_incremental_sweep_matches_reference_with_moves_and_swaps():
    ds = random_signal_dataset(31, 40, 40, 12, hot=5)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=7, max_order=3)
    # coverage guards are taken over all seeds: a single chain this short
    # may accept no split or merge at all
    accepted = {"block": 0, "swap": 0}
    wide = False
    for seed in (3, 4, 5, 6, 7):
        ref, _, changed = run_pair(ds, priors, seed=seed, steps=400)
        assert changed > 100
        assert ref.counters["gibbs_draws"] == 400 * 12
        accepted["block"] += ref.counters.get("split_accepted", 0)
        accepted["block"] += ref.counters.get("merge_accepted", 0)
        accepted["swap"] += ref.counters.get("swap_accepted", 0)
        wide = wide or len(ref.bounds[:-1]) < ds.n_snps  # some block is wider than one SNP
    assert accepted["block"] > 0
    assert accepted["swap"] > 0
    assert wide


def test_incremental_sweep_matches_reference_through_group2_entries_and_exits():
    # empty data: labels follow the prior, so group 2 is entered and left often
    priors = PriorConfig(p_boundary=0.3, p1=0.25, p2=0.35, rho=1.5,
                         max_distinct_diplotypes=9, max_order=9)
    seen = {"enter": 0, "exit": 0}
    ref = init_state(empty_dataset(8), priors, 5)
    new = init_state(empty_dataset(8), priors, 5)
    force_state(ref, (0, 3, 5), (0,) * 8)
    force_state(new, (0, 3, 5), (0,) * 8)
    for _ in range(300):
        before = set(ref.s2)
        reference_gibbs_sweep(ref)
        gibbs_membership_sweep(new)
        assert_same_state(ref, new)
        seen["enter"] += len(set(ref.s2) - before)
        seen["exit"] += len(before - set(ref.s2))
    assert new.rng.random() == ref.rng.random()
    assert seen["enter"] > 50 and seen["exit"] > 50


def test_incremental_sweep_matches_reference_when_the_order_cap_binds():
    priors = PriorConfig(p_boundary=0.2, p1=0.1, p2=0.6, rho=1.5,
                         max_distinct_diplotypes=9, max_order=2)
    ref, _, changed = run_pair(empty_dataset(7), priors, seed=6, steps=300)
    assert len(ref.s2) <= 2 and changed > 100
    ds = random_signal_dataset(32, 30, 30, 6, hot=2)
    run_pair(ds, priors, seed=7, steps=300, force_every=7)


@pytest.mark.parametrize("p1, p2", [(0.0, 0.3), (0.3, 0.0)])
def test_incremental_sweep_matches_reference_with_impossible_labels(p1, p2):
    priors = PriorConfig(p_boundary=0.25, p1=p1, p2=p2, rho=1.5,
                         max_distinct_diplotypes=9, max_order=3)
    ds = random_signal_dataset(33, 25, 25, 6, hot=1)
    run_pair(ds, priors, seed=8, steps=200, force_every=9)
    run_pair(empty_dataset(5), priors, seed=9, steps=200, force_every=4)


def test_incremental_sweep_matches_reference_after_force_state_rewrites():
    ds = random_signal_dataset(34, 30, 30, 10, hot=4)
    priors = default_priors(10, 100, 30, 30, p1=0.15, p2=0.15, max_order=3)
    run_pair(ds, priors, seed=10, steps=300, force_every=3)
    run_pair(ds, priors, seed=11, steps=150, moves=False, force_every=2)


def test_incremental_sweep_matches_reference_on_a_block_wider_than_int64():
    # 45 SNPs in one block: the bits of SNPs 32 on lie past int64
    n = 45
    priors = PriorConfig(p_boundary=0.05, p1=0.3, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=9, max_order=4)
    labels = [0] * (n - 1) + [1]
    ref, _, changed = run_pair(empty_dataset(n), priors, seed=12, steps=60,
                               moves=False, init=((0,), labels))
    assert ref.bounds[:-1] == [0] and ref.label_key > 2**63 and changed > 100


def test_run_chain_is_unchanged_by_the_incremental_sweep(monkeypatch):
    ds = random_signal_dataset(35, 40, 40, 8, hot=3)
    priors = default_priors(8, 80, 40, 40, p1=0.15, p2=0.15)
    sched = Schedule(burnin=100, iterations=400)
    new = run_chain(ds, priors, sched, seed=13)
    monkeypatch.setattr(mcmc, "gibbs_membership_sweep", reference_gibbs_sweep)
    ref = run_chain(ds, priors, sched, seed=13)
    for field in ("marginal_posterior", "epistatic_posterior", "assoc_posterior",
                  "boundary_posterior", "log_joint_trace"):
        assert np.array_equal(getattr(new, field), getattr(ref, field)), field
    assert new.interaction_sets == ref.interaction_sets
    assert new.acceptance == ref.acceptance
    assert new.samples_used == ref.samples_used
    assert ref.acceptance["gibbs_change"] > 0


# -- the swap pass against the per-step reference --------------------------------------


def reference_swap_move(state):
    """The swap pass step by step: the label class by a loop over the classes,
    blocks by ``block_of``, both group-2 terms and the counters on every step."""
    model = state.model
    rng = state.rng
    counts = [len(m) for m in state.members]
    classes = [(a, b, counts[a] * counts[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    n_pairs = sum(w for _, _, w in classes)
    if n_pairs == 0:
        return 0
    members = [list(m) for m in state.members]
    accepted = 0
    for _ in range(counts[1] + counts[2]):
        r = int(rng.integers(n_pairs))
        for li, lj, w in classes:
            if r < w:
                break
            r -= w
        ki, kj = divmod(r, counts[lj])
        i = members[li][ki]
        j = members[lj][kj]
        state.bump("swap_proposed")
        ai, ei = state.block_of(i)
        aj, ej = state.block_of(j)
        swapped = list(state.labels)
        swapped[i], swapped[j] = lj, li
        old_terms = model.block_term(ai, ei, mask_from_labels(state.labels, ai, ei))
        if aj != ai:
            old_terms += model.block_term(aj, ej, mask_from_labels(state.labels, aj, ej))
            new_terms = model.block_term(ai, ei, mask_from_labels(swapped, ai, ei)) + model.block_term(
                aj, ej, mask_from_labels(swapped, aj, ej)
            )
        else:
            new_terms = model.block_term(ai, ei, mask_from_labels(swapped, ai, ei))
        if lj == 2:
            tmp = [v for v in state.s2 if v != j]
            insort(tmp, i)
            delta_g2 = model.group2_term(tuple(tmp)) - model.group2_term(tuple(state.s2))
        else:
            delta_g2 = 0.0
        log_ratio = new_terms - old_terms + delta_g2
        u = rng.random()
        if log_ratio >= 0.0 or u < math.exp(log_ratio):
            accepted += 1
            state.bump("swap_accepted")
            state.relabel(i, lj, log_ratio)
            state.relabel(j, li, 0.0)
            members[li][ki] = j
            members[lj][kj] = i
    return accepted


def captured_run_chain(monkeypatch, *args, **kwargs):
    """``run_chain``'s summary and the final state of its chain."""
    states = []

    def capturing_init_state(dataset, priors, seed, _init=mcmc.init_state):
        states.append(_init(dataset, priors, seed))
        return states[-1]

    with monkeypatch.context() as patch:
        patch.setattr(mcmc, "init_state", capturing_init_state)
        summary = run_chain(*args, **kwargs)
    return summary, states[0]


def memos(model):
    return model.engine._marg, model.engine._distinct, model._block_terms


def test_run_chain_is_unchanged_by_the_swap_pass(monkeypatch, capsys):
    # weak data, so labels and blocks keep moving
    ds = random_signal_dataset(41, 10, 10, 12, hot=4)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.3, rho=1.5,
                         max_distinct_diplotypes=9, max_order=3)
    sched = Schedule(burnin=100, iterations=700)
    new, new_state = captured_run_chain(monkeypatch, ds, priors, sched, seed=19)
    new_log = capsys.readouterr().err
    monkeypatch.setattr(mcmc, "swap_membership_move", reference_swap_move)
    ref, ref_state = captured_run_chain(monkeypatch, ds, priors, sched, seed=19)
    assert capsys.readouterr().err == new_log  # progress lines, counters included
    for name in ("marginal_posterior", "epistatic_posterior", "assoc_posterior",
                 "boundary_posterior", "log_joint_trace"):
        assert same_draw(getattr(ref, name), getattr(new, name)), name
    assert new.interaction_sets == ref.interaction_sets
    assert new.acceptance == ref.acceptance and new.counters == ref.counters
    assert new.cache["marginals"] == ref.cache["marginals"]
    assert new.cache["block_terms"] == ref.cache["block_terms"]
    for got, want in zip(memos(new_state.model), memos(ref_state.model)):
        assert got == want
    assert new_state.labels == ref_state.labels and new_state.bounds[:-1] == ref_state.bounds[:-1]
    # many swaps were accepted, group-2 sets changed, and blocks merged and split
    assert new.counters["swap_accepted"] > 300 and len(new.interaction_sets) > 10
    assert new.counters["merge_accepted"] > 0 and new.counters["split_accepted"] > 0


def test_swap_pass_equals_the_reference_step_for_step():
    ds = random_signal_dataset(31, 40, 40, 12, hot=5)
    priors = PriorConfig(p_boundary=0.3, p1=0.25, p2=0.25, rho=1.5,
                         max_distinct_diplotypes=7, max_order=4)
    side = np.random.default_rng(3)
    ref = init_state(ds, priors, seed=21)
    new = init_state(ds, priors, seed=21)
    accepted = 0
    for _ in range(300):
        starts, labels = random_force(side, ds.n_snps, 4)
        force_state(ref, starts, labels)
        force_state(new, starts, labels)
        got = swap_membership_move(new)
        assert got == reference_swap_move(ref)
        accepted += got
        assert_same_state(ref, new)
        assert new.running_log_joint == ref.running_log_joint
    assert new.rng.random() == ref.rng.random()
    assert accepted > 50
    for got, want in zip(memos(new.model), memos(ref.model)):
        assert got == want


# -- singleton marginals evaluated ahead ------------------------------------------------


def scalar_singletons(monkeypatch):
    """Turn the singleton pass off, so every marginal is evaluated on its own."""
    monkeypatch.setattr(LikelihoodEngine, "prefetch_singletons", lambda engine, who: None)


@pytest.mark.parametrize("sample_membership, iterations", [(False, 300), (True, 300), (True, 0)],
                         ids=["partition", "map", "map-no-iterations"])
def test_singleton_pass_leaves_the_memos_as_the_scalar_path(monkeypatch, sample_membership,
                                                            iterations):
    ds = random_signal_dataset(43, 60, 60, 14, hot=6)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=9, max_order=3)
    sched = Schedule(burnin=iterations // 5, iterations=iterations)
    new, new_state = captured_run_chain(monkeypatch, ds, priors, sched, seed=5,
                                        sample_membership=sample_membership)
    with monkeypatch.context() as patch:
        scalar_singletons(patch)
        ref, ref_state = captured_run_chain(monkeypatch, ds, priors, sched, seed=5,
                                            sample_membership=sample_membership)
    for got, want in zip(memos(new_state.model), memos(ref_state.model)):
        assert got == want
    assert new.cache["marginals"] == ref.cache["marginals"]
    assert same_draw(new.log_joint_trace, ref.log_joint_trace)
    assert new.counters == ref.counters


def test_singleton_pass_leaves_the_memos_as_the_scalar_path_when_init_fails(monkeypatch):
    # SNP 2 shows 3 diplotypes, over the cap of 2: the cap check stops there
    ds = make_dataset([[0, 1, 0, 2], [1, 1, 1, 2], [0, 1, 2, 2]], [[1, 1, 0, 2]])
    priors = flat_priors(max_distinct_diplotypes=2, max_order=1)
    new = JointModel(ds, priors)
    with pytest.raises(ConstraintError):
        ChainState(new, np.random.default_rng(0))
    with monkeypatch.context() as patch:
        scalar_singletons(patch)
        ref = JointModel(ds, priors)
        with pytest.raises(ConstraintError):
            ChainState(ref, np.random.default_rng(0))
    assert set(ref.engine._marg) == {((0,), "both"), ((1,), "both"), ((2,), "both")}
    # the pass may have memoized combined-cohort singletons that the cap check
    # never reached; nothing reads the memos after a failed start
    for got, want in zip(memos(new), memos(ref)):
        assert {key: got[key] for key in want} == want
    extra = new.engine._marg.keys() - ref.engine._marg.keys()
    assert extra <= {((i,), "both") for i in range(ds.n_snps)}


def assert_valid_rows_are_fresh(state):
    """Every label row not marked stale equals a row rebuilt from the state now,
    and the label key is the one the labels encode."""
    assert_key_follows_labels(state)
    rows = state.label_rows
    fresh = mcmc.LabelRows(state.model.n_snps)
    for i in range(state.model.n_snps):
        fresh.build(state, i, 0.0)
    valid = ~rows.stale
    for name in ("acc0", "acc1", "total", "allow2", "label"):
        assert np.array_equal(getattr(rows, name)[valid], getattr(fresh, name)[valid]), name
    return int(valid.sum())


def test_every_kernel_marks_the_rows_it_invalidates():
    ds = random_signal_dataset(36, 30, 30, 10, hot=4)
    priors = PriorConfig(p_boundary=0.3, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=7, max_order=3)
    state = init_state(ds, priors, seed=14)
    checked = 0
    for _ in range(600):
        prop = propose_block_move(state, mcmc._choose_kind(state.rng))
        if prop is not None and accept(state, prop):
            state.bump("moves_accepted")
        checked += assert_valid_rows_are_fresh(state)
        gibbs_membership_sweep(state)
        checked += assert_valid_rows_are_fresh(state)
        swap_membership_move(state)
        checked += assert_valid_rows_are_fresh(state)
    assert state.counters["moves_accepted"] > 5
    assert state.counters.get("gibbs_changes", 0) > 50
    assert state.counters.get("swap_accepted", 0) > 10
    assert checked > 600 * 10


# -- block moves with O(1) work per proposal -------------------------------------------


def rebuilt_starts(starts, proposal):
    """The start list after a move, rebuilt whole: the starts of the removed
    blocks out, those of the added blocks in."""
    out = set(starts) - {a for a, _ in proposal.removed}
    return sorted(out | {a for a, _ in proposal.added})


def test_label_key_follows_labels_through_every_writer():
    # 40 SNPs, so a block's mask and the key itself pass int64
    n = 40
    state = init_state(empty_dataset(n), flat_priors(), seed=5)
    side = np.random.default_rng(7)
    moved = 0
    version = state.version

    def assert_written(wrote=True):
        """The key follows the labels, the boundary list is 0, the block
        starts in order and n, and ``version`` advanced if and only if the
        state was written."""
        nonlocal version
        assert_key_follows_labels(state)
        bounds = state.bounds
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert (state.version > version) == bool(wrote)
        version = state.version

    for _ in range(200):
        force_state(state, *random_force(side, n, n))
        assert_written()
        state.relabel(int(side.integers(n)), int(side.integers(3)), 0.0)
        assert_written()
        prop = propose_block_move(state, mcmc._choose_kind(state.rng))
        if prop is not None:
            apply_move(state, prop)
            moved += 1
            assert_written()
        assert_written(gibbs_membership_sweep(state))
        assert_written(swap_membership_move(state))
    assert moved > 100
    assert state.counters["gibbs_changes"] > 100 and state.counters["swap_accepted"] > 100


def test_repartition_edits_starts_as_a_full_rebuild_would():
    # weak data and a flat boundary prior, so that many moves of each kind are
    # accepted; label sweeps and swaps in between make the masks non-zero
    ds = random_signal_dataset(41, 12, 12, 14, hot=6)
    priors = PriorConfig(p_boundary=0.5, p1=0.2, p2=0.2, rho=1.5,
                         max_distinct_diplotypes=20, max_order=3)
    state = init_state(ds, priors, seed=9)
    accepted = {"split": 0, "merge": 0, "shift": 0}
    labelled = 0  # accepted moves whose added blocks carry a label
    for t in range(3000):
        kind = mcmc._choose_kind(state.rng)
        prop = propose_block_move(state, kind)
        if prop is not None:
            want = rebuilt_starts(state.bounds[:-1], prop)
            before = state.bounds[:-1]
            if accept(state, prop):
                accepted[kind] += 1
                assert state.bounds[:-1] == want
                labelled += any(state.labels[prop.added[0][0] : prop.added[-1][1]])
            else:
                assert state.bounds[:-1] == before
        assert_key_follows_labels(state)
        gibbs_membership_sweep(state)
        swap_membership_move(state)
        if t % 10 == 0:
            full = state.model.log_joint(state.bounds[:-1], state.labels)
            assert state.log_joint() == pytest.approx(full, rel=1e-9)
    assert min(accepted.values()) > 20
    assert labelled > 50

