"""Metropolis-within-Gibbs sampler over block partitions and membership labels.

Each iteration applies, in order: one block move (split / merge / shift drawn
with probabilities 0.1 / 0.1 / 0.8, Metropolis-Hastings accepted), one Gibbs
sweep over the membership labels in fixed index order, and one swap pass. The
swap pass makes k Metropolis steps, k the number of associated SNPs; each
step offers to exchange the labels of a pair drawn uniformly from all pairs
whose labels differ. Swaps keep the label counts, so that pair set keeps its
size and the proposal is symmetric; each step, and so the pass, leaves the
target invariant. Chains are deterministic given (dataset, priors, schedule,
seed); chain ``c`` of a multi-chain run uses ``base_seed + c``.

The Gibbs sweep keeps each SNP's conditional label probabilities across
sweeps and rebuilds one only after its block, the block's label mask or the
group-2 set changed. A sweep therefore costs a few array operations over the
panel plus one full conditional per SNP whose inputs changed, rather than n
of them; a change of the group-2 set, which every conditional reads, still
costs one full set. The sweep draws and decides exactly as the per-SNP form
would, so outputs do not depend on the caching.

:class:`ChainState` is the only writer of the labels, masks, label member
lists, partition and running log joint. ``assign`` sets a whole state and
recomputes everything derived from it. ``relabel`` and ``repartition`` mark
stale the label rows each change invalidates, and add to the log joint the
change that the calling kernel already computed: the block terms and
boundary prior of an accepted block move, the log ratio of an accepted swap,
the weight difference of a Gibbs label change. The per-iteration log-joint
trace therefore reads one float; ``JointModel.log_joint`` recomputes the
same value from scratch, up to rounding.

``relabel`` also keeps the sorted SNP list of each label (the group-2 set is
the label-2 list). A swap pass starts from a copy of those lists. Each of its
steps makes the same two draws whatever happens, so the pass binds what it
reads once, finds both blocks by bisection, evaluates the current group-2
term only when a step first needs it and again after an accepted swap
changed the set, and bumps its counters once.

``run_chain`` tallies samples in runs, as it does for the partition: it
holds the label-1 and label-2 lists of the last change with the number of
samples taken of them, and adds that run to the label tallies and the
interaction-set counts when either list differs from the held one. Counts
are integers, so the float sums equal a per-sample tally exactly. When it
will sweep labels, it first has the engine memoize every SNP's case/control
singleton marginals in one array pass (``LikelihoodEngine.prefetch_singletons``),
as ``ChainState`` does for the combined cohort before its cap check.

Block k's ternary label mask is ``block_masks[k]``, aligned with ``starts``.
A block proposal names the blocks it removes and adds and the index of the
first removed one, so drawing one costs the same at any partition size;
``accept`` cuts the added blocks' masks from the removed blocks' slice by
ternary arithmetic, and ``repartition`` replaces that slice of both lists.

A chain draws from :class:`BlockDraws`, which reads the seeded generator's
raw 64-bit words in blocks and returns exactly the numbers that
``default_rng(seed)`` would, at a quarter to a half of a ``Generator`` call's
cost; a block move makes three or four scalar draws, so at the Generator's
cost they were a large share of it. A sweep's array draw steps the
generator back over the block's unread words and takes the whole array from
the generator itself. The kernels only call ``integers(k)`` and
``random(size=None)``, so a ``ChainState`` runs the same with a plain
``Generator`` or a scripted stand-in.

``run_chain`` reports each chain's ``counters`` (block no-ops, proposals and
acceptances per move kind, Gibbs draws and label changes, swap proposals and
acceptances) with the acceptance rates derived from them, and ``kernel_s``,
the seconds spent in block moves, Gibbs sweeps and swap passes.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.random import default_rng  # at import: numpy 2 loads numpy.random on first use

from .dataio import GenotypeDataset
from .likelihood import WHO_BOTH, WHO_CASES
from .model import (
    ConstraintError,
    JointModel,
    PriorConfig,
    mask_from_labels,
)

_BLOCK_WORDS = 64  # the raw words a draw source reads at a time
_REWIND = 1 << 128  # PCG64's period: advancing by _REWIND - k steps the state back k words
_TWO_M53 = 2.0**-53
_LOW32 = 0xFFFFFFFF
_LOW64 = 0xFFFFFFFFFFFFFFFF


class BlockDraws:
    """The draws of ``numpy.random.default_rng(seed)``, bit for bit, from its
    raw 64-bit words read ``_BLOCK_WORDS`` at a time.

    A scalar ``Generator`` draw costs 0.5-2 us, mostly call overhead; here it
    is a little integer arithmetic on the next word of a list. numpy's own
    algorithms are reproduced exactly:

    - ``random()`` is ``(word >> 11) * 2**-53``;
    - ``integers(k)`` for 2 <= k <= 2**32 is Lemire's multiply-and-reject
      (Lemire 2019) over 32-bit halves: a fresh word gives its low half first
      and keeps its high half for the next 32-bit request; ``integers(1)``
      reads nothing;
    - ``integers(k)`` for k > 2**32 is the 64-bit Lemire over whole words,
      which leaves a kept half alone.

    ``random(n)`` is the generator's own. It first steps the PCG64 state back
    over the block's unread words, an exact rewind because the state's period
    is 2**128 (O'Neill 2014), so the array starts at the word that the next
    scalar draw would have read, and the next scalar draw reads a fresh block.
    A kept half is no word of the state and outlives the array, as in numpy.
    """

    def __init__(self, seed: int):
        self._gen = default_rng(seed)
        self._raw = self._gen.bit_generator.random_raw
        self._advance = self._gen.bit_generator.advance
        self._words = iter(())  # over the block's words as Python ints
        self._next = self._words.__next__
        self._half = -1  # the kept high half of the last split word, or -1

    # random() and integers(k <= 2**32) inline _word and _word32 on their
    # common path: a method call would add about half the cost of a draw

    def _word(self) -> int:
        """The next raw word; a spent block is replaced by the next one."""
        try:
            return self._next()
        except StopIteration:
            self._words = iter(self._raw(_BLOCK_WORDS).tolist())
            self._next = self._words.__next__
            return self._next()

    def _word32(self) -> int:
        """The kept high half, or the low half of a fresh word, whose high half is kept."""
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._word()
        self._half = word >> 32
        return word & _LOW32

    def random(self, size=None):
        """A uniform on [0, 1), or an array of ``size`` of them."""
        if size is None:
            try:
                word = self._next()
            except StopIteration:
                word = self._word()
            return (word >> 11) * _TWO_M53
        left = self._words.__length_hint__()
        if left:
            self._advance(_REWIND - left)
            self._words = iter(())
            self._next = self._words.__next__
        return self._gen.random(size)

    def integers(self, k: int) -> int:
        """A uniform integer in [0, k)."""
        if k <= 0x100000000:
            if k <= 1:
                if k == 1:
                    return 0
                raise ValueError("k must be at least 1")
            half = self._half
            if half >= 0:
                self._half = -1
                m = half * k
            else:
                try:
                    word = self._next()
                except StopIteration:
                    word = self._word()
                self._half = word >> 32
                m = (word & _LOW32) * k
            if m & _LOW32 < k:
                threshold = (0x100000000 - k) % k
                while m & _LOW32 < threshold:
                    m = self._word32() * k
            return m >> 32
        if k > 1 << 63:
            raise ValueError("k must be at most 2**63")
        m = self._word() * k
        if m & _LOW64 < k:
            threshold = ((1 << 64) - k) % k
            while m & _LOW64 < threshold:
                m = self._word() * k
        return m >> 64


KIND_SPLIT = "split"
KIND_MERGE = "merge"
KIND_SHIFT = "shift"
_KIND_PROBS = ((KIND_SPLIT, 0.1), (KIND_MERGE, 0.1), (KIND_SHIFT, 0.8))
# each acceptance rate with the counters it divides: accepted (or changed) over proposed (or drawn)
_RATES = (
    *((kind, f"{kind}_accepted", f"{kind}_proposed") for kind, _ in _KIND_PROBS),
    ("swap", "swap_accepted", "swap_proposed"),
    ("gibbs_change", "gibbs_changes", "gibbs_draws"),
)
COUNTERS = ("block_noop", *(key for _, num, den in _RATES for key in (den, num)))


@dataclass(frozen=True)
class Schedule:
    """Burn-in and retained iterations; every retained iteration is a sample."""

    burnin: int
    iterations: int

    def __post_init__(self):
        if self.burnin < 0 or self.iterations < 0:
            raise ValueError("burnin and iterations must be non-negative")


def default_schedule(n_snps: int) -> Schedule:
    """Default run length scales with panel size."""
    return Schedule(burnin=10 * n_snps, iterations=50 * n_snps)


@dataclass
class PosteriorSummary:
    """Monte Carlo posterior estimates from one chain (or a chain average)."""

    marginal_posterior: np.ndarray  # P(label = 1) per SNP
    epistatic_posterior: np.ndarray  # P(label = 2) per SNP
    assoc_posterior: np.ndarray  # P(label != 0) per SNP
    boundary_posterior: np.ndarray  # P(SNP starts a block)
    interaction_sets: dict[tuple[int, ...], float]
    samples_used: int
    log_joint_trace: np.ndarray
    acceptance: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)  # every ``COUNTERS`` key, 0 if never bumped
    cache: dict[str, float] = field(default_factory=dict)  # memo entries and cold time at the end
    kernel_s: dict[str, float] = field(default_factory=dict)  # seconds in block moves, sweeps and swap passes


@dataclass
class BlockProposal:
    """One proposed partition change with its Hastings log-ratio.

    ``removed`` are adjacent blocks of the current partition, in order, the
    first of them block ``first``; ``added`` tile the same SNPs after the move.
    """

    kind: str
    first: int
    removed: tuple[tuple[int, int], ...]
    added: tuple[tuple[int, int], ...]
    log_q_ratio: float


class LabelRows:
    """Per-SNP decision values of the Gibbs label sweep, kept across sweeps.

    Row ``i`` holds SNP i's unnormalised conditional label probabilities as
    running sums (``acc0 = p0``, ``acc1 = p0 + p1``), their ``total``, whether
    label 2 is open under the interaction-order cap, and the ``label`` the
    row was built for, and ``weights`` keeps the row's log weights by label,
    whose differences are the log-joint changes of relabelling the SNP. A row
    depends only on the SNP's block, that block's mask and the group-2 set;
    :class:`ChainState` marks it ``stale`` whenever it changes one of those.
    Masks stay Python ints: blocks of 40 or more SNPs overflow int64.
    """

    def __init__(self, n: int):
        self.acc0 = np.zeros(n)
        self.acc1 = np.zeros(n)
        self.total = np.zeros(n)
        self.allow2 = np.zeros(n, dtype=bool)
        self.label = np.zeros(n, dtype=np.int8)
        self.stale = np.ones(n, dtype=bool)
        self.weights: list[list[float]] = [[]] * n  # rows are replaced, never mutated

    def build(self, state: "ChainState", i: int, r: float) -> int:
        """Rebuild row ``i`` from the current state; return the label ``r`` picks."""
        model = state.model
        k, a, b = state.block_of(i)
        mask = state.block_masks[k]
        cur = state.labels[i]
        power = 3 ** (i - a)
        base = mask - cur * power
        if cur == 2:
            s2_without = tuple(v for v in state.s2 if v != i)
            s2_with = tuple(state.s2)
        else:
            s2_without = tuple(state.s2)
            s2_with = None  # built lazily below
        allow2 = cur == 2 or len(state.s2) < model.max_order
        log_label = model.log_label
        weights = []
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
            weights.append(model.block_term(a, b, base + lab * power) + g2 + log_label[lab])
        top = max(weights)
        probs = [math.exp(w - top) for w in weights]
        total = sum(probs)
        acc0 = probs[0]
        acc1 = acc0 + probs[1]
        self.acc0[i] = acc0
        self.acc1[i] = acc1
        self.total[i] = total
        self.allow2[i] = allow2
        self.label[i] = cur
        self.stale[i] = False
        self.weights[i] = weights
        u = r * total
        return 0 if u < acc0 else 1 if u < acc1 or not allow2 else 2


class ChainState:
    """Mutable sampler state bound to one :class:`JointModel`.

    Tracks the partition (block start list), labels, per-block ternary label
    masks (``block_masks``, aligned with ``starts``), the sorted SNP list of
    each label (``members``; ``members[2]`` is the group-2 set ``s2``) and
    ``running_log_joint``, the joint log probability of the state, all kept
    up to date by the writers :meth:`assign`, :meth:`relabel` and
    :meth:`repartition`. ``repartitions`` counts the writes that changed the
    partition. ``state.model.log_joint(state.starts, state.labels)``
    recomputes the log joint from scratch.
    """

    def __init__(self, model: JointModel, rng: BlockDraws | np.random.Generator):
        self.model = model
        self.rng = rng
        n = model.n_snps
        self.counters: dict[str, int] = {}
        self.repartitions = 0
        self.label_rows = LabelRows(n)
        model.engine.prefetch_singletons(WHO_BOTH)  # every singleton block's cap check reads one
        for i in range(n):
            if not model.block_allowed(i, i + 1):
                raise ConstraintError(
                    f"SNP {i} exceeds the diplotype cap even as a singleton block; "
                    "no admissible state exists"
                )
        self.assign(range(n), [0] * n)

    def assign(self, starts, labels) -> None:
        """Put the state at the partition with block ``starts`` and the per-SNP
        ``labels``, recomputing every derived field and the log joint."""
        n = self.model.n_snps
        self.starts: list[int] = [int(a) for a in starts]
        self.labels: list[int] = [int(v) for v in labels]
        bounds = self.starts + [n]
        self.block_masks = [mask_from_labels(self.labels, a, b) for a, b in zip(bounds, bounds[1:])]
        self.members: list[list[int]] = [[], [], []]
        for i, lab in enumerate(self.labels):
            self.members[lab].append(i)
        self.label_rows.stale[:] = True
        self.repartitions += 1
        self.running_log_joint = self.model.log_joint(self.starts, self.labels)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def s2(self) -> list[int]:
        """The sorted group-2 set, ``members[2]``."""
        return self.members[2]

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def block_of(self, snp: int) -> tuple[int, int, int]:
        """The index, start and end of the block that holds ``snp``."""
        k = bisect_right(self.starts, snp) - 1
        end = self.starts[k + 1] if k + 1 < len(self.starts) else self.model.n_snps
        return k, self.starts[k], end

    def relabel(self, i: int, lab: int, delta: float) -> tuple[int, int]:
        """Give SNP ``i`` label ``lab``; return the label rows marked stale.

        Those are the rows of the SNP's block, or every row when the group-2
        set changed. ``delta`` is the change in the log joint that this call
        completes; a swap passes its whole log ratio with its first call.
        """
        cur = self.labels[i]
        k, a, b = self.block_of(i)
        self.labels[i] = lab
        self.block_masks[k] += (lab - cur) * 3 ** (i - a)
        old = self.members[cur]
        del old[bisect_left(old, i)]
        insort(self.members[lab], i)
        if cur == 2 or lab == 2:
            a, b = 0, self.model.n_snps
        self.label_rows.stale[a:b] = True
        self.running_log_joint += delta
        return a, b

    def repartition(self, proposal: BlockProposal, masks: list[int], delta: float) -> None:
        """Apply an accepted block move whose added blocks have the label
        ``masks`` and whose log-joint change is ``delta``.

        The added blocks' starts and masks replace the removed blocks' slice
        of each list; the rows of the SNPs they cover go stale.
        """
        self.running_log_joint += delta
        self.repartitions += 1
        added = proposal.added
        k, r = proposal.first, len(proposal.removed)
        self.starts[k : k + r] = [a for a, _ in added]
        self.block_masks[k : k + r] = masks
        self.label_rows.stale[added[0][0] : added[-1][1]] = True

    def log_joint(self) -> float:
        """The running joint log probability of the current state."""
        return self.running_log_joint


def init_state(dataset: GenotypeDataset, priors: PriorConfig, seed: int) -> ChainState:
    """All-singleton, all-unassociated starting state whose draws are those of
    ``default_rng(seed)``, read in blocks."""
    model = JointModel(dataset, priors)
    return ChainState(model, BlockDraws(seed))


# -- block moves --------------------------------------------------------------


def propose_block_move(state: ChainState, kind: str) -> BlockProposal | None:
    """Draw one partition proposal; ``None`` marks an inapplicable no-op."""
    starts = state.starts
    nb = len(starts)
    n = state.model.n_snps
    rng = state.rng
    if kind == KIND_SPLIT:
        k = int(rng.integers(nb))
        a = starts[k]
        b = starts[k + 1] if k + 1 < nb else n
        w = b - a
        if w < 2:
            return None
        cut = a + 1 + int(rng.integers(w - 1))
        # forward: pick block (1/nb) and cut (1/(w-1)); reverse merge picks the
        # new adjacent pair among nb pairs.
        log_q_ratio = math.log(w - 1)
        return BlockProposal(kind, k, ((a, b),), ((a, cut), (cut, b)), log_q_ratio)
    if kind == KIND_MERGE:
        if nb < 2:
            return None
        k = int(rng.integers(nb - 1))
        a = starts[k]
        mid = starts[k + 1]
        b = starts[k + 2] if k + 2 < nb else n
        # forward: pick pair (1/(nb-1)); reverse split picks the merged block
        # (1/(nb-1)) and the former cut (1/(w-1)).
        log_q_ratio = -math.log(b - a - 1)
        return BlockProposal(kind, k, ((a, mid), (mid, b)), ((a, b),), log_q_ratio)
    if kind == KIND_SHIFT:
        if nb < 2:
            return None
        k = 1 + int(rng.integers(nb - 1))  # never the fixed first boundary
        t = starts[k]
        lo = starts[k - 1] + 1
        hi = (starts[k + 1] if k + 1 < nb else n) - 1
        n_targets = hi - lo  # positions in [lo, hi] minus the current one
        if n_targets < 1:
            return None
        pick = int(rng.integers(n_targets))
        new_t = lo + pick
        if new_t >= t:
            new_t += 1
        a = starts[k - 1]
        b = starts[k + 1] if k + 1 < nb else n
        # neighbours are unchanged, so the reverse move has the same n_targets
        # choices and the proposal is symmetric
        return BlockProposal(kind, k - 1, ((a, t), (t, b)), ((a, new_t), (new_t, b)), 0.0)
    raise ValueError(f"unknown move kind: {kind!r}")


def added_masks(removed_masks: list[int], proposal: BlockProposal) -> list[int]:
    """The label masks of the proposal's added blocks, in order, by ternary
    digit arithmetic on the masks of its removed blocks: those are joined
    into one mask over their SNPs, which is then cut at the added blocks."""
    start = proposal.removed[0][0]
    whole = 0
    for (a, _), mask in zip(proposal.removed, removed_masks):
        whole += mask * 3 ** (a - start)
    masks = []
    for a, b in proposal.added:
        whole, mask = divmod(whole, 3 ** (b - a))
        masks.append(mask)
    return masks


def accept(state: ChainState, proposal: BlockProposal) -> bool:
    """Metropolis-Hastings decision; exactly one uniform draw per call."""
    model = state.model
    k = proposal.first
    old_masks = state.block_masks[k : k + len(proposal.removed)]
    old = 0.0
    for (a, b), mask in zip(proposal.removed, old_masks):
        old += model.block_term(a, b, mask)
    new_masks = added_masks(old_masks, proposal)
    new = 0.0
    for (a, b), mask in zip(proposal.added, new_masks):
        new += model.block_term(a, b, mask)
    delta_blocks = len(proposal.added) - len(proposal.removed)
    delta = new - old + delta_blocks * model.boundary_odds
    log_ratio = delta + proposal.log_q_ratio
    u = state.rng.random()
    # a -inf ratio rejects: exp(-inf) is 0, and nan (-inf on both sides) compares false
    ok = log_ratio >= 0.0 or u < math.exp(log_ratio)
    if ok:
        state.repartition(proposal, new_masks, delta)
    return ok


# -- membership moves ----------------------------------------------------------


def gibbs_membership_sweep(state: ChainState) -> int:
    """Resample every label from its full conditional, in index order.

    Labels that would push the group-2 set over the interaction-order cap are
    skipped. Returns the number of labels that changed.

    The sweep draws its n uniforms at once and compares them, as arrays,
    against the decision rows kept in ``state.label_rows``. It jumps to the
    next SNP whose row is stale or whose label changes; only there does it
    build a row or apply a change. A change marks every row of the SNP's
    block stale, and every row of the panel when the group-2 set changed.
    """
    n = state.model.n_snps
    rows = state.label_rows
    r = state.rng.random(n)
    state.bump("gibbs_draws", n)
    u = r * rows.total
    pick = np.where(u < rows.acc0, 0, np.where((u < rows.acc1) | ~rows.allow2, 1, 2))
    stop = rows.stale | (pick != rows.label)
    labels = state.labels
    changed = 0
    i = 0
    while i < n:
        i += int(stop[i:].argmax())
        if not stop[i]:
            break
        lab = rows.build(state, i, float(r[i])) if rows.stale[i] else int(pick[i])
        cur = labels[i]
        if lab != cur:
            changed += 1
            state.bump("gibbs_changes")
            weights = rows.weights[i]
            a, b = state.relabel(i, lab, weights[lab] - weights[cur])
            stop[a:b] = True
        i += 1
    return changed


def swap_membership_move(state: ChainState) -> int:
    """One swap pass: k label exchanges, k the number of associated SNPs.

    Each step proposes exchanging the labels of a pair drawn uniformly from
    all pairs of SNPs whose labels differ: one integer draw picks the label
    pair (a, b) with weight c_a * c_b and then one SNP of each label. Swaps
    keep the label counts, so that set of pairs has the same size before and
    after every step; the proposal is symmetric and the membership prior
    cancels. Returns the number of accepted swaps.

    Every step draws ``integers(n_pairs)`` and then ``random()``, whatever
    the outcome, so the pass binds what it reads once: the draw methods, the
    model's term methods, the start list and the masks. The group-2 term of
    the current set is evaluated at the first step that needs it and taken
    over from the proposal after an accepted group-2 swap; the counters are
    bumped once per pass.
    """
    members = state.members
    c0, c1, c2 = len(members[0]), len(members[1]), len(members[2])
    w01 = c0 * c1  # pairs of labels (0, 1), then (0, 2) up to w012, then (1, 2)
    w012 = w01 + c0 * c2
    n_pairs = w012 + c1 * c2
    if n_pairs == 0:
        return 0
    model = state.model
    block_term = model.block_term
    group2_term = model.group2_term
    integers = state.rng.integers
    random = state.rng.random
    exp = math.exp
    starts = state.starts
    masks = state.block_masks
    s2 = members[2]  # the state's sorted group-2 list, which relabel keeps current
    nb = len(starts)
    n = model.n_snps
    # the pass's own copies: an accepted swap puts each SNP in the other's place
    members = [list(m) for m in members]
    g2_cur = None  # group2_term of the current group-2 set, once a step needed it
    steps = c1 + c2
    accepted = 0
    for _ in range(steps):
        r = int(integers(n_pairs))
        if r < w01:
            li, lj, cj = 0, 1, c1
        elif r < w012:
            li, lj, cj = 0, 2, c2
            r -= w01
        else:
            li, lj, cj = 1, 2, c2
            r -= w012
        ki, kj = divmod(r, cj)
        i = members[li][ki]
        j = members[lj][kj]

        k = bisect_right(starts, i) - 1
        ai = starts[k]
        bi = starts[k + 1] if k + 1 < nb else n
        mi = masks[k]
        pi = 3 ** (i - ai)
        old_terms = block_term(ai, bi, mi)
        if j < ai or j >= bi:
            k = bisect_right(starts, j) - 1
            aj = starts[k]
            bj = starts[k + 1] if k + 1 < nb else n
            mj = masks[k]
            pj = 3 ** (j - aj)
            old_terms += block_term(aj, bj, mj)
            new_terms = block_term(ai, bi, mi + (lj - li) * pi) + block_term(aj, bj, mj + (li - lj) * pj)
        else:
            pj = 3 ** (j - ai)
            new_terms = block_term(ai, bi, mi + (lj - li) * pi + (li - lj) * pj)
        if lj == 2:  # li < lj, so i takes j's place in the group-2 set
            tmp = [v for v in s2 if v != j]
            insort(tmp, i)
            g2_new = group2_term(tuple(tmp))
            if g2_cur is None:
                g2_cur = group2_term(tuple(s2))
            delta_g2 = g2_new - g2_cur
        else:
            delta_g2 = 0.0

        log_ratio = new_terms - old_terms + delta_g2
        u = random()
        if log_ratio >= 0.0 or u < exp(log_ratio):
            accepted += 1
            state.relabel(i, lj, log_ratio)
            state.relabel(j, li, 0.0)
            members[li][ki] = j
            members[lj][kj] = i
            if lj == 2:
                g2_cur = g2_new
    state.bump("swap_proposed", steps)
    if accepted:
        state.bump("swap_accepted", accepted)
    return accepted


# -- chain drivers --------------------------------------------------------------


_PROPOSED = {kind: f"{kind}_proposed" for kind, _ in _KIND_PROBS}
_ACCEPTED = {kind: f"{kind}_accepted" for kind, _ in _KIND_PROBS}


def _add_label_run(marg, epi, set_counts, m1, m2, run: int) -> None:
    """Add ``run`` samples of the label-1 list ``m1`` and the label-2 list
    ``m2`` to the label tallies, and of ``m2`` to the interaction-set counts
    when it holds two SNPs or more."""
    if run:
        marg[m1] += run
        epi[m2] += run
        if len(m2) >= 2:
            key = tuple(m2)
            set_counts[key] = set_counts.get(key, 0) + run


def _choose_kind(rng: np.random.Generator) -> str:
    u = rng.random()
    acc = 0.0
    for kind, p in _KIND_PROBS:
        acc += p
        if u < acc:
            return kind
    return _KIND_PROBS[-1][0]


def run_chain(
    dataset: GenotypeDataset,
    priors: PriorConfig,
    schedule: Schedule,
    seed: int,
    sample_membership: bool = True,
) -> PosteriorSummary:
    """Run one chain and summarize its samples, one per retained iteration.

    With ``sample_membership=False`` only the partition is sampled (labels
    stay 0), which is the block-inference mode. Progress goes to stderr every
    tenth of the run, burn-in included, and at most once per iteration.
    """
    state = init_state(dataset, priors, seed)
    total_iters = schedule.burnin + schedule.iterations
    # the first sweep asks for most SNPs' case/control marginals; a chain
    # that never sweeps reads none of them
    if sample_membership and total_iters:
        state.model.engine.prefetch_singletons(WHO_CASES)
    n = dataset.n_snps
    marg = np.zeros(n)
    epi = np.zeros(n)
    bound = np.zeros(n)
    set_counts: dict[tuple[int, ...], int] = {}
    trace: list[float] = []
    # Samples taken of the partition ``held_starts`` since it last changed,
    # which was at the state's ``held_version``-th repartition.
    held_starts, held_version, held = list(state.starts), state.repartitions, 0
    # Samples taken of the label-1 and label-2 lists ``held_m1`` and ``held_m2``
    # since either last changed; a change is seen by comparing the lists.
    held_m1, held_m2, held_labels = list(state.members[1]), list(state.members[2]), 0
    progress = max(1, total_iters // 10)
    rng = state.rng
    clock = time.perf_counter
    block_move_s = gibbs_s = swap_s = 0.0
    for t in range(total_iters):
        started = clock()
        kind = _choose_kind(rng)
        proposal = propose_block_move(state, kind)
        if proposal is None:
            state.bump("block_noop")
        else:
            state.bump(_PROPOSED[kind])
            if accept(state, proposal):
                state.bump(_ACCEPTED[kind])
        moved = clock()
        block_move_s += moved - started
        if sample_membership:
            gibbs_membership_sweep(state)
            swept = clock()
            swap_membership_move(state)
            gibbs_s += swept - moved
            swap_s += clock() - swept
        if t >= schedule.burnin:
            trace.append(state.log_joint())
            if state.repartitions != held_version:
                bound[held_starts] += held
                held_starts, held_version, held = list(state.starts), state.repartitions, 0
            held += 1
            if sample_membership:
                members = state.members
                if members[1] != held_m1 or members[2] != held_m2:
                    _add_label_run(marg, epi, set_counts, held_m1, held_m2, held_labels)
                    held_m1, held_m2, held_labels = list(members[1]), list(members[2]), 0
                held_labels += 1
        if (t + 1) % progress == 0:
            # one write per line, so lines from chains in worker processes do not interleave
            sys.stderr.write(
                f"chain {seed} iteration {t + 1}/{total_iters} log_joint={state.running_log_joint:.4f} "
                f"counters={state.counters}\n"
            )
    bound[held_starts] += held
    _add_label_run(marg, epi, set_counts, held_m1, held_m2, held_labels)

    counters = {key: state.counters.get(key, 0) for key in COUNTERS}
    acceptance = {name: counters[num] / counters[den] if counters[den] else 0.0 for name, num, den in _RATES}
    # with no samples every count is 0, and so is every estimate
    per = max(schedule.iterations, 1)
    marg /= per
    epi /= per
    bound /= per
    return PosteriorSummary(
        marginal_posterior=marg,
        epistatic_posterior=epi,
        assoc_posterior=marg + epi,
        boundary_posterior=bound,
        interaction_sets={k: v / per for k, v in sorted(set_counts.items())},
        samples_used=schedule.iterations,
        log_joint_trace=np.asarray(trace),
        acceptance=acceptance,
        counters=counters,
        cache=state.model.cache_sizes(),
        kernel_s={
            "block_move_s": round(block_move_s, 6),
            "gibbs_s": round(gibbs_s, 6),
            "swap_s": round(swap_s, 6),
        },
    )


def run_chains(
    dataset: GenotypeDataset,
    priors: PriorConfig,
    schedule: Schedule,
    n_chains: int,
    base_seed: int,
    sample_membership: bool = True,
    threads: int = 1,
) -> tuple[PosteriorSummary, list[PosteriorSummary]]:
    """Run independent chains (chain c seeded with base_seed + c) and merge.

    The averaged summary is the arithmetic mean of the per-chain posteriors;
    interaction-set frequencies are sample-weighted. Results do not depend on
    ``threads``; with ``threads > 1`` the chains run in worker processes,
    which log their own progress.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    job = partial(run_chain, dataset, priors, schedule, sample_membership=sample_membership)
    seeds = range(base_seed, base_seed + n_chains)
    if threads > 1 and n_chains > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here, off every command's start-up

        with ProcessPoolExecutor(max_workers=min(threads, n_chains)) as pool:
            chains = list(pool.map(job, seeds))
    else:
        chains = list(map(job, seeds))

    total_samples = sum(c.samples_used for c in chains)
    merged_counts: dict[tuple[int, ...], float] = {}
    for c in chains:
        for key, freq in c.interaction_sets.items():
            merged_counts[key] = merged_counts.get(key, 0.0) + freq * c.samples_used
    merged_sets = {k: v / total_samples for k, v in sorted(merged_counts.items())}
    averaged = PosteriorSummary(
        marginal_posterior=np.mean([c.marginal_posterior for c in chains], axis=0),
        epistatic_posterior=np.mean([c.epistatic_posterior for c in chains], axis=0),
        assoc_posterior=np.mean([c.assoc_posterior for c in chains], axis=0),
        boundary_posterior=np.mean([c.boundary_posterior for c in chains], axis=0),
        interaction_sets=merged_sets,
        samples_used=total_samples,
        log_joint_trace=np.asarray([]),
    )
    return averaged, chains

