"""Command-line front end: simulate, map, partition, oracle, bstat.

Every subcommand is deterministic given (inputs, flags, seed) and writes
plain TSV with a `#` header line plus a JSON manifest recording the resolved
parameters and how the run went: wall time per phase, peak memory and, for
the samplers and the oracle, memo sizes. Only the TSVs are deterministic.

Exit codes: 0 success, 2 usage error, 3 data error, 4 constraint or guard
violation (`EXIT_CODES`). Every numeric flag is checked as it is parsed, so
a bad value exits 2, naming the flag, before any input is read.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  at import: argparse's gettext loads it on the first parse
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bstat import (
    N_PERM_DEFAULT,
    N_PERM_MIN,
    BStatResult,
    bstat,
    fit_shift_constant,
    null_calibration,
    posterior_candidates,
    results_to_tsv,
)
from .dataio import (
    DataFormatError,
    GenotypeDataset,
    hwe_filter,
    load_dataset,
    read_text,
    write_dataset,
)
from .likelihood import RHO_DEFAULT, RHO_RULE, rho_is_valid
from .mcmc import Schedule, default_schedule, run_chains
from .model import PRIOR_BLOCKS_DEFAULT, ConstraintError, PriorConfig, default_priors
from .oracle import enumerate_posterior

# the per-SNP posterior columns and the result attributes they print
POSTERIOR_COLUMNS = {
    "p_marginal": "marginal_posterior",
    "p_epistatic": "epistatic_posterior",
    "p_assoc": "assoc_posterior",
    "p_boundary": "boundary_posterior",
}


def _default_threads() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _checked(convert, ok, need: str):
    """An argparse type: ``convert`` the text, then refuse a value failing ``ok`` with ``need``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(need)
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid float value" errors
    return parse


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    need = "must be non-negative" if low == 0 else f"must be at least {low}"
    return _checked(int, lambda value: value >= low, need)


_nonneg_int = _int_at_least(0)
_positive_int = _int_at_least(1)
# each range test below is false for nan, so nan is refused too
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and positive")
_rho_arg = _checked(float, rho_is_valid, RHO_RULE)
_nonneg_float = _checked(float, lambda v: math.isfinite(v) and v >= 0, "must be finite and non-negative")
_maf_arg = _checked(float, lambda v: 0.0 < v <= 0.5, "minor allele frequency must lie in (0, 0.5]")
_unit_closed = _checked(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_unit_half_open = _checked(float, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
_unit_open = _checked(float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")


def _add_io_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="infile", required=True, help="input genotype TSV")
    sub.add_argument("--out", dest="outfile", required=True, help="output TSV path")
    sub.add_argument(
        "--missing",
        choices=("reject", "impute"),
        default="reject",
        help="missing-genotype policy (impute = per-column mode)",
    )
    sub.add_argument(
        "--hwe-filter",
        type=_unit_half_open,
        default=0.0,
        metavar="P",
        help="drop SNPs whose control genotypes reject Hardy-Weinberg below this p-value",
    )


def _add_prior_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rho", type=_rho_arg, default=RHO_DEFAULT, help="Dirichlet scale")
    sub.add_argument(
        "--prior-blocks",
        type=_positive_float,
        default=PRIOR_BLOCKS_DEFAULT,
        help="expected genome-wide block count behind the boundary prior",
    )


def _add_label_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p1", type=_unit_half_open, default=None, help="marginal-label prior")
    sub.add_argument("--p2", type=_unit_half_open, default=None, help="epistatic-label prior")
    sub.add_argument(
        "--max-order", type=_positive_int, default=None, help="cap on the epistatic set size"
    )


def _add_mcmc_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--chains", type=_positive_int, default=1, help="independent chains to run")
    sub.add_argument("--burnin", type=_nonneg_int, default=None, help="discarded iterations")
    sub.add_argument("--iters", type=_nonneg_int, default=None, help="retained iterations")
    sub.add_argument("--seed", type=_nonneg_int, default=0, help="base RNG seed")
    sub.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="worker bound for multi-chain runs (default: the CPUs this process may use)",
    )


def _load(args) -> GenotypeDataset:
    dataset = load_dataset(args.infile, missing_policy=args.missing)
    dataset, removed = hwe_filter(dataset, args.hwe_filter)
    if removed:
        print(f"hwe filter removed {len(removed)} SNPs", file=sys.stderr)
    return dataset


def _priors(args, dataset: GenotypeDataset) -> PriorConfig:
    """The prior, whose caps bound its support, from the model flags and the panel's
    shape; `partition` keeps every label 0 and takes ``default_priors``' label priors.
    Where the command has label flags, they take the values that ran, for the manifest."""
    priors = default_priors(
        dataset.n_snps,
        dataset.region_length,
        dataset.n_cases,
        dataset.n_controls,
        prior_blocks=args.prior_blocks,
        rho=args.rho,
        p1=getattr(args, "p1", None),
        p2=getattr(args, "p2", None),
        max_order=getattr(args, "max_order", None),
    )
    if hasattr(args, "p1"):
        args.p1, args.p2, args.max_order = priors.p1, priors.p2, priors.max_order
    return priors


def _resolved_schedule(dataset: GenotypeDataset, args) -> Schedule:
    """The run length the flags give, the panel's default where they give none;
    the flags take the values that ran, for the manifest."""
    base = default_schedule(dataset.n_snps)
    if args.burnin is None:
        args.burnin = base.burnin
    if args.iters is None:
        args.iters = base.iterations
    return Schedule(burnin=args.burnin, iterations=args.iters)


class _PhaseClock:
    """A command's wall time, split into its load, compute and write phases."""

    def __init__(self):
        self.started = self._last = time.perf_counter()
        self.phases = {"load_s": 0.0, "compute_s": 0.0, "write_s": 0.0}

    def lap(self, phase: str) -> None:
        """Charge the time since the previous lap (or the start) to ``phase``."""
        now = time.perf_counter()
        self.phases[phase] += now - self._last
        self._last = now


def _peak_rss_mb() -> float:
    """This process's peak resident memory in MB: ``VmHWM``, which starts
    afresh at exec, unlike ``ru_maxrss``, which keeps the high-water mark of
    the process that started this one; ``ru_maxrss`` where ``/proc`` is missing."""
    try:
        with open("/proc/self/status", "rb") as status:  # bytes: no codec module loads
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024  # in kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def _write_manifest(args, clock: _PhaseClock, inputs, outputs, extra=None) -> None:
    """Write ``<out>.manifest.json``; the time since the clock's last lap is the write phase."""
    clock.lap("write_s")
    params = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "parameters": params,
        "seed": params.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
        "wall_clock_seconds": round(time.perf_counter() - clock.started, 3),
        "phases": {k: round(v, 6) for k, v in clock.phases.items()},
        "peak_rss_mb": round(_peak_rss_mb(), 2),
    }
    if extra:
        manifest.update(extra)
    path = args.outfile + ".manifest.json"
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_snp_table(path: str, dataset: GenotypeDataset, result, columns) -> None:
    """One row per SNP: its id, its position and, for each column name, the
    ``POSTERIOR_COLUMNS`` attribute of ``result`` at that SNP."""
    values = [getattr(result, POSTERIOR_COLUMNS[name]) for name in columns]
    lines = ["#snp_id\tpos\t" + "\t".join(columns)]
    for i, (snp_id, pos) in enumerate(zip(dataset.snp_ids, dataset.positions)):
        lines.append(f"{snp_id}\t{pos}" + "".join(f"\t{col[i]:.6f}" for col in values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_interactions_tsv(path: str, dataset: GenotypeDataset, sets: dict) -> None:
    lines = ["#members\tfrequency"]
    for key, freq in sets.items():
        members = ",".join(dataset.snp_ids[i] for i in key)
        lines.append(f"{members}\t{freq:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- subcommands --------------------------------------------------------------


def cmd_chains(args, clock: _PhaseClock):
    """`map` samples labels and block boundaries; `partition` boundaries only."""
    dataset = _load(args)
    clock.lap("load_s")
    priors = _priors(args, dataset)
    schedule = _resolved_schedule(dataset, args)
    if args.threads is None:
        args.threads = _default_threads()
    sample_membership = args.subcommand == "map"
    summary, chains = run_chains(
        dataset,
        priors,
        schedule,
        n_chains=args.chains,
        base_seed=args.seed,
        sample_membership=sample_membership,
        threads=args.threads,
    )
    clock.lap("compute_s")
    if not schedule.iterations:
        print("warning: no samples recorded", file=sys.stderr)
    outputs = [args.outfile]
    if sample_membership:
        _write_snp_table(args.outfile, dataset, summary, POSTERIOR_COLUMNS)
        inter_path = args.outfile + ".interactions.tsv"
        _write_interactions_tsv(inter_path, dataset, summary.interaction_sets)
        outputs.append(inter_path)
    else:
        _write_snp_table(args.outfile, dataset, summary, ["p_boundary"])
    return [args.infile], outputs, {
        "acceptance": [chain.acceptance for chain in chains],
        "counters": [chain.counters for chain in chains],
        "kernel_s": [chain.kernel_s for chain in chains],
        "cache": [chain.cache for chain in chains],
    }


def cmd_oracle(args, clock: _PhaseClock):
    dataset = _load(args)
    clock.lap("load_s")
    result = enumerate_posterior(dataset, _priors(args, dataset))
    clock.lap("compute_s")
    _write_snp_table(args.outfile, dataset, result, POSTERIOR_COLUMNS)
    return [args.infile], [args.outfile], {
        "log_normalizer": result.log_normalizer,
        "states_enumerated": result.states_enumerated,
        "cache": result.cache,
    }


def _set_members(ids: list[str], index: dict[str, int], where: str, lineno: int):
    """The SNP indices, as a tuple, of the set that ``ids`` names on line
    ``lineno`` of the ``where`` file."""
    members: list[int] = []
    for sid in ids:
        if sid not in index:
            raise DataFormatError(f"unknown SNP id {sid!r} in {where}", line=lineno)
        if index[sid] in members:
            raise DataFormatError(f"SNP id {sid!r} repeated in one set", line=lineno)
        members.append(index[sid])
    return tuple(members)


def _read_sets_file(path: str, dataset: GenotypeDataset) -> list[tuple[int, ...]]:
    index = {sid: i for i, sid in enumerate(dataset.snp_ids)}
    sets: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members = _set_members(line.replace(",", " ").split(), index, "sets file", lineno)
        if members:
            sets.append(members)
    return sets


def _probability(tok: str, where: str, lineno: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise DataFormatError(f"{tok!r} in {where} is not a number", line=lineno) from None
    if not 0.0 <= value <= 1.0:  # false for nan
        raise DataFormatError(f"{tok!r} in {where} is not a probability in [0, 1]", line=lineno)
    return value


def _read_posterior_prefix(prefix: str, dataset: GenotypeDataset) -> tuple[np.ndarray, dict]:
    """Association posteriors and interaction-set frequencies from `map` output.
    Every value read must be a probability, and each SNP row and each interaction
    set (in any member order) may appear once; a SNP with no row reads as 0."""
    index = {sid: i for i, sid in enumerate(dataset.snp_ids)}
    # the layout of _write_snp_table: id, position, then POSTERIOR_COLUMNS
    n_cols = 2 + len(POSTERIOR_COLUMNS)
    at_assoc = 2 + list(POSTERIOR_COLUMNS).index("p_assoc")
    assoc = np.zeros(dataset.n_snps)
    seen: set[str] = set()
    for lineno, raw in enumerate(read_text(prefix).splitlines(), start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        toks = raw.split("\t")
        if len(toks) != n_cols:
            raise DataFormatError(f"posterior rows need {n_cols} columns", line=lineno)
        if toks[0] not in index:
            raise DataFormatError(f"unknown SNP id {toks[0]!r} in {prefix}", line=lineno)
        if toks[0] in seen:
            raise DataFormatError(f"SNP id {toks[0]!r} repeated in {prefix}", line=lineno)
        seen.add(toks[0])
        assoc[index[toks[0]]] = _probability(toks[at_assoc], prefix, lineno)
    sets: dict[tuple[int, ...], float] = {}
    inter_path = prefix + ".interactions.tsv"
    if Path(inter_path).exists():
        for lineno, raw in enumerate(read_text(inter_path).splitlines(), start=1):
            if raw.startswith("#") or not raw.strip():
                continue
            toks = raw.split("\t")
            if len(toks) != 2:
                raise DataFormatError("interaction rows need 2 columns", line=lineno)
            members = tuple(sorted(_set_members(toks[0].split(","), index, inter_path, lineno)))
            frequency = _probability(toks[1], inter_path, lineno)
            if members in sets:
                raise DataFormatError(f"SNP set {toks[0]!r} repeated in {inter_path}", line=lineno)
            sets[members] = frequency
    return assoc, sets


def score_sets(
    dataset: GenotypeDataset,
    sets,
    alpha: float,
    n_tests: int | None = None,
    rho: float = RHO_DEFAULT,
    mode: str = "permutation",
    n_perm: int = N_PERM_DEFAULT,
    seed: int = 0,
) -> list[BStatResult]:
    """Test each SNP set in order and flag Bonferroni significance.

    Set k is calibrated with seed ``seed + k``. In analytic mode the shift
    constant is fit at the first set of each size and reused for the later
    sets of that size. The per-test level is ``alpha / n_tests``, with
    ``n_tests`` defaulting to C(L, M) for a size-M set.
    """
    if n_tests is not None and n_tests < 1:
        raise ValueError("n_tests must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    constants: dict[int, float] = {}
    results: list[BStatResult] = []
    for offset, snps in enumerate(sets):
        m = len(snps)
        b = bstat(dataset, snps, rho=rho)
        if mode == "analytic" and m not in constants:
            constants[m] = fit_shift_constant(dataset, snps, rho=rho, n_perm=n_perm, seed=seed + offset)
        cal = null_calibration(
            dataset,
            snps,
            rho=rho,
            mode=mode,
            n_perm=n_perm,
            seed=seed + offset,
            shift_constant=constants.get(m),
        )
        p = cal.p_value(b)
        nt = n_tests if n_tests is not None else math.comb(dataset.n_snps, m)
        # alpha / nt overflows once nt is past the float range; compare exactly there
        if nt <= sys.float_info.max:
            significant = p < alpha / nt
        else:
            from fractions import Fraction  # imported here, off every command's start-up

            significant = Fraction(p) * nt < alpha
        results.append(
            BStatResult(
                snp_set=snps,
                b_value=b,
                df=cal.df,
                shift=cal.shift,
                p_value=p,
                calibration=cal.mode,
                significant=bool(significant),
            )
        )
    return results


def cmd_bstat(args, clock: _PhaseClock):
    dataset = _load(args)
    if args.sets is not None:
        inputs = [args.infile, args.sets]
        sets = _read_sets_file(args.sets, dataset)
    else:
        inputs = [args.infile, args.from_posterior]
        sets = posterior_candidates(*_read_posterior_prefix(args.from_posterior, dataset), args.threshold)
    clock.lap("load_s")
    results = score_sets(
        dataset,
        sets,
        alpha=args.alpha,
        n_tests=args.n_tests,
        rho=args.rho,
        mode=args.calibration,
        n_perm=args.n_perm,
        seed=args.seed,
    )
    clock.lap("compute_s")
    Path(args.outfile).write_text(results_to_tsv(results, dataset.snp_ids), encoding="utf-8")
    return inputs, [args.outfile], None


def cmd_simulate(args, clock: _PhaseClock):
    # imported here, off every command's start-up, so the parser leaves the
    # pool-shape flags at None and they take simulate's defaults here
    from .simulate import (
        BLOCK_WIDTH_DEFAULT,
        N_FOUNDERS_DEFAULT,
        DiseaseModel,
        disease_pool,
        drop_loci,
        simulate_dataset,
        write_truth,
    )

    args.block_width = args.block_width or BLOCK_WIDTH_DEFAULT
    args.founders = args.founders or N_FOUNDERS_DEFAULT
    # no input: the load phase stays 0
    n_generated = args.snps if args.keep_loci else args.snps + 2
    pool, loci = disease_pool(
        n_generated,
        args.maf,
        block_width=args.block_width,
        n_founders=args.founders,
        seed=args.seed,
    )
    if args.theta is not None:
        model = DiseaseModel.from_theta(args.model, args.theta, args.maf, loci)
    else:
        model = DiseaseModel.from_effect(args.model, args.effect, args.maf, loci)
    sim = simulate_dataset(
        pool,
        model,
        args.cases,
        args.controls,
        seed=args.seed + 1,
    )
    if not args.keep_loci:
        sim = drop_loci(sim)
    clock.lap("compute_s")
    write_dataset(sim.dataset, args.outfile)
    truth_path = args.outfile + ".truth.tsv"
    write_truth(sim.truth, truth_path)
    return [], [args.outfile, truth_path], {"theta": model.theta, "loci": list(model.loci)}


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamscan",
        description="Block-based Bayesian association mapping of epistatic SNP sets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    for name, help_text in (
        ("map", "sample the joint block/association posterior"),
        ("partition", "sample block boundaries only"),
    ):
        p_chain = subs.add_parser(name, help=help_text)
        _add_io_args(p_chain)
        _add_prior_args(p_chain)
        if name == "map":
            _add_label_args(p_chain)
        _add_mcmc_args(p_chain)
        p_chain.set_defaults(func=cmd_chains)

    p_oracle = subs.add_parser("oracle", help="exact posterior by exhaustive enumeration")
    _add_io_args(p_oracle)
    _add_prior_args(p_oracle)
    _add_label_args(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_bstat = subs.add_parser("bstat", help="Bayes-factor tests for SNP sets")
    _add_io_args(p_bstat)
    group = p_bstat.add_mutually_exclusive_group(required=True)
    group.add_argument("--sets", default=None, help="TSV of SNP-id sets, one set per line")
    group.add_argument(
        "--from-posterior",
        default=None,
        help="map output TSV; screen candidates above --threshold",
    )
    p_bstat.add_argument("--threshold", type=_unit_closed, default=0.5, help="posterior cutoff")
    p_bstat.add_argument(
        "--calibration", choices=("permutation", "analytic"), default="permutation"
    )
    p_bstat.add_argument(
        "--n-perm", type=_int_at_least(N_PERM_MIN), default=N_PERM_DEFAULT, help="permutation replicates"
    )
    p_bstat.add_argument("--alpha", type=_unit_open, default=0.05, help="family-wise level")
    p_bstat.add_argument(
        "--n-tests", type=_positive_int, default=None, help="Bonferroni divisor (default C(L, M))"
    )
    p_bstat.add_argument("--rho", type=_rho_arg, default=RHO_DEFAULT, help="Dirichlet scale")
    p_bstat.add_argument("--seed", type=_nonneg_int, default=0, help="permutation RNG seed")
    p_bstat.set_defaults(func=cmd_bstat)

    p_sim = subs.add_parser("simulate", help="draw a case-control panel with known truth")
    p_sim.add_argument("--out", dest="outfile", required=True, help="output dataset TSV")
    p_sim.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p_sim.add_argument("--maf", type=_maf_arg, required=True, help="disease allele frequency")
    risk = p_sim.add_mutually_exclusive_group()
    risk.add_argument(
        "--effect",
        type=_nonneg_float,
        default=0.0,
        help="marginal log odds ratio per locus (0 gives the null model)",
    )
    risk.add_argument("--theta", type=_nonneg_float, default=None, help="risk parameter, instead of --effect")
    p_sim.add_argument("--cases", type=_positive_int, default=1000)
    p_sim.add_argument("--controls", type=_positive_int, default=1000)
    p_sim.add_argument("--snps", type=_positive_int, default=100, help="SNPs in the written panel")
    # None: cmd_simulate takes simulate.BLOCK_WIDTH_DEFAULT and simulate.N_FOUNDERS_DEFAULT
    p_sim.add_argument("--block-width", type=_positive_int, default=None)
    p_sim.add_argument("--founders", type=_int_at_least(2), default=None)
    p_sim.add_argument(
        "--keep-loci",
        action="store_true",
        help="keep the disease loci in the panel instead of dropping them",
    )
    p_sim.add_argument("--seed", type=_nonneg_int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


# the exit code of each error a command may raise; the first match wins, so
# the ValueError subclasses come before ValueError itself
EXIT_CODES = ((DataFormatError, 3), (ConstraintError, 4), (OSError, 3), (ValueError, 2))


def main(argv=None) -> int:
    """Run one subcommand: parse its flags (a bad flag exits 2 from argparse),
    run it on a fresh phase clock, then write its manifest."""
    args = build_parser().parse_args(argv)
    clock = _PhaseClock()
    try:
        _write_manifest(args, clock, *args.func(args, clock))
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
