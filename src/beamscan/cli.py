"""Command-line front end: simulate, map, partition, oracle, bstat.

Every subcommand is deterministic given (inputs, flags, seed) and writes
plain TSV with a `#` header line plus a JSON manifest recording the resolved
parameters. Exit codes: 0 success, 2 usage error, 3 data error, 4 constraint
or guard violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .bstat import (
    BStatResult,
    bstat,
    fit_shift_constant,
    null_calibration,
    posterior_candidates,
    results_to_tsv,
)
from .dataio import DataFormatError, GenotypeDataset, hwe_filter, load_dataset, write_dataset
from .mcmc import Schedule, default_schedule, run_chains
from .model import ConstraintError, default_priors
from .oracle import enumerate_posterior
from .simulate import (
    DiseaseModel,
    disease_pool,
    drop_loci,
    simulate_dataset,
    write_truth,
)

POSTERIOR_HEADER = "#snp_id\tpos\tp_marginal\tp_epistatic\tp_assoc\tp_boundary"


def _default_threads() -> int:
    env = os.environ.get("BEAMSCAN_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _maf_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 0.5:
        raise argparse.ArgumentTypeError("minor allele frequency must lie in (0, 0.5]")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


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
        type=float,
        default=0.0,
        metavar="P",
        help="drop SNPs whose control genotypes reject Hardy-Weinberg below this p-value",
    )


def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rho", type=_positive_float, default=1.5, help="Dirichlet scale")
    sub.add_argument(
        "--prior-blocks",
        type=_positive_float,
        default=50_000.0,
        help="expected genome-wide block count behind the boundary prior",
    )
    sub.add_argument("--p1", type=float, default=None, help="marginal-label prior")
    sub.add_argument("--p2", type=float, default=None, help="epistatic-label prior")
    sub.add_argument(
        "--max-order", type=int, default=None, help="cap on the epistatic set size"
    )


def _add_mcmc_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--chains", type=int, default=1, help="independent chains to run")
    sub.add_argument("--burnin", type=int, default=None, help="discarded iterations")
    sub.add_argument("--iters", type=int, default=None, help="retained iterations")
    sub.add_argument("--thin", type=int, default=1, help="record every k-th sample")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker bound for multi-chain runs (default: BEAMSCAN_THREADS or all cores)",
    )


def _load(args) -> GenotypeDataset:
    dataset = load_dataset(args.infile, missing_policy=args.missing)
    if args.hwe_filter > 0.0:
        dataset, removed = hwe_filter(dataset, args.hwe_filter)
        if removed:
            print(f"hwe filter removed {len(removed)} SNPs", file=sys.stderr)
    return dataset


def _resolved_schedule(dataset: GenotypeDataset, args) -> Schedule:
    base = default_schedule(dataset.n_snps)
    burnin = base.burnin if args.burnin is None else args.burnin
    iters = base.iterations if args.iters is None else args.iters
    return Schedule(burnin=burnin, iterations=iters, thin=args.thin)


def _write_manifest(args, inputs: list[str], outputs: list[str], started: float, extra=None) -> None:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func"
    }
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "parameters": params,
        "seed": params.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    if extra:
        manifest.update(extra)
    path = args.outfile + ".manifest.json"
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_posterior_tsv(path: str, dataset: GenotypeDataset, marg, epi, assoc, bound) -> None:
    lines = [POSTERIOR_HEADER]
    for i in range(dataset.n_snps):
        lines.append(
            f"{dataset.snp_ids[i]}\t{dataset.positions[i]}\t{marg[i]:.6f}\t"
            f"{epi[i]:.6f}\t{assoc[i]:.6f}\t{bound[i]:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_interactions_tsv(path: str, dataset: GenotypeDataset, sets: dict) -> None:
    lines = ["#members\tfrequency"]
    for key, freq in sets.items():
        members = ",".join(dataset.snp_ids[i] for i in key)
        lines.append(f"{members}\t{freq:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- subcommands --------------------------------------------------------------


def cmd_chains(args) -> int:
    """`map` samples labels and block boundaries; `partition` boundaries only."""
    started = time.time()
    dataset = _load(args)
    priors, constraints = default_priors(
        dataset.n_snps,
        dataset.region_length,
        dataset.n_cases,
        dataset.n_controls,
        prior_blocks=args.prior_blocks,
        rho=args.rho,
        p1=args.p1,
        p2=args.p2,
        max_order=args.max_order,
    )
    schedule = _resolved_schedule(dataset, args)
    threads = args.threads if args.threads is not None else _default_threads()
    total = schedule.burnin + schedule.iterations
    sample_membership = args.subcommand == "map"
    summary, _, _ = run_chains(
        dataset,
        priors,
        schedule,
        n_chains=args.chains,
        base_seed=args.seed,
        constraints=constraints,
        sample_membership=sample_membership,
        threads=threads,
        progress=max(1, total // 10) if total else 0,
    )
    if summary.warning:
        print(f"warning: {summary.warning}", file=sys.stderr)
    outputs = [args.outfile]
    if sample_membership:
        _write_posterior_tsv(
            args.outfile,
            dataset,
            summary.marginal_posterior,
            summary.epistatic_posterior,
            summary.assoc_posterior,
            summary.boundary_posterior,
        )
        inter_path = args.outfile + ".interactions.tsv"
        _write_interactions_tsv(inter_path, dataset, summary.interaction_sets)
        outputs.append(inter_path)
    else:
        lines = ["#snp_id\tpos\tp_boundary"]
        for i in range(dataset.n_snps):
            lines.append(
                f"{dataset.snp_ids[i]}\t{dataset.positions[i]}\t{summary.boundary_posterior[i]:.6f}"
            )
        Path(args.outfile).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(args, [args.infile], outputs, started)
    return 0


def cmd_oracle(args) -> int:
    started = time.time()
    dataset = _load(args)
    priors, constraints = default_priors(
        dataset.n_snps,
        dataset.region_length,
        dataset.n_cases,
        dataset.n_controls,
        prior_blocks=args.prior_blocks,
        rho=args.rho,
        p1=args.p1,
        p2=args.p2,
        max_order=args.max_order,
    )
    result = enumerate_posterior(dataset, priors, constraints)
    _write_posterior_tsv(
        args.outfile,
        dataset,
        result.marginal_posterior,
        result.epistatic_posterior,
        result.assoc_posterior,
        result.boundary_posterior,
    )
    _write_manifest(
        args,
        [args.infile],
        [args.outfile],
        started,
        extra={
            "log_normalizer": result.log_normalizer,
            "states_enumerated": result.states_enumerated,
        },
    )
    return 0


def _read_sets_file(path: str, dataset: GenotypeDataset) -> list[tuple[int, ...]]:
    index = {sid: i for i, sid in enumerate(dataset.snp_ids)}
    sets: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members = []
        for tok in line.replace(",", " ").split():
            if tok not in index:
                raise DataFormatError(f"unknown SNP id {tok!r} in sets file", line=lineno)
            if index[tok] in members:
                raise DataFormatError(f"SNP id {tok!r} repeated in one set", line=lineno)
            members.append(index[tok])
        if members:
            sets.append(tuple(members))
    return sets


def _number(tok: str, where: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise DataFormatError(f"{tok!r} in {where} is not a number", line=lineno) from None


def _read_posterior_prefix(prefix: str, dataset: GenotypeDataset) -> SimpleNamespace:
    """Rebuild a posterior summary from `map` output files."""
    index = {sid: i for i, sid in enumerate(dataset.snp_ids)}
    assoc = np.zeros(dataset.n_snps)
    for lineno, raw in enumerate(Path(prefix).read_text(encoding="utf-8").splitlines(), start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        toks = raw.split("\t")
        if len(toks) != 6:
            raise DataFormatError("posterior rows need 6 columns", line=lineno)
        if toks[0] not in index:
            raise DataFormatError(f"unknown SNP id {toks[0]!r} in posterior file", line=lineno)
        assoc[index[toks[0]]] = _number(toks[4], "posterior file", lineno)
    sets: dict[tuple[int, ...], float] = {}
    inter_path = Path(prefix + ".interactions.tsv")
    if inter_path.exists():
        for lineno, raw in enumerate(inter_path.read_text(encoding="utf-8").splitlines(), start=1):
            if raw.startswith("#") or not raw.strip():
                continue
            toks = raw.split("\t")
            if len(toks) != 2:
                raise DataFormatError("interaction rows need 2 columns", line=lineno)
            members = toks[0].split(",")
            for k, sid in enumerate(members):
                if sid not in index:
                    raise DataFormatError(
                        f"unknown SNP id {sid!r} in interactions file", line=lineno
                    )
                if sid in members[:k]:
                    raise DataFormatError(f"SNP id {sid!r} repeated in one set", line=lineno)
            sets[tuple(index[sid] for sid in members)] = _number(
                toks[1], "interactions file", lineno
            )
    return SimpleNamespace(assoc_posterior=assoc, interaction_sets=sets)


def score_sets(
    dataset: GenotypeDataset,
    sets,
    alpha: float,
    n_tests: int | None = None,
    rho: float = 1.5,
    mode: str = "permutation",
    n_perm: int = 1000,
    seed: int = 0,
    max_order: int | None = None,
) -> list[BStatResult]:
    """Test each SNP set in order and flag Bonferroni significance.

    Set k is calibrated with seed ``seed + k``. In analytic mode the shift
    constant is fit at the first set of each size and reused for the later
    sets of that size. The per-test level is ``alpha / n_tests``, with
    ``n_tests`` defaulting to C(L, M) for a size-M set.
    """
    constants: dict[int, float] = {}
    results: list[BStatResult] = []
    for offset, snps in enumerate(sets):
        m = len(snps)
        b = bstat(dataset, snps, rho=rho, max_order=max_order)
        if mode == "analytic" and m not in constants:
            constants[m] = fit_shift_constant(dataset, snps, rho=rho, n_perm=n_perm, seed=seed + offset)
        cal = null_calibration(
            dataset.n_cases,
            dataset.n_controls,
            m,
            rho=rho,
            mode=mode,
            dataset=dataset,
            snp_set=snps,
            n_perm=n_perm,
            seed=seed + offset,
            shift_constant=constants.get(m),
        )
        p = cal.p_value(b)
        nt = n_tests if n_tests is not None else math.comb(dataset.n_snps, m)
        results.append(
            BStatResult(
                snp_set=snps,
                b_value=b,
                df=cal.df,
                shift=cal.shift,
                p_value=p,
                calibration=cal.mode,
                significant=bool(p < alpha / max(nt, 1)),
            )
        )
    return results


def cmd_bstat(args) -> int:
    started = time.time()
    dataset = _load(args)
    if args.sets is not None:
        inputs = [args.infile, args.sets]
        sets = _read_sets_file(args.sets, dataset)
    else:
        inputs = [args.infile, args.from_posterior]
        summary = _read_posterior_prefix(args.from_posterior, dataset)
        sets = posterior_candidates(summary, args.threshold)
    results = score_sets(
        dataset,
        sets,
        alpha=args.alpha,
        n_tests=args.n_tests,
        rho=args.rho,
        mode=args.calibration,
        n_perm=args.n_perm,
        seed=args.seed,
        max_order=args.max_order,
    )
    Path(args.outfile).write_text(results_to_tsv(results, dataset.snp_ids), encoding="utf-8")
    _write_manifest(args, inputs, [args.outfile], started)
    return 0


def cmd_simulate(args) -> int:
    started = time.time()
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
        pool_size=args.pool_size,
        seed=args.seed + 1,
    )
    if not args.keep_loci:
        sim = drop_loci(sim)
    write_dataset(sim.dataset, args.outfile)
    truth_path = args.outfile + ".truth.tsv"
    write_truth(sim.truth, truth_path)
    _write_manifest(
        args,
        [],
        [args.outfile, truth_path],
        started,
        extra={"theta": model.theta, "loci": list(model.loci)},
    )
    return 0


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
        _add_model_args(p_chain)
        _add_mcmc_args(p_chain)
        p_chain.set_defaults(func=cmd_chains)

    p_oracle = subs.add_parser("oracle", help="exact posterior by exhaustive enumeration")
    _add_io_args(p_oracle)
    _add_model_args(p_oracle)
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
    p_bstat.add_argument("--threshold", type=float, default=0.5, help="posterior cutoff")
    p_bstat.add_argument(
        "--calibration", choices=("permutation", "analytic"), default="permutation"
    )
    p_bstat.add_argument("--n-perm", type=int, default=1000, help="permutation replicates")
    p_bstat.add_argument("--alpha", type=float, default=0.05, help="family-wise level")
    p_bstat.add_argument(
        "--n-tests", type=int, default=None, help="Bonferroni divisor (default C(L, M))"
    )
    p_bstat.add_argument("--rho", type=_positive_float, default=1.5, help="Dirichlet scale")
    p_bstat.add_argument("--max-order", type=int, default=None, help="cap on set size")
    p_bstat.add_argument("--seed", type=int, default=0, help="permutation RNG seed")
    p_bstat.set_defaults(func=cmd_bstat)

    p_sim = subs.add_parser("simulate", help="draw a case-control panel with known truth")
    p_sim.add_argument("--out", dest="outfile", required=True, help="output dataset TSV")
    p_sim.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p_sim.add_argument("--maf", type=_maf_arg, required=True, help="disease allele frequency")
    p_sim.add_argument(
        "--effect",
        type=_nonneg_float,
        default=0.0,
        help="marginal log odds ratio per locus (0 gives the null model)",
    )
    p_sim.add_argument("--theta", type=_nonneg_float, default=None, help="risk parameter, overrides --effect")
    p_sim.add_argument("--cases", type=int, default=1000)
    p_sim.add_argument("--controls", type=int, default=1000)
    p_sim.add_argument("--snps", type=int, default=100, help="SNPs in the written panel")
    p_sim.add_argument("--block-width", type=int, default=5)
    p_sim.add_argument("--founders", type=int, default=4)
    p_sim.add_argument("--pool-size", type=int, default=None)
    p_sim.add_argument(
        "--keep-loci",
        action="store_true",
        help="keep the disease loci in the panel instead of dropping them",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
