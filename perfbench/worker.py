"""One timed ``beamscan`` command in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<spec json>'`` where the spec holds
``src`` (the directory holding the ``beamscan`` package), ``argv`` (the CLI
arguments), ``result`` (where to write this process's JSON report), ``trace``
(0 or 1) and ``n_snps``.

The report carries ``ready`` (``time.monotonic()`` once ``beamscan.cli`` is
imported, so the parent can compute set-up time from its spawn time),
``wall_s`` (the ``cli.main`` call), ``rc``, ``error``, ``peak_rss_mb``,
``reference_task_s`` (the median time of a fixed task run just before and just
after the command in this process, which tracks the machine's current speed) and,
when tracing, ``per_layer``, ``layers`` (self time per layer),
``call_overhead_s`` (the tracer's cost per call) and ``layers_corrected``
(layer self times with that cost taken out of each caller).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback


def logjoint_ess(trace) -> float:
    """Effective sample size by Geyer's initial monotone sequence estimator."""
    import numpy as np

    x = np.asarray(trace, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    if not np.any(x):
        return float(n)
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    pair_sum = 0.0
    prev = math.inf
    for k in range(0, n - 1, 2):
        p = rho[k] + rho[k + 1]
        if p <= 0.0:
            break
        prev = min(prev, p)
        pair_sum += prev
    tau = max(2.0 * pair_sum - 1.0, 1.0 / n)
    return float(n / tau)


def reference_task(n: int = 40_000) -> int:
    """A fixed interpreter-bound task: dict, tuple and float work like the sampler's."""
    d: dict = {}
    for i in range(n):
        k = (i & 1023, i % 7)
        d[k] = d.get(k, 0.0) + math.exp(-(i & 15))
    return len(d)


def reference_times(reps: int = 5) -> list[float]:
    """Seconds per reference task, timed with the cyclic collector off."""
    gc.disable()
    try:
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            reference_task()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        gc.enable()


def install_tracer(tracer):
    """Rebind the public call sites; returns the dict the observers fill."""
    from importlib import import_module

    from beamscan.likelihood import LikelihoodEngine
    from beamscan.mcmc import ChainState
    from beamscan.model import JointModel

    # `beamscan.bstat` is shadowed by the function of that name in the package namespace
    cli = import_module("beamscan.cli")
    mcmc = import_module("beamscan.mcmc")
    bstat = import_module("beamscan.bstat")

    obs = {"noop": 0, "chains": [], "perm": {}, "n_perm": 0, "states": 0}

    def on_propose(args, kwargs, result, seconds):
        if result is None:
            obs["noop"] += 1

    def on_chain(args, kwargs, result, seconds):
        obs["chains"].append(result)

    def on_perm(args, kwargs, result, seconds):
        n_perm = len(result)
        obs["n_perm"] += n_perm
        m = len(args[1] if len(args) > 1 else kwargs["snp_set"])
        obs["perm"].setdefault(m, []).append(seconds / max(n_perm, 1))

    def on_oracle(args, kwargs, result, seconds):
        obs["states"] += result.states_enumerated

    def memo_key(args, kwargs):  # the memos key on the arguments after self, per instance
        return (id(args[0]),) + args[1:]

    rebinds = [
        (cli, "load_dataset", "dataio.load_dataset", None, None),
        (cli, "run_chains", "mcmc.run_chains", None, None),
        (cli, "bstat", "bstat.bstat", None, None),
        (cli, "null_calibration", "bstat.null_calibration", None, None),
        (cli, "enumerate_posterior", "oracle.enumerate_posterior", None, on_oracle),
        (mcmc, "run_chain", "mcmc.run_chain", None, on_chain),
        (mcmc, "propose_block_move", "mcmc.propose_block_move", None, on_propose),
        (mcmc, "accept", "mcmc.accept", None, None),
        (mcmc, "gibbs_membership_sweep", "mcmc.gibbs_membership_sweep", None, None),
        (mcmc, "swap_membership_move", "mcmc.swap_membership_move", None, None),
        (ChainState, "log_joint", "mcmc.ChainState.log_joint", None, None),
        (JointModel, "block_term", "model.JointModel.block_term", memo_key, None),
        (JointModel, "group2_term", "model.JointModel.group2_term", memo_key, None),
        (LikelihoodEngine, "marginal", "likelihood.LikelihoodEngine.marginal", memo_key, None),
        (
            LikelihoodEngine,
            "distinct_count",
            "likelihood.LikelihoodEngine.distinct_count",
            memo_key,
            None,
        ),
        (bstat, "permutation_null", "bstat.permutation_null", None, on_perm),
    ]
    for owner, attr, name, key, observe in rebinds:
        tracer.rebind(owner, attr, name, key=key, observe=observe)
    return obs


def per_layer_metrics(tracer, obs, n_snps: int) -> dict[str, float]:
    """Every per-layer metric this process can measure; 0 where a layer did not run."""
    t = tracer
    us, ms = 1e6, 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    marg = "likelihood.LikelihoodEngine.marginal"
    dist = "likelihood.LikelihoodEngine.distinct_count"
    bt = "model.JointModel.block_term"
    g2 = "model.JointModel.group2_term"
    gibbs = "mcmc.gibbs_membership_sweep"
    swap = "mcmc.swap_membership_move"
    accept = "mcmc.accept"
    logj = "mcmc.ChainState.log_joint"

    acceptance: dict[str, list[float]] = {}
    ess = []
    for chain in obs["chains"]:
        for k, v in chain.acceptance.items():
            acceptance.setdefault(k, []).append(v)
        ess.append(logjoint_ess(chain.log_joint_trace))

    def mean_acceptance(kind):
        vals = acceptance.get(kind, [])
        return sum(vals) / len(vals) if vals else 0.0

    def perm_us(m):
        vals = obs["perm"].get(m, [])
        return statistics.median(vals) * us if vals else 0.0

    n_marg = t.count(marg)
    n_bt = t.count(bt)
    n_sweeps = t.count(gibbs)
    return {
        "dataio.load_s": t.total("dataio.load_dataset"),
        "likelihood.marginal_calls": n_marg,
        "likelihood.marginal_cold": t.count(marg, "cold"),
        "likelihood.marginal_hit_ratio": ratio(t.count(marg, "hit"), n_marg),
        "likelihood.cold_us_p50": t.quantile(marg, 0.5, "cold") * us,
        "likelihood.cold_us_p99": t.quantile(marg, 0.99, "cold") * us,
        "likelihood.self_s": t.self_time(marg) + t.self_time(dist),
        "likelihood.distinct_calls": t.count(dist),
        "likelihood.distinct_cold": t.count(dist, "cold"),
        "model.block_term_calls": n_bt,
        "model.block_term_cold": t.count(bt, "cold"),
        "model.block_term_hit_ratio": ratio(t.count(bt, "hit"), n_bt),
        "model.block_term_self_s": t.self_time(bt),
        "model.group2_calls": t.count(g2),
        "model.group2_cold": t.count(g2, "cold"),
        "model.group2_self_s": t.self_time(g2),
        "mcmc.gibbs_sweep_ms_p50": t.quantile(gibbs, 0.5) * ms,
        "mcmc.gibbs_sweep_ms_p99": t.quantile(gibbs, 0.99) * ms,
        "mcmc.gibbs_us_per_snp": ratio(t.total(gibbs), n_sweeps * n_snps) * us,
        "mcmc.swap_pass_ms_p50": t.quantile(swap, 0.5) * ms,
        "mcmc.swap_pass_ms_p99": t.quantile(swap, 0.99) * ms,
        "mcmc.block_move_us_p50": t.quantile(accept, 0.5) * us,
        "mcmc.block_move_us_p99": t.quantile(accept, 0.99) * us,
        "mcmc.trace_log_joint_self_s": t.self_time(logj),
        "mcmc.trace_log_joint_total_s": t.total(logj),
        "mcmc.chain_self_s": t.self_time("mcmc.run_chain"),
        "mcmc.split_accept_ratio": mean_acceptance("split"),
        "mcmc.merge_accept_ratio": mean_acceptance("merge"),
        "mcmc.shift_accept_ratio": mean_acceptance("shift"),
        "mcmc.block_noop_ratio": ratio(obs["noop"], t.count("mcmc.propose_block_move")),
        "mcmc.swap_accept_ratio": mean_acceptance("swap"),
        "mcmc.gibbs_change_ratio": mean_acceptance("gibbs_change"),
        "mcmc.logjoint_ess": sum(ess) / len(ess) if ess else 0.0,
        "bstat.perm_rep_us_m1": perm_us(1),
        "bstat.perm_rep_us_m2": perm_us(2),
        "bstat.perm_rep_us_m3": perm_us(3),
        "bstat.statistic_calls": t.count("bstat.bstat") + obs["n_perm"],
        "bstat.calibration_self_s": t.self_time("bstat.null_calibration"),
        "oracle.enumerate_self_s": t.self_time("oracle.enumerate_posterior"),
        "oracle.states_enumerated": obs["states"],
        "cli.self_s": t.self_time("cli.main"),
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    import beamscan.cli as cli  # this import is the set-up being timed

    report = {"ready": time.monotonic(), "rc": None, "error": None}
    tracer = obs = None
    main_fn = cli.main
    if spec["trace"]:
        from tracer import Tracer, call_overhead

        report["call_overhead_s"] = call_overhead()
        tracer = Tracer()
        obs = install_tracer(tracer)
        main_fn = tracer.wrap(cli.main, "cli.main")
    reference = reference_times()
    t0 = time.perf_counter()
    try:
        report["rc"] = main_fn(spec["argv"])
    except (Exception, SystemExit) as exc:  # argparse reports usage errors by SystemExit
        report["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        report["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    report["reference_task_s"] = statistics.median(reference + reference_times())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and report["error"] is None:
        report["per_layer"] = per_layer_metrics(tracer, obs, spec["n_snps"])
        report["layers"] = tracer.layer_self_times()
        report["layers_corrected"] = tracer.layer_self_times(report["call_overhead_s"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if report["rc"] == 0 and report["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
