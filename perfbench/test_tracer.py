"""Tests of the benchmark's own tracer.

Run from the root of the checkout: ``python3 -m pytest -q perfbench/test_tracer.py``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import Tracer  # noqa: E402
import worker  # noqa: E402

CALL_SITES = [
    ("beamscan.cli", None, "load_dataset"),
    ("beamscan.cli", None, "run_chains"),
    ("beamscan.cli", None, "bstat"),
    ("beamscan.cli", None, "null_calibration"),
    ("beamscan.cli", None, "enumerate_posterior"),
    ("beamscan.mcmc", None, "run_chain"),
    ("beamscan.mcmc", None, "propose_block_move"),
    ("beamscan.mcmc", None, "accept"),
    ("beamscan.mcmc", None, "gibbs_membership_sweep"),
    ("beamscan.mcmc", None, "swap_membership_move"),
    ("beamscan.mcmc", "ChainState", "log_joint"),
    ("beamscan.model", "JointModel", "block_term"),
    ("beamscan.model", "JointModel", "group2_term"),
    ("beamscan.likelihood", "LikelihoodEngine", "marginal"),
    ("beamscan.likelihood", "LikelihoodEngine", "distinct_count"),
    ("beamscan.bstat", None, "permutation_null"),
]


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def inner(cost):
        clock.now += cost

    def outer():
        clock.now += 3.0
        traced_inner(2.0)
        clock.now += 1.0
        traced_inner(4.0)

    traced_inner = tracer.wrap(inner, "layer.inner")
    tracer.wrap(outer, "layer.outer")()

    assert tracer.count("layer.outer") == 1
    assert tracer.total("layer.outer") == 10.0
    assert tracer.self_time("layer.outer") == 10.0 - 6.0
    assert tracer.count("layer.inner") == 2
    assert tracer.self_time("layer.inner") == tracer.total("layer.inner") == 6.0
    assert set(tracer.stats) == {("layer.outer", None, ""), ("layer.inner", "layer.outer", "")}
    assert tracer.layer_self_times() == {"layer": 10.0}


def test_memo_keys_split_cold_and_hit_calls():
    tracer = Tracer()
    square = tracer.wrap(lambda x: x * x, "m.square", key=lambda a, kw: a[0])
    for x in (1, 2, 1, 1, 3):
        square(x)
    assert tracer.count("m.square", "cold") == 3
    assert tracer.count("m.square", "hit") == 2


def _site(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    return vars(owner)[attr]


def test_traced_run_restores_every_rebound_attribute(tmp_path):
    cli = importlib.import_module("beamscan.cli")
    panel = tmp_path / "panel.tsv"
    assert cli.main(
        ["simulate", "--out", str(panel), "--model", "2", "--maf", "0.3", "--effect", "1.5",
         "--cases", "40", "--controls", "40", "--snps", "12", "--seed", "3"]
    ) == 0
    before = [_site(*site) for site in CALL_SITES]

    tracer = Tracer()
    obs = worker.install_tracer(tracer)
    assert all(_site(*site) is not orig for site, orig in zip(CALL_SITES, before))
    try:
        rc = tracer.wrap(cli.main, "cli.main")(
            ["map", "--in", str(panel), "--out", str(tmp_path / "post.tsv"), "--burnin", "5",
             "--iters", "20", "--chains", "1", "--threads", "1", "--seed", "1"]
        )
    finally:
        tracer.restore()

    assert rc == 0
    assert [_site(*site) for site in CALL_SITES] == before
    metrics = worker.per_layer_metrics(tracer, obs, n_snps=12)
    assert tracer.count("mcmc.gibbs_membership_sweep") == 25
    assert metrics["model.block_term_calls"] > metrics["model.block_term_cold"] > 0
    assert metrics["cli.self_s"] < tracer.total("cli.main")
