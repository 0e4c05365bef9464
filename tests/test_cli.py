"""End-to-end command-line flows, run in process via main(argv)."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import beamscan
from beamscan import cli, simulate
from beamscan.bstat import bstat, null_calibration
from beamscan.cli import EXIT_CODES, build_parser, main
from beamscan.dataio import GenotypeDataset, load_dataset, write_dataset
from beamscan.mcmc import COUNTERS, default_schedule
from beamscan.model import default_priors
from beamscan.oracle import enumerate_posterior
from beamscan.simulate import read_truth


README = Path(__file__).resolve().parents[1] / "README.md"


def read_posterior(path):
    rows = [
        line.split("\t")
        for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return {
        "ids": [r[0] for r in rows],
        "pos": np.array([int(r[1]) for r in rows]),
        "marginal": np.array([float(r[2]) for r in rows]),
        "epistatic": np.array([float(r[3]) for r in rows]),
        "assoc": np.array([float(r[4]) for r in rows]),
        "boundary": np.array([float(r[5]) for r in rows]),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def signal_panel(workdir):
    """Kept-loci model-2 panel with a strong signal at SNPs 2 and 12."""
    path = workdir / "signal.tsv"
    rc = main([
        "simulate", "--out", str(path), "--model", "2", "--maf", "0.3",
        "--theta", "3.0", "--cases", "80", "--controls", "80",
        "--snps", "15", "--keep-loci", "--seed", "5",
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def mapped(workdir, signal_panel):
    out = workdir / "signal.post.tsv"
    rc = main([
        "map", "--in", str(signal_panel), "--out", str(out),
        "--burnin", "400", "--iters", "2000", "--seed", "3",
    ])
    assert rc == 0
    return out


# -- simulate -------------------------------------------------------------------------


def test_simulate_writes_panel_truth_and_manifest(workdir):
    out = workdir / "panel.tsv"
    rc = main([
        "simulate", "--out", str(out), "--model", "1", "--maf", "0.2",
        "--effect", "1.0", "--cases", "30", "--controls", "25",
        "--snps", "40", "--seed", "2",
    ])
    assert rc == 0
    ds = load_dataset(out)
    assert ds.n_snps == 40  # loci dropped, panel keeps the requested width
    assert (ds.n_cases, ds.n_controls) == (30, 25)
    truth = read_truth(str(out) + ".truth.tsv")
    assert not truth.loci_present
    assert len(truth.windows) == 2
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 2
    assert manifest["theta"] > 0
    assert len(manifest["loci"]) == 2
    assert str(out) in manifest["outputs"]
    assert manifest["parameters"]["maf"] == 0.2
    assert "wall_clock_seconds" in manifest


def test_simulate_keep_loci_and_theta_override(workdir, signal_panel):
    ds = load_dataset(signal_panel)
    assert ds.n_snps == 15
    truth = read_truth(str(signal_panel) + ".truth.tsv")
    assert truth.loci_present and truth.windows is None
    assert truth.loci == (2, 12)
    manifest = json.loads(Path(str(signal_panel) + ".manifest.json").read_text())
    assert manifest["theta"] == 3.0  # --theta sets the risk parameter directly
    assert manifest["loci"] == [2, 12]


def test_simulate_refuses_effect_with_theta(tmp_path, capsys):
    # each sets the risk parameter, so naming both would silently drop one
    out = tmp_path / "both.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(out), "--model", "2", "--maf", "0.3",
              "--effect", "1", "--theta", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --theta: not allowed with argument --effect" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_null_effect_gives_theta_zero(workdir):
    out = workdir / "nulltheta.tsv"
    rc = main([
        "simulate", "--out", str(out), "--model", "3", "--maf", "0.25",
        "--cases", "10", "--controls", "10", "--snps", "10", "--seed", "1",
    ])
    assert rc == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["theta"] == 0.0


# -- map ------------------------------------------------------------------------------


def test_map_output_shape_and_manifest(workdir, signal_panel, mapped):
    post = read_posterior(mapped)
    assert Path(mapped).read_text().startswith(
        "#snp_id\tpos\tp_marginal\tp_epistatic\tp_assoc\tp_boundary\n"
    )
    assert len(post["ids"]) == 15
    assert post["ids"][0] == "snp0001"
    for key in ("marginal", "epistatic", "assoc", "boundary"):
        assert (post[key] >= 0).all() and (post[key] <= 1).all()
    np.testing.assert_allclose(
        post["assoc"], post["marginal"] + post["epistatic"], atol=2e-6
    )
    assert post["boundary"][0] == 1.0
    inter = Path(str(mapped) + ".interactions.tsv").read_text()
    assert inter.startswith("#members\tfrequency\n")
    manifest = json.loads(Path(str(mapped) + ".manifest.json").read_text())
    assert manifest["subcommand"] == "map"
    assert manifest["inputs"] == [str(signal_panel)]
    assert manifest["parameters"]["burnin"] == 400


def test_map_recovers_the_planted_signal(mapped):
    post = read_posterior(mapped)
    assoc = post["assoc"]
    assert assoc[2] > 0.9
    assert assoc[10:15].max() > 0.4  # locus 12 shares mass with its block tags
    outside = np.concatenate([assoc[5:10]])
    assert outside.max() < 0.2
    assert int(np.argmax(assoc)) == 2


def test_map_progress_comes_from_every_worker_chain(workdir, signal_panel, capfd):
    rc = main([
        "map", "--in", str(signal_panel), "--out", str(workdir / "progress.tsv"),
        "--burnin", "20", "--iters", "80", "--seed", "30", "--chains", "2", "--threads", "2",
    ])
    err = capfd.readouterr().err
    assert rc == 0
    lines = err.splitlines()
    for seed in (30, 31):
        mine = [line for line in lines if line.startswith(f"chain {seed} iteration ")]
        assert len(mine) == 10 and mine[-1].startswith(f"chain {seed} iteration 100/100 ")
    assert all(line.startswith("chain 3") for line in lines)


def test_map_reruns_are_byte_identical(workdir, signal_panel):
    a = workdir / "rerun_a.tsv"
    b = workdir / "rerun_b.tsv"
    for out in (a, b):
        rc = main([
            "map", "--in", str(signal_panel), "--out", str(out),
            "--burnin", "150", "--iters", "600", "--seed", "8",
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert (
        Path(str(a) + ".interactions.tsv").read_bytes()
        == Path(str(b) + ".interactions.tsv").read_bytes()
    )


def test_map_thread_count_does_not_change_output(workdir, signal_panel):
    one = workdir / "threads1.tsv"
    two = workdir / "threads2.tsv"
    for out, threads in ((one, "1"), (two, "2")):
        rc = main([
            "map", "--in", str(signal_panel), "--out", str(out),
            "--burnin", "150", "--iters", "600", "--seed", "8",
            "--chains", "2", "--threads", threads,
        ])
        assert rc == 0
    assert one.read_bytes() == two.read_bytes()


def test_map_manifest_records_per_chain_acceptance(workdir, signal_panel):
    out = workdir / "acceptance.tsv"
    rc = main([
        "map", "--in", str(signal_panel), "--out", str(out),
        "--burnin", "50", "--iters", "200", "--seed", "8", "--chains", "2",
    ])
    assert rc == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    rates = manifest["acceptance"]
    assert len(rates) == 2
    for chain in rates:
        assert set(chain) == {"split", "merge", "shift", "swap", "gibbs_change"}
        assert all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in chain.values())
    assert rates[0] != rates[1]


@pytest.mark.parametrize("subcommand", ["map", "partition"])
def test_chain_manifest_records_per_chain_counters(workdir, signal_panel, subcommand):
    out = workdir / f"counters_{subcommand}.tsv"
    rc = main([
        subcommand, "--in", str(signal_panel), "--out", str(out),
        "--burnin", "30", "--iters", "120", "--seed", "5", "--chains", "2", "--threads", "1",
    ])
    assert rc == 0
    counters = json.loads(Path(str(out) + ".manifest.json").read_text())["counters"]
    assert len(counters) == 2
    for chain in counters:
        assert set(chain) == set(COUNTERS)
        assert all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in chain.values())
        # one block draw per iteration: a no-op or a proposal of one kind
        kinds = ("split", "merge", "shift")
        assert chain["block_noop"] + sum(chain[f"{k}_proposed"] for k in kinds) == 150
        for name in (*kinds, "swap"):
            assert chain[f"{name}_accepted"] <= chain[f"{name}_proposed"]
        assert chain["gibbs_changes"] <= chain["gibbs_draws"]
        if subcommand == "map":
            assert chain["gibbs_draws"] == 150 * 15 and chain["swap_proposed"] > 0
        else:
            assert chain["gibbs_draws"] == chain["swap_proposed"] == 0
    assert "counters" not in out.read_text()


@pytest.mark.parametrize("subcommand", ["map", "partition"])
def test_chain_manifest_records_per_chain_kernel_seconds(workdir, signal_panel, subcommand):
    out = workdir / f"kernel_s_{subcommand}.tsv"
    rc = main([
        subcommand, "--in", str(signal_panel), "--out", str(out),
        "--burnin", "30", "--iters", "120", "--seed", "5", "--chains", "2", "--threads", "1",
    ])
    assert rc == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    kernel_s = manifest["kernel_s"]
    assert len(kernel_s) == 2
    for chain in kernel_s:
        assert set(chain) == {"block_move_s", "gibbs_s", "swap_s"}
        assert all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in chain.values())
        # one chain's kernels run inside the command's compute phase
        assert sum(chain.values()) <= manifest["phases"]["compute_s"]
        assert chain["block_move_s"] > 0.0
        if subcommand == "map":
            assert chain["gibbs_s"] > 0.0 and chain["swap_s"] > 0.0
        else:
            assert chain["gibbs_s"] == chain["swap_s"] == 0.0
    table = out.read_text()
    assert "kernel_s" not in table and "block_move_s" not in table


def manifest_keys(value):
    """Every key of a manifest value, nested ones included; the keys of
    ``parameters`` are argparse destinations, documented as their flags."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield key
            if key != "parameters":
                yield from manifest_keys(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from manifest_keys(inner)


def test_every_manifest_records_phases_peak_memory_and_memo_sizes(workdir, signal_panel):
    small = workdir / "observe_small.tsv"
    ds = load_dataset(signal_panel)
    write_dataset(
        GenotypeDataset(ds.cases[:, :6], ds.controls[:, :6], ds.snp_ids[:6], ds.positions[:6]),
        small,
    )
    sets_path = workdir / "observe_sets.tsv"
    sets_path.write_text("snp0003\n")
    chain = ["--burnin", "20", "--iters", "60", "--seed", "4", "--chains", "2", "--threads", "1"]
    runs = {
        "simulate": ["simulate", "--model", "1", "--maf", "0.3", "--cases", "40",
                     "--controls", "40", "--snps", "6", "--seed", "3"],
        "map": ["map", "--in", str(signal_panel), *chain],
        "partition": ["partition", "--in", str(signal_panel), *chain],
        "oracle": ["oracle", "--in", str(small)],
        "bstat": ["bstat", "--in", str(signal_panel), "--sets", str(sets_path),
                  "--n-perm", "500"],
    }
    keys = set()
    manifests = {}
    for name, argv in runs.items():
        out = workdir / f"observe_{name}.tsv"
        assert main([*argv, "--out", str(out)]) == 0, name
        manifest = manifests[name] = json.loads(Path(str(out) + ".manifest.json").read_text())
        keys.update(manifest_keys(manifest))
        phases = manifest["phases"]
        assert set(phases) == {"load_s", "compute_s", "write_s"}, name
        assert all(math.isfinite(v) and v >= 0.0 for v in phases.values()), name
        assert sum(phases.values()) <= manifest["wall_clock_seconds"] + 1e-3, name
        assert math.isfinite(manifest["peak_rss_mb"]) and manifest["peak_rss_mb"] > 0, name
        if name in ("map", "partition"):
            assert len(manifest["cache"]) == 2, name
        if name in ("map", "partition", "oracle"):
            caches = manifest["cache"] if name != "oracle" else [manifest["cache"]]
            for cache in caches:
                counts = {"marginals", "block_terms"}
                assert set(cache) == counts | {"marginal_cold_s"}, name
                assert all(isinstance(cache[k], int) and cache[k] >= 0 for k in counts), name
                assert cache["marginals"] > 0 and cache["block_terms"] > 0, name
                cold_s = cache["marginal_cold_s"]
                assert isinstance(cold_s, float) and math.isfinite(cold_s) and cold_s >= 0.0, name
        else:
            assert "cache" not in manifest, name
        # nothing of this goes into a result table
        table = out.read_text()
        assert "peak_rss" not in table and "phases" not in table, name
        assert "marginal_cold_s" not in table, name

    # the parameters are the values that ran, the panel's defaults resolved
    assert main(["map", "--in", str(small), "--out", str(workdir / "observe_defaults.tsv")]) == 0
    defaults = workdir / "observe_defaults.tsv.manifest.json"
    manifests["map-defaults"] = json.loads(defaults.read_text())
    six = load_dataset(small)
    schedule = default_schedule(six.n_snps)
    priors = default_priors(six.n_snps, six.region_length, six.n_cases, six.n_controls)
    for name, (burnin, iters, threads) in {
        "map": (20, 60, 1), "partition": (20, 60, 1),
        "map-defaults": (schedule.burnin, schedule.iterations, cli._default_threads()),
    }.items():
        params = manifests[name]["parameters"]
        ran = (params["burnin"], params["iters"], params["threads"])
        assert ran == (burnin, iters, threads), name
    for name in ("map-defaults", "oracle"):
        params = manifests[name]["parameters"]
        assert (params["p1"], params["p2"], params["max_order"]) == (
            priors.p1, priors.p2, priors.max_order
        ), name
    assert manifests["bstat"]["parameters"]["n_tests"] is None  # C(L, M) per set

    # the README, the user contract, names every manifest key, flag and exit code
    readme = README.read_text(encoding="utf-8")
    assert sorted(keys - set(re.findall(r"`([^`\n]+)`", readme))) == []
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for p in (parser, *subparsers.choices.values())
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert "--version" in options and "--n-tests" in options
    # a whole token, so that --in cannot match inside --iters
    assert [o for o in sorted(options) if not re.search(rf"(?<![\w-]){o}(?![\w-])", readme)] == []
    for kind, code in EXIT_CODES:
        assert re.search(rf"^\| {code} \|.*`{kind.__name__}`", readme, re.M), kind
    # and every fixed choice of the simulator, a numeric constant of its module
    fixed = [n for n, v in vars(simulate).items() if n.isupper() and isinstance(v, (int, float))]
    assert "OTHER_FOUNDER_FLOOR" in fixed and "BLOCK_WIDTH_DEFAULT" in fixed
    assert [n for n in fixed if not re.search(rf"`(simulate\.)?{n}`", readme)] == []


def test_map_on_null_panel_stays_quiet(workdir):
    null = workdir / "nullpanel.tsv"
    rc = main([
        "simulate", "--out", str(null), "--model", "1", "--maf", "0.25",
        "--effect", "0.0", "--cases", "400", "--controls", "400",
        "--snps", "15", "--seed", "9",
    ])
    assert rc == 0
    post_path = workdir / "nullpanel.post.tsv"
    rc = main([
        "map", "--in", str(null), "--out", str(post_path), "--seed", "4",
        "--chains", "2", "--burnin", "800", "--iters", "2500",
    ])
    assert rc == 0
    assoc = read_posterior(post_path)["assoc"]
    assert float(assoc.max()) < 0.15
    assert float(assoc.mean()) < 0.03


# -- partition -------------------------------------------------------------------------


def test_partition_output(workdir, signal_panel):
    out = workdir / "part.tsv"
    rc = main([
        "partition", "--in", str(signal_panel), "--out", str(out),
        "--burnin", "200", "--iters", "800", "--seed", "6",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#snp_id\tpos\tp_boundary"
    assert len(lines) == 16
    first = lines[1].split("\t")
    assert first[0] == "snp0001" and first[2] == "1.000000"
    values = [float(l.split("\t")[2]) for l in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)
    # partition has no label flags, so its manifest lists no label priors
    params = json.loads(Path(f"{out}.manifest.json").read_text())["parameters"]
    assert {"p1", "p2", "max_order", "thin"}.isdisjoint(params) and params["rho"] == 1.5


# -- oracle ----------------------------------------------------------------------------


def hot_column_dataset(seed, n_per_arm, n_snps, hot):
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.2, 0.5, size=n_snps)
    draw = lambda m: ((rng.random((m, n_snps)) < freq).astype(np.int8)
                      + (rng.random((m, n_snps)) < freq).astype(np.int8))
    cases = draw(n_per_arm)
    controls = draw(n_per_arm)
    cases[:, hot] = (rng.random(n_per_arm) < 0.85).astype(np.int8) * 2
    controls[:, hot] = (rng.random(n_per_arm) < 0.15).astype(np.int8) * 2
    return GenotypeDataset(
        cases=cases,
        controls=controls,
        snp_ids=tuple(f"s{i}" for i in range(n_snps)),
        positions=tuple(100 * i + 1 for i in range(n_snps)),
    )


def test_oracle_matches_library_enumeration(workdir):
    ds = hot_column_dataset(77, 30, 5, hot=2)
    infile = workdir / "oracle_in.tsv"
    write_dataset(ds, infile)
    out = workdir / "oracle_out.tsv"
    rc = main(["oracle", "--in", str(infile), "--out", str(out)])
    assert rc == 0
    post = read_posterior(out)
    priors = default_priors(5, ds.region_length, 30, 30)
    exact = enumerate_posterior(ds, priors)
    np.testing.assert_allclose(post["assoc"], exact.assoc_posterior, atol=1.1e-6)
    np.testing.assert_allclose(post["boundary"], exact.boundary_posterior, atol=1.1e-6)
    assert post["assoc"][2] > 0.9
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["states_enumerated"] == 2**4 * (2**5 + 5 * 2**4)
    assert manifest["log_normalizer"] == pytest.approx(exact.log_normalizer, abs=1e-9)


def test_oracle_empty_cohorts_echo_the_prior(workdir):
    ds = GenotypeDataset(
        cases=np.zeros((0, 1), np.int8),
        controls=np.zeros((0, 1), np.int8),
        snp_ids=("lone",),
        positions=(42,),
    )
    infile = workdir / "empty.tsv"
    write_dataset(ds, infile)
    out = workdir / "empty_out.tsv"
    rc = main(["oracle", "--in", str(infile), "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[1].split("\t")
    assert row == ["lone", "42", "0.100000", "0.100000", "0.200000", "1.000000"]


def test_oracle_guard_exit_code(workdir):
    rng = np.random.default_rng(78)
    ds = GenotypeDataset(
        cases=rng.integers(0, 3, (20, 11)).astype(np.int8),
        controls=rng.integers(0, 3, (20, 11)).astype(np.int8),
        snp_ids=tuple(f"s{i}" for i in range(11)),
        positions=tuple(10 * i + 1 for i in range(11)),
    )
    infile = workdir / "wide.tsv"
    write_dataset(ds, infile)
    rc = main(["oracle", "--in", str(infile), "--out", str(workdir / "wide_out.tsv")])
    assert rc == 4


@pytest.mark.parametrize("command", [
    ["oracle"],
    ["map"],
    ["partition"],
    ["map", "--chains", "2", "--threads", "2"],
], ids=["oracle", "map", "partition", "map-two-workers"])
def test_every_partition_over_the_cap_exits_4(workdir, capfd, command, request):
    # 30 individuals give a cap of 2 distinct diplotypes per block; SNP 1 shows
    # all three genotypes, so every block that holds it is over the cap.
    rng = np.random.default_rng(80)
    cases = rng.integers(0, 2, (15, 3)).astype(np.int8)
    controls = rng.integers(0, 2, (15, 3)).astype(np.int8)
    cases[:3, 1] = (0, 1, 2)
    ds = GenotypeDataset(
        cases=cases,
        controls=controls,
        snp_ids=("a", "b", "c"),
        positions=(1, 2, 3),
    )
    infile = workdir / "over_cap.tsv"
    write_dataset(ds, infile)
    outdir = workdir / f"over_cap_{request.node.callspec.id}"
    outdir.mkdir()
    capfd.readouterr()
    rc = main([*command, "--in", str(infile), "--out", str(outdir / "out.tsv")])
    err = capfd.readouterr().err
    assert rc == 4
    assert "SNP b (index 1) is over the diplotype cap" in err
    assert "every partition violates the diplotype cap" in err
    assert "Traceback" not in err
    assert list(outdir.iterdir()) == []  # no TSV and no manifest


# -- bstat -----------------------------------------------------------------------------


def test_bstat_sets_flow(workdir, signal_panel):
    ds = load_dataset(signal_panel)
    sets_path = workdir / "sets.tsv"
    sets_path.write_text(
        "# candidate sets\n"
        "snp0003\n"
        "\n"
        "snp0003\tsnp0013\n"
        "snp0005,snp0006\n"
        "snp0007 snp0008\n"
    )
    out = workdir / "bstat_sets.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
        "--out", str(out), "--n-perm", "600", "--seed", "2",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#snp_ids\tm\t")
    rows = [l.split("\t") for l in lines[1:]]
    assert [r[0] for r in rows] == [
        "snp0003", "snp0003,snp0013", "snp0005,snp0006", "snp0007,snp0008"
    ]
    assert [r[1] for r in rows] == ["1", "2", "2", "2"]
    assert float(rows[0][2]) == pytest.approx(bstat(ds, (2,)), rel=1e-4)
    assert rows[0][6] == "permutation"
    # the planted single is overwhelming, the noise pair is not
    assert rows[0][7] == "1"
    assert rows[2][7] == "0"
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert str(sets_path) in manifest["inputs"]


def test_bstat_sets_analytic_calibration(workdir, signal_panel):
    sets_path = workdir / "sets_one.tsv"
    sets_path.write_text("snp0003\n")
    out = workdir / "bstat_analytic.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
        "--out", str(out), "--calibration", "analytic",
        "--n-perm", "500", "--seed", "3",
    ])
    assert rc == 0
    row = out.read_text().splitlines()[1].split("\t")
    assert row[6] == "analytic"
    assert 0.0 <= float(row[5]) <= 1.0


def test_bstat_analytic_shift_ignores_earlier_runs(workdir, signal_panel):
    """Each run fits its own constants, so in-process runs match fresh processes."""
    src = str(Path(beamscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name, text in (("order_a", "snp0003\nsnp0005\nsnp0005,snp0006\n"),
                       ("order_b", "snp0005,snp0006\nsnp0005\nsnp0003\n")):
        sets_path = workdir / f"{name}.sets.tsv"
        sets_path.write_text(text)
        outputs = []
        for where in ("in-process", "subprocess"):
            out = workdir / f"{name}.{where}.tsv"
            argv = ["bstat", "--in", str(signal_panel), "--sets", str(sets_path),
                    "--out", str(out), "--calibration", "analytic",
                    "--n-perm", "600", "--seed", "1"]
            if where == "in-process":
                assert main(argv) == 0
            else:
                subprocess.run([sys.executable, "-m", "beamscan.cli", *argv],
                               env=env, check=True, timeout=120)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_bstat_analytic_needs_500_permutations(workdir, signal_panel, capsys):
    sets_path = workdir / "sets_one.tsv"
    sets_path.write_text("snp0003\n")
    out = workdir / "bstat_nperm0.tsv"
    with pytest.raises(SystemExit) as exc:  # argparse's usage error, before the panel is read
        main([
            "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
            "--out", str(out), "--calibration", "analytic", "--n-perm", "499",
        ])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --n-perm: must be at least 500" in err and "Warning" not in err
    assert not out.exists()


def test_bstat_analytic_on_two_cases_and_two_controls_exits_2(workdir, capsys):
    panel = workdir / "two_by_two.tsv"
    panel.write_text("#snp\ta\tb\n#pos\t5\t9\n1\t0\t1\n1\t1\t2\n0\t2\t0\n0\t1\t1\n")
    sets_path = workdir / "two_by_two.sets"
    sets_path.write_text("a\n")
    out = workdir / "two_by_two.bstat.tsv"
    argv = ["bstat", "--in", str(panel), "--sets", str(sets_path), "--out", str(out),
            "--n-perm", "500"]
    rc = main(argv + ["--calibration", "analytic"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "2 cases and 2 controls" in err and "permutation calibration" in err
    assert "Traceback" not in err
    assert main(argv) == 0  # permutation calibration still works


@pytest.mark.parametrize("calibration", ["permutation", "analytic"])
@pytest.mark.parametrize("rows, empty", [
    ("0\t0\t1\n0\t1\t2\n0\t2\t0\n", "cases"),
    ("", "cases and no controls"),
], ids=["controls-only", "header-only"])
def test_bstat_without_a_cohort_exits_4(tmp_path, capsys, rows, empty, calibration):
    # a set test compares the cohorts, so a missing one is a constraint, not a usage error
    panel = tmp_path / "panel.tsv"
    panel.write_text("#snp\ta\tb\n#pos\t5\t9\n" + rows)
    (tmp_path / "sets.tsv").write_text("a\na,b\n")
    out = tmp_path / "out.tsv"
    rc = main(["bstat", "--in", str(panel), "--sets", str(tmp_path / "sets.tsv"),
               "--out", str(out), "--calibration", calibration])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"the panel has no {empty}; a set test needs both cohorts" in err
    assert "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_bstat_empty_sets_file(workdir, signal_panel):
    sets_path = workdir / "sets_empty.tsv"
    sets_path.write_text("# nothing here\n\n")
    out = workdir / "bstat_empty.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
        "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines() == [
        "#snp_ids\tm\tb_value\tdf\tshift\tp_value\tcalibration\tsignificant"
    ]


def test_bstat_repeated_set_is_tested_once_per_listing(workdir, signal_panel, monkeypatch):
    # a set listed twice is neither refused nor merged: each listing gets its
    # own row, calibrated with the seed of its place in the list
    import beamscan.cli as cli

    seeds = []

    def recording(*args, seed, **kwargs):
        seeds.append(seed)
        return null_calibration(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "null_calibration", recording)
    twice = workdir / "sets_twice.tsv"
    twice.write_text("snp0003\nsnp0003\n")
    once = workdir / "sets_once.tsv"
    once.write_text("snp0003\n")
    rows = {}
    for name, sets_path, seed in (("twice", twice, 7), ("at7", once, 7), ("at8", once, 8)):
        out = workdir / f"bstat_{name}.tsv"
        assert main([
            "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
            "--out", str(out), "--n-perm", "500", "--seed", str(seed),
        ]) == 0
        rows[name] = out.read_text().splitlines()[1:]
    assert seeds == [7, 8, 7, 8]
    assert rows["twice"] == rows["at7"] + rows["at8"]
    assert [r.split("\t")[0] for r in rows["twice"]] == ["snp0003", "snp0003"]


def test_bstat_unknown_id_exits_3(workdir, signal_panel):
    sets_path = workdir / "sets_bad.tsv"
    sets_path.write_text("snp9999\n")
    rc = main([
        "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
        "--out", str(workdir / "unused.tsv"),
    ])
    assert rc == 3


def test_bstat_repeated_id_exits_3(workdir, signal_panel, capsys):
    sets_path = workdir / "sets_repeat.tsv"
    sets_path.write_text("snp0003\nsnp0005 snp0006,snp0005\n")
    rc = main([
        "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
        "--out", str(workdir / "unused.tsv"),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 2:" in err and "'snp0005' repeated" in err


@pytest.mark.parametrize("bad_id, message", [
    ("rs1,rs2", "SNP id 'rs1,rs2' contains a comma or whitespace"),
    ("rs 3", "SNP id 'rs 3' contains a comma or whitespace"),
    ("", "empty SNP id"),
], ids=["rs1,rs2", "rs 3", "empty"])
def test_snp_ids_that_sets_files_cannot_name_exit_3(tmp_path, capsys, bad_id, message):
    panel = tmp_path / "panel.tsv"
    panel.write_text(f"#snp\t{bad_id}\trs4\n#pos\t5\t9\n1\t0\t1\n0\t2\t0\n")
    (tmp_path / "sets.tsv").write_text(bad_id + "\n")
    out = tmp_path / "out.tsv"
    rc = main(["bstat", "--in", str(panel), "--sets", str(tmp_path / "sets.tsv"),
               "--out", str(out), "--n-perm", "500"])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"line 1: {message}" in err
    assert "Traceback" not in err and not out.exists()


def random_panel(path, seed, n_snps, n_per_arm):
    rng = np.random.default_rng(seed)
    write_dataset(
        GenotypeDataset(
            cases=rng.integers(0, 3, (n_per_arm, n_snps)),
            controls=rng.integers(0, 3, (n_per_arm, n_snps)),
            snp_ids=[f"rs{i}" for i in range(n_snps)],
            positions=range(1, n_snps + 1),
        ),
        path,
    )


def test_bstat_set_too_large_for_its_degrees_of_freedom_exits_4(tmp_path, capsys):
    panel = tmp_path / "wide.tsv"
    random_panel(panel, 61, 700, 40)
    (tmp_path / "sets.tsv").write_text(" ".join(f"rs{i}" for i in range(650)) + "\n")
    out = tmp_path / "out.tsv"
    rc = main(["bstat", "--in", str(panel), "--sets", str(tmp_path / "sets.tsv"),
               "--out", str(out), "--n-perm", "500"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "set size 650 exceeds 646" in err
    assert "Traceback" not in err and not out.exists()


def test_bstat_default_bonferroni_divisor_past_the_float_range(tmp_path):
    # C(1100, 550) is about 3e329, past the largest float
    panel = tmp_path / "wide.tsv"
    random_panel(panel, 62, 1100, 20)
    (tmp_path / "sets.tsv").write_text(",".join(f"rs{i}" for i in range(0, 1100, 2)) + "\n")
    out = tmp_path / "out.tsv"
    assert main(["bstat", "--in", str(panel), "--sets", str(tmp_path / "sets.tsv"),
                 "--out", str(out), "--n-perm", "500"]) == 0
    [row] = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert row[1] == "550" and row[-1] == "0"


def test_manifest_peak_memory_is_the_commands_own(tmp_path):
    # ru_maxrss would report the high-water mark of this process, which
    # holds 200 MB while the command runs
    held = np.ones(25_000_000)
    panel = tmp_path / "small.tsv"
    random_panel(panel, 63, 8, 60)
    out = tmp_path / "exact.tsv"
    src = str(Path(beamscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-m", "beamscan.cli", "oracle", "--in", str(panel),
                    "--out", str(out)], env=env, check=True, timeout=120)
    peak = json.loads(Path(str(out) + ".manifest.json").read_text())["peak_rss_mb"]
    assert 0 < peak < held.nbytes / 2**20 / 2


def test_bstat_from_posterior_flow(workdir, signal_panel, mapped):
    out = workdir / "bstat_screen.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(mapped),
        "--out", str(out), "--threshold", "0.5", "--n-perm", "600", "--seed", "7",
    ])
    assert rc == 0
    post = read_posterior(mapped)
    expected_singles = [post["ids"][i] for i in np.flatnonzero(post["assoc"] >= 0.5)]
    rows = [l.split("\t") for l in out.read_text().splitlines()[1:]]
    singles = [r[0] for r in rows if r[1] == "1"]
    assert singles == expected_singles
    assert "snp0003" in singles
    for r in rows:
        assert 0.0 < float(r[5]) <= 1.0


@pytest.fixture
def sidecar_prefix(workdir, mapped):
    """A copy of the mapped posterior whose interactions sidecar each test rewrites."""
    prefix = workdir / "sidecar.post.tsv"
    prefix.write_text(Path(mapped).read_text())
    return prefix


@pytest.mark.parametrize("row, message", [
    ("snp0002,snp9999\t0.5", "unknown SNP id 'snp9999'"),
    ("snp0002,snp0012\t0.5\textra", "need 2 columns"),
    ("snp0002,snp0012", "need 2 columns"),
    ("snp0002,snp0012\thalf", "not a number"),
    ("snp0002,snp0002\t0.9", "'snp0002' repeated"),
    ("snp0002,snp0012\tinf", "'inf' in {sidecar} is not a probability in [0, 1]"),
    ("snp0002,snp0012\tnan", "'nan' in {sidecar} is not a probability in [0, 1]"),
    ("snp0002,snp0012\t1.5", "'1.5' in {sidecar} is not a probability in [0, 1]"),
])
def test_bstat_bad_interactions_sidecar_exits_3(workdir, signal_panel, sidecar_prefix,
                                                row, message, capsys):
    Path(str(sidecar_prefix) + ".interactions.tsv").write_text(
        "#members\tfrequency\nsnp0002,snp0012\t0.25\n" + row + "\n"
    )
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(workdir / "sidecar.bstat.tsv"), "--n-perm", "500",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 3:" in err and message.format(sidecar=f"{sidecar_prefix}.interactions.tsv") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rows", [
    ["snp0002,snp0010\t0.9", "snp0010,snp0002\t0.8", "snp0002,snp0010\t0.7"],
    ["snp0002,snp0010\t0.9", "snp0002,snp0010\t0.7"],
])
def test_bstat_repeated_interaction_set_exits_3(workdir, signal_panel, sidecar_prefix,
                                                rows, capsys):
    # a set is the same set in any member order, so the second row repeats the first
    sidecar = f"{sidecar_prefix}.interactions.tsv"
    Path(sidecar).write_text("#members\tfrequency\n" + "\n".join(rows) + "\n")
    out = workdir / "sidecar_repeat.bstat.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(out), "--n-perm", "500", "--threshold", "0.6",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"line 3: SNP set {rows[1].split(chr(9))[0]!r} repeated in {sidecar}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bstat_interaction_set_members_are_read_in_any_order(workdir, signal_panel,
                                                             sidecar_prefix):
    Path(f"{sidecar_prefix}.interactions.tsv").write_text(
        "#members\tfrequency\nsnp0010,snp0002\t0.8\n"
    )
    out = workdir / "sidecar_order.bstat.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(out), "--n-perm", "500", "--threshold", "0.6",
    ])
    assert rc == 0
    tested = [row.split("\t")[0] for row in out.read_text().splitlines()[1:]]
    assert tested.count("snp0002,snp0010") == 1 and "snp0010,snp0002" not in tested


@pytest.mark.parametrize("value", ["nan", "2.5", "-0.1", "inf"])
def test_bstat_posterior_values_must_be_probabilities(workdir, signal_panel, sidecar_prefix,
                                                      value, capsys):
    lines = sidecar_prefix.read_text().splitlines()
    assert lines[5].startswith("snp0005\t")
    toks = lines[5].split("\t")
    toks[4] = value  # p_assoc
    lines[5] = "\t".join(toks)
    sidecar_prefix.write_text("\n".join(lines) + "\n")
    out = workdir / "posterior_value.bstat.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(out), "--n-perm", "500",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"line 6: {value!r} in {sidecar_prefix} is not a probability in [0, 1]" in err
    assert "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_bstat_posterior_snp_row_repeated_exits_3(workdir, signal_panel, sidecar_prefix, capsys):
    lines = sidecar_prefix.read_text().splitlines()
    sidecar_prefix.write_text("\n".join(lines + [lines[1]]) + "\n")
    out = workdir / "posterior_repeat.bstat.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(out), "--n-perm", "500",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    snp = lines[1].split("\t")[0]
    assert f"line {len(lines) + 1}: SNP id {snp!r} repeated in {sidecar_prefix}" in err
    assert "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_bstat_posterior_snp_rows_may_be_missing(workdir, signal_panel, sidecar_prefix):
    lines = sidecar_prefix.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("snp0003\t")]
    assert len(kept) == len(lines) - 1
    sidecar_prefix.write_text("\n".join(kept) + "\n")
    Path(f"{sidecar_prefix}.interactions.tsv").write_text("#members\tfrequency\n")
    out = workdir / "posterior_missing.bstat.tsv"
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(out), "--n-perm", "500", "--threshold", "0",
    ])
    assert rc == 0
    # at threshold 0 every SNP is a candidate, the one without a row too (it reads as 0)
    tested = [row.split("\t")[0] for row in out.read_text().splitlines()[1:]]
    assert tested == list(load_dataset(signal_panel).snp_ids)


@pytest.mark.parametrize("target", ["genotypes", "sets", "posterior", "sidecar"])
def test_non_utf8_input_exits_3(workdir, signal_panel, sidecar_prefix, target, capsys):
    bad = workdir / f"latin1.{target}"
    if target == "genotypes":
        bad.write_bytes(Path(signal_panel).read_bytes().replace(b"#pos", b"#p\xffs", 1))
        argv = ["map", "--in", str(bad), "--out", str(workdir / "latin1.out.tsv")]
    elif target == "sets":
        bad.write_bytes(b"snp0003\nsnp\xff0005\n")
        argv = ["bstat", "--in", str(signal_panel), "--sets", str(bad),
                "--out", str(workdir / "latin1.out.tsv")]
    else:
        if target == "posterior":
            bad = sidecar_prefix
            bad.write_bytes(bad.read_bytes() + b"snp\xff0002\t1\t0\t0\t0\t0\n")
        else:
            bad = Path(str(sidecar_prefix) + ".interactions.tsv")
            bad.write_bytes(b"#members\tfrequency\nsnp0002,snp\xff0012\t0.25\n")
        argv = ["bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
                "--out", str(workdir / "latin1.out.tsv"), "--n-perm", "500"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{bad} is not UTF-8 text" in err
    assert "Traceback" not in err


# -- usage and error handling -------------------------------------------------------------


def test_default_threads_follows_cpu_affinity(monkeypatch):
    from beamscan import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._default_threads() == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._default_threads() == 16
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._default_threads() == 1


def test_usage_errors_raise_systemexit_2(workdir):
    for argv in (
        [],
        ["frobnicate"],
        ["simulate", "--out", "x.tsv", "--model", "1", "--maf", "0"],
        ["simulate", "--model", "1", "--maf", "0.2"],  # missing --out
        ["bstat", "--in", "a", "--out", "b"],  # needs --sets or --from-posterior
        ["simulate", "--out", "x.tsv", "--model", "5", "--maf", "0.2"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_cli_import_leaves_out_scipy_stats():
    src = str(Path(beamscan.__file__).resolve().parents[1])
    code = "import sys, beamscan.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_optimize():
    src = str(Path(beamscan.__file__).resolve().parents[1])
    code = "import sys, beamscan.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy():
    src = str(Path(beamscan.__file__).resolve().parents[1])
    code = "import sys, beamscan.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_commands_that_need_no_scipy_run_without_it(workdir, signal_panel):
    # map, partition, oracle and permutation bstat run with scipy unloaded; the
    # HWE filter and analytic calibration import scipy.special on first use
    src = str(Path(beamscan.__file__).resolve().parents[1])
    small = workdir / "no_scipy_small.tsv"
    ds = load_dataset(signal_panel)
    write_dataset(
        GenotypeDataset(ds.cases[:, :6], ds.controls[:, :6], ds.snp_ids[:6], ds.positions[:6]),
        small,
    )
    sets_path = workdir / "no_scipy_sets.tsv"
    sets_path.write_text("snp0003\nsnp0002,snp0004\n")
    chain = ["--burnin", "20", "--iters", "60", "--seed", "4"]
    bstat_argv = ["bstat", "--in", str(signal_panel), "--sets", str(sets_path), "--n-perm", "500"]
    runs = [
        ["map", "--in", str(signal_panel), *chain],
        ["partition", "--in", str(signal_panel), *chain],
        ["oracle", "--in", str(small)],
        [*bstat_argv, "--calibration", "permutation"],
        [*bstat_argv, "--calibration", "analytic"],
        ["partition", "--in", str(signal_panel), *chain, "--hwe-filter", "0.1"],
    ]
    runs = [[*argv, "--out", str(workdir / f"no_scipy_{k}.tsv")] for k, argv in enumerate(runs)]
    # locale (argparse's gettext) loads at import, and no scipy-free command
    # loads a codec module, so neither lands inside its timed wall clock. No
    # command loads numpy.ma (np.median's NaN check imports it) before its
    # first scipy module: the analytic bstat fits its shift constant from a
    # median before it imports scipy.special, which loads numpy.ma itself
    code = (
        "import json, sys\n"
        "from beamscan.cli import main\n"
        "print('locale' in sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    before = set(sys.modules)\n"
        "    rc = main(argv)\n"
        "    new = [m for m in sys.modules if m not in before]\n"
        "    added = sorted({'locale', 'encodings.ascii'} & set(new))\n"
        "    scipy_at = next((k for k, m in enumerate(new) if m.split('.')[0] == 'scipy'), len(new))\n"
        "    ma = any(m.split('.')[:2] == ['numpy', 'ma'] for m in new[:scipy_at])\n"
        "    print(rc, any(m.split('.')[0] == 'scipy' for m in sys.modules), added, ma)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.splitlines()
    assert lines[:5] == ["True"] + ["0 False [] False"] * 4
    assert [line.split(" ")[:2] + line.split(" ")[-1:] for line in lines[5:]] == [["0", "True", "False"]] * 2


def test_package_namespace_leaves_the_submodules_visible():
    import beamscan.bstat

    assert isinstance(beamscan.bstat, types.ModuleType)


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_value_errors_return_2(workdir, signal_panel):
    with pytest.raises(SystemExit) as exc:  # one flag out of range: argparse refuses it
        main([
            "map", "--in", str(signal_panel), "--out", str(workdir / "x.tsv"),
            "--p1", "1.5",
        ])
    assert exc.value.code == 2
    # p1 + p2 < 1 spans two flags, so the library checks it once the panel is read
    rc = main([
        "map", "--in", str(signal_panel), "--out", str(workdir / "x.tsv"),
        "--p1", "0.6", "--p2", "0.6",
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        # non-finite or non-numeric values, refused as the flags are parsed
        (["bstat", "--in", "{panel}", "--sets", "{sets}", "--rho", "nan"], "finite and positive"),
        (["map", "--in", "{panel}", "--iters", "20", "--rho", "inf"], "finite and positive"),
        (["oracle", "--in", "{small}", "--rho", "inf"], "finite and positive"),
        (["simulate", "--model", "2", "--maf", "0.3", "--theta", "inf"], "finite and non-negative"),
        (["bstat", "--in", "{panel}", "--sets", "{sets}", "--rho", "abc"],
         "argument --rho: invalid float value: 'abc'"),
        # out-of-range flags, refused as they are parsed
        *[
            (["partition", "--in", "{panel}", "--iters", "20", "--hwe-filter", bad],
             "argument --hwe-filter: must lie in [0, 1)")
            for bad in ("-0.1", "nan", "1.5")
        ],
        (["map", "--in", "{panel}", "--iters", "20", "--threads", "0"],
         "argument --threads: must be at least 1"),
        (["bstat", "--in", "{panel}", "--sets", "{sets}", "--n-tests", "0"],
         "argument --n-tests: must be at least 1"),
        *[
            (["bstat", "--in", "{panel}", "--sets", "{sets}", "--alpha", bad],
             "argument --alpha: must lie in (0, 1)")
            for bad in ("0", "1.5", "nan")
        ],
        (["map", "--in", "{panel}", "--iters", "20", "--p1", "nan"],
         "argument --p1: must lie in [0, 1)"),
        (["map", "--in", "{panel}", "--iters", "20", "--p2", "1.5"],
         "argument --p2: must lie in [0, 1)"),
        *[
            (["simulate", "--model", "2", "--maf", "0.3", "--founders", bad],
             "argument --founders: must be at least 2")
            for bad in ("0", "1")
        ],
        *[
            (["bstat", "--in", "{panel}", "--from-posterior", "{post}", "--threshold", bad],
             "argument --threshold: must lie in [0, 1]")
            for bad in ("nan", "-1", "1.5")
        ],
        *[
            (argv + ["--max-order", "0"], "argument --max-order: must be at least 1")
            for argv in (
                ["map", "--in", "{panel}", "--iters", "20"],
                ["oracle", "--in", "{small}"],
            )
        ],
        *[
            (argv + ["--seed", "-1"], "argument --seed: must be non-negative")
            for argv in (
                ["map", "--in", "{panel}", "--iters", "20"],
                ["bstat", "--in", "{panel}", "--sets", "{sets}"],
                ["simulate", "--model", "2", "--maf", "0.3"],
            )
        ],
    ],
    ids=[
        "bstat-rho-nan", "map-rho-inf", "oracle-rho-inf", "simulate-theta-inf", "rho-abc",
        "hwe-filter", "hwe-filter-nan", "hwe-filter-1.5", "threads", "n-tests",
        "alpha-0", "alpha-1.5", "alpha-nan", "map-p1-nan", "map-p2-1.5",
        "founders-0", "founders-1", "threshold-nan", "threshold--1", "threshold-1.5",
        "map-max-order-0", "oracle-max-order-0",
        "map-seed--1", "bstat-seed--1", "simulate-seed--1",
    ],
)
def test_bad_numbers_exit_2(tmp_path, signal_panel, mapped, capsys, argv, message):
    (tmp_path / "sets.tsv").write_text("snp0003\n")
    write_dataset(hot_column_dataset(77, 30, 5, hot=2), tmp_path / "small.tsv")
    paths = {name: tmp_path / f"{name}.tsv" for name in ("sets", "small")}
    out = tmp_path / "out.tsv"
    argv = [a.format(panel=signal_panel, post=mapped, **paths) for a in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:  # argparse's usage error, before any input is read
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rho", ["3e305", "1e-320"])
@pytest.mark.parametrize("argv", [
    ["map", "--iters", "20"],
    ["oracle"],
    ["bstat", "--sets", "{sets}"],
], ids=["map", "oracle", "bstat"])
def test_rho_with_an_infinite_lngamma_exits_2(tmp_path, capsys, argv, rho):
    # lnGamma(rho) is inf above 2.556348e305 and for subnormal rho, where the
    # model's terms would be inf - inf and every result nan
    panel = tmp_path / "panel.tsv"
    write_dataset(hot_column_dataset(78, 30, 10, hot=3), panel)
    (tmp_path / "sets.tsv").write_text("s3\ns2 s3\n")
    out = tmp_path / "out.tsv"
    argv = [a.format(sets=tmp_path / "sets.tsv") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(panel), "--rho", rho, "--out", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --rho: must be finite and positive, with a finite lnGamma(rho)" in err
    assert "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.tsv", "sets.tsv"]


@pytest.mark.parametrize("rho", ["1e9", "2.5e305"])
@pytest.mark.parametrize("argv", [
    ["map", "--iters", "20"],
    ["partition", "--iters", "20"],
    ["oracle"],
    ["bstat", "--sets", "{sets}"],
], ids=["map", "partition", "oracle", "bstat"])
def test_rho_above_1e8_exits_2(tmp_path, capsys, argv, rho):
    # lnGamma(n + rho) - lnGamma(rho) cancels its digits for a large rho: at
    # 2.5e305 it gave posteriors above 1
    panel = tmp_path / "panel.tsv"
    write_dataset(hot_column_dataset(78, 30, 10, hot=3), panel)
    (tmp_path / "sets.tsv").write_text("s3\ns2 s3\n")
    out = tmp_path / "out.tsv"
    argv = [a.format(sets=tmp_path / "sets.tsv") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(panel), "--rho", rho, "--out", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --rho: must be finite and positive, with a finite lnGamma(rho), and at most 1e8" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.tsv", "sets.tsv"]


INTEGER_FLAGS = [
    *[
        (["map", "--in", "{panel}", "--iters", "20"], flag, bad, low)
        for flag, bad, low in (
            ("--chains", "0", 1), ("--burnin", "-1", 0), ("--iters", "-1", 0),
            ("--threads", "0", 1),
        )
    ],
    *[
        (["bstat", "--in", "{panel}", "--sets", "{sets}"], flag, bad, low)
        for flag, bad, low in (("--n-perm", "499", 500), ("--n-tests", "0", 1))
    ],
    *[
        (["simulate", "--model", "2", "--maf", "0.3"], flag, bad, low)
        for flag, bad, low in (
            ("--cases", "0", 1), ("--controls", "-5", 1), ("--snps", "0", 1),
            ("--block-width", "0", 1), ("--founders", "1", 2),
        )
    ],
]


@pytest.mark.parametrize(
    "argv, flag, bad, low", INTEGER_FLAGS, ids=[case[1][2:] for case in INTEGER_FLAGS]
)
def test_integer_flags_are_checked_where_they_are_parsed(tmp_path, signal_panel, capsys,
                                                         argv, flag, bad, low):
    (tmp_path / "sets.tsv").write_text("snp0003\n")
    out = tmp_path / "out.tsv"
    argv = [a.format(panel=signal_panel, sets=tmp_path / "sets.tsv") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, bad, "--out", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    need = "must be non-negative" if low == 0 else f"must be at least {low}"
    assert f"argument {flag}: {need}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["map", "--in", "{panel}", "--iters", "20"], ["--thin", "2"]),
    (["partition", "--in", "{panel}", "--iters", "20"], ["--thin", "2"]),
    (["partition", "--in", "{panel}", "--iters", "20"], ["--p1", "0.1"]),
    (["partition", "--in", "{panel}", "--iters", "20"], ["--p2", "0.1"]),
    (["partition", "--in", "{panel}", "--iters", "20"], ["--max-order", "2"]),
    (["bstat", "--in", "{panel}", "--sets", "{sets}"], ["--max-order", "2"]),
], ids=["map-thin", "partition-thin", "partition-p1", "partition-p2", "partition-max-order",
        "bstat-max-order"])
def test_flags_that_change_no_result_are_gone(tmp_path, signal_panel, capsys, argv, flag):
    # the samplers record every retained iteration, partition keeps every label 0,
    # and bstat tests each set it is given, so none of these flags has a use
    (tmp_path / "sets.tsv").write_text("snp0003\n")
    out = tmp_path / "out.tsv"
    argv = [a.format(panel=signal_panel, sets=tmp_path / "sets.tsv") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag + ["--out", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err and "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_every_numeric_flag_is_checked_where_it_is_parsed():
    # a bare int or float type lets nan, inf and out-of-range values through to
    # the library, which refuses them (if at all) without naming the flag
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [
        f"{name} {action.option_strings[0]}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type in (int, float) and action.choices is None
    ]
    assert bare == []


def test_missing_input_returns_3(workdir):
    rc = main([
        "map", "--in", str(workdir / "does_not_exist.tsv"),
        "--out", str(workdir / "y.tsv"),
    ])
    assert rc == 3


def test_malformed_input_returns_3(workdir):
    bad = workdir / "bad.tsv"
    bad.write_text("this is not the format\n")
    rc = main(["map", "--in", str(bad), "--out", str(workdir / "z.tsv")])
    assert rc == 3


def test_negative_position_exits_3_naming_line_2(tmp_path, capsys):
    panel = tmp_path / "panel.tsv"
    panel.write_text("#snp\ta\tb\n#pos\t-5\t9\n" + "".join(
        f"{i % 2}\t{i % 3}\t{(i // 3) % 3}\n" for i in range(40)
    ))
    out = tmp_path / "out.tsv"
    rc = main(["map", "--in", str(panel), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 2: positions must be non-negative" in err
    assert "Traceback" not in err
    assert not out.exists() and not Path(str(out) + ".manifest.json").exists()


def test_map_without_retained_iterations_warns_once(workdir, signal_panel, capsys):
    out = workdir / "no_samples.tsv"
    rc = main(["map", "--in", str(signal_panel), "--out", str(out),
               "--burnin", "10", "--iters", "0", "--chains", "2", "--threads", "1"])
    err = capsys.readouterr().err
    assert rc == 0
    assert err.count("warning:") == 1 and "warning: no samples recorded" in err
    post = read_posterior(out)
    assert len(post["ids"]) == 15
    for col in ("marginal", "epistatic", "assoc", "boundary"):
        assert not post[col].any()


@pytest.mark.parametrize("token", ["NA", ".", "-1"])
def test_missing_tokens_exit_3_unless_imputed(tmp_path, token):
    text = "#snp\ta\tb\n#pos\t5\t9\n" + "".join(
        f"{i % 2}\t{i % 3}\t{(i // 3) % 3}\n" for i in range(40)
    ) + f"1\t{token}\t1\n"
    (tmp_path / "missing.tsv").write_text(text)
    argv = ["partition", "--in", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "out.tsv"), "--burnin", "5", "--iters", "20"]
    assert main(argv) == 3
    assert main(argv + ["--missing", "impute"]) == 0


def test_small_cohort_returns_4(workdir):
    rng = np.random.default_rng(79)
    ds = GenotypeDataset(
        cases=rng.integers(0, 3, (10, 3)).astype(np.int8),
        controls=rng.integers(0, 3, (10, 3)).astype(np.int8),
        snp_ids=("a", "b", "c"),
        positions=(1, 2, 3),
    )
    infile = workdir / "tiny.tsv"
    write_dataset(ds, infile)
    rc = main(["map", "--in", str(infile), "--out", str(workdir / "tiny_out.tsv")])
    assert rc == 4


@pytest.mark.parametrize("case", ["library-2", "data-3", "constraint-4"])
def test_a_failed_command_leaves_no_files(tmp_path, signal_panel, capsys, case):
    out = tmp_path / "out.tsv"
    if case == "library-2":  # p1 + p2 < 1 spans two flags: checked after the panel is read
        argv, code = ["map", "--in", str(signal_panel), "--iters", "20",
                      "--p1", "0.6", "--p2", "0.6"], 2
    elif case == "data-3":
        (tmp_path / "sets.tsv").write_text("snp0003\nsnp9999\n")
        argv, code = ["bstat", "--in", str(signal_panel), "--sets", str(tmp_path / "sets.tsv")], 3
    else:  # 20 people are too few for the diplotype cap
        rng = np.random.default_rng(79)
        write_dataset(GenotypeDataset(
            cases=rng.integers(0, 3, (10, 3)).astype(np.int8),
            controls=rng.integers(0, 3, (10, 3)).astype(np.int8),
            snp_ids=("a", "b", "c"),
            positions=(1, 2, 3),
        ), tmp_path / "tiny.tsv")
        argv, code = ["map", "--in", str(tmp_path / "tiny.tsv"), "--iters", "20"], 4
    inputs = set(tmp_path.iterdir())
    assert main(argv + ["--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()
    assert set(tmp_path.iterdir()) == inputs
