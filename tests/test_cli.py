"""End-to-end command-line flows, run in process via main(argv)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamscan
from beamscan.bstat import bstat
from beamscan.cli import POSTERIOR_HEADER, main
from beamscan.dataio import GenotypeDataset, load_dataset, write_dataset
from beamscan.model import default_priors
from beamscan.oracle import enumerate_posterior
from beamscan.simulate import read_truth


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
    assert manifest["theta"] == 3.0  # --theta wins over --effect
    assert manifest["loci"] == [2, 12]


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
    assert Path(mapped).read_text().startswith(POSTERIOR_HEADER + "\n")
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
    priors, cons = default_priors(5, ds.region_length, 30, 30)
    exact = enumerate_posterior(ds, priors, cons)
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
    rc = main([
        "bstat", "--in", str(signal_panel), "--sets", str(sets_path),
        "--out", str(workdir / "bstat_nperm0.tsv"), "--calibration", "analytic",
        "--n-perm", "0",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n_perm >= 500" in err and "Warning" not in err


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
])
def test_bstat_bad_interactions_sidecar_exits_3(workdir, signal_panel, sidecar_prefix,
                                                row, message, capsys):
    Path(str(sidecar_prefix) + ".interactions.tsv").write_text(
        "#members\tfrequency\nsnp0002,snp0012\t0.25\n" + row + "\n"
    )
    rc = main([
        "bstat", "--in", str(signal_panel), "--from-posterior", str(sidecar_prefix),
        "--out", str(workdir / "sidecar.bstat.tsv"), "--n-perm", "50",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 3:" in err and message in err
    assert "Traceback" not in err


# -- usage and error handling -------------------------------------------------------------


def test_default_threads_follows_cpu_affinity(monkeypatch):
    from beamscan import cli

    monkeypatch.delenv("BEAMSCAN_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._default_threads() == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._default_threads() == 16
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._default_threads() == 1
    monkeypatch.setenv("BEAMSCAN_THREADS", "2")
    assert cli._default_threads() == 2


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


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_value_errors_return_2(workdir, signal_panel):
    rc = main([
        "map", "--in", str(signal_panel), "--out", str(workdir / "x.tsv"),
        "--p1", "1.5",
    ])
    assert rc == 2
    rc = main([
        "map", "--in", str(signal_panel), "--out", str(workdir / "x.tsv"),
        "--thin", "0",
    ])
    assert rc == 2


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
