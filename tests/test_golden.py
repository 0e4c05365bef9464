"""Golden outputs: the sha256 of every fixed-seed result TSV on small panels,
and of the simulated panels themselves.

The simulator, the samplers, the oracle and the set test are deterministic
given (inputs, flags, seed), and speed-ups are expected to keep their TSVs
byte-identical and the samplers' memo sizes unchanged. These digests and
sizes pin that. A change that alters outputs on purpose (a correctness fix)
re-records them and says so. They were recorded with numpy 2.4 and scipy
1.17 on x86-64; another floating-point library may round the last printed
digit differently.
"""

import hashlib
import json
from pathlib import Path

import pytest

from beamscan.cli import main

GOLDEN = {
    "bstat": {
        "bstat.tsv": "ea4ffc7ab8d4c1e79b084c4e1f678f0006468ba6932c2f6f4d31372d1e2f74b4",
    },
    "map": {
        "map.tsv": "fafc5d2f4a3765180d1ba6a2a8b54226ef2804f8354bc2fa9475e30d0164d2ca",
        "map.tsv.interactions.tsv": "7ffce8a5ed543bded4d94291b95745856ceb30bd2fd92a07ff5fe7df4c8966a0",
    },
    "map-chains": {
        "map.tsv": "fdec01374b01f4eb430c8c6ea7b4cbcf40e39d32809331817f11dd808089208f",
        "map.tsv.interactions.tsv": "e4a07b61eeff637446334a56711a678dcb9938286e829899c9424951eb42ec50",
    },
    "oracle": {
        "oracle.tsv": "1a17122b58a1604129ee3ab52889efe07b4e3cfeebe6ca72a87d0d17921eb924",
    },
    "oracle-order-1": {
        "oracle.tsv": "3256bbc3c491df65e1e29065cfae313c2b3eac855cd26502e7222a23735afbb3",
    },
    "oracle-p1-zero": {
        "oracle.tsv": "1441a163f1be9dbccd131d07c95fea5422dc33d938dd90737066f00ed5c60f51",
    },
    "oracle-p2-zero": {
        "oracle.tsv": "f7d210857ee1cf266496fdbb14edd8b8d958090c0f9e825d11a3d1c1d4c0dd60",
    },
    "partition": {
        "partition.tsv": "91118140a10e0426fe3d1853541ecce8ee5db188b1a0fa256ec3c967d2272b38",
    },
    "partition-hwe": {
        "partition.tsv": "4ca2a7ac8b6289f882a8c922c921a87857acf1088b5233c0f9abdf9315d93a67",
    },
}

# the simulated panels the cases above run on, with their truth sidecars
PANELS = {
    "narrow.tsv": "c066e8d2d725e116403ddbdd8086a27bbf8763a6fb0002d7438e59e0c5d45f39",
    "narrow.tsv.truth.tsv": "c05db8884ca868f56bec8d7b8ec8fbc5ddc37f807c6336ca84202c1b37794261",
    "wide.tsv": "e1ecab7581bc491d1a9b7347e821027466dbd99cfdcdbe0140d2024825106ef9",
    "wide.tsv.truth.tsv": "0a412fd70a8e54eec2385ba70f33c39b14acacf0790651401263bad169a005cd",
}

# (marginals, block_terms) per chain from the manifest: marginal memo entries
# and block terms evaluated (each once); a faster path must evaluate exactly
# the same keys
MEMO_SIZES = {
    "map": [(2660, 1290)],
    "map-chains": [(2660, 1290), (1356, 1212)],
    "oracle": [(333, 1977)],
    "oracle-order-1": [(313, 1223)],
    "oracle-p1-zero": [(147, 251)],
    "oracle-p2-zero": [(313, 394)],
    "partition": [(321, 321)],
    "partition-hwe": [(310, 310)],
}

# the oracle's exact evidence, which its TSV does not print
ORACLE_LOG_NORMALIZER = {
    "oracle": -1129.2941965066393,
    "oracle-order-1": -1129.2944743049172,
    "oracle-p1-zero": -1137.5889756574309,
    "oracle-p2-zero": -1129.5698756580018,
}


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """A 60-SNP panel for the samplers and the set test, a 9-SNP one for the oracle."""
    root = tmp_path_factory.mktemp("golden")
    wide = root / "wide.tsv"
    narrow = root / "narrow.tsv"
    for path, snps, cases, seed in ((wide, "60", "150", "4"), (narrow, "9", "120", "6")):
        assert main([
            "simulate", "--out", str(path), "--model", "2", "--maf", "0.3",
            "--effect", "1.5", "--cases", cases, "--controls", cases,
            "--snps", snps, "--seed", seed,
        ]) == 0
    sets = root / "sets.tsv"
    sets.write_text("snp0003\nsnp0010 snp0011\nsnp0020,snp0031,snp0047\nsnp0058\n")
    return {"wide": wide, "narrow": narrow, "sets": sets}


def _run(tmp_path, panels, case):
    wide, narrow = str(panels["wide"]), str(panels["narrow"])
    out = str(tmp_path / next(iter(GOLDEN[case])))
    chain = ["--burnin", "200", "--iters", "800", "--seed", "2"]
    argv = {
        "map": ["map", "--in", wide, "--out", out, *chain],
        "map-chains": [
            "map", "--in", wide, "--out", out, *chain, "--chains", "2", "--threads", "2",
        ],
        "partition": ["partition", "--in", wide, "--out", out, *chain],
        "partition-hwe": ["partition", "--in", wide, "--out", out, *chain, "--hwe-filter", "0.1"],
        "oracle": ["oracle", "--in", narrow, "--out", out],
        "oracle-order-1": ["oracle", "--in", narrow, "--out", out, "--max-order", "1"],
        "oracle-p1-zero": ["oracle", "--in", narrow, "--out", out, "--p1", "0"],
        "oracle-p2-zero": ["oracle", "--in", narrow, "--out", out, "--p2", "0"],
        "bstat": [
            "bstat", "--in", wide, "--sets", str(panels["sets"]), "--out", out,
            "--calibration", "permutation", "--n-perm", "500", "--seed", "5",
        ],
    }[case]
    assert main(argv) == 0
    if case == "partition-hwe":  # the filter drops SNPs, so the panel's column subset runs
        assert len(Path(out).read_text().splitlines()) - 1 < 60
    if case in MEMO_SIZES:
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        caches = [manifest["cache"]] if case in ORACLE_LOG_NORMALIZER else manifest["cache"]
        sizes = [(c["marginals"], c["block_terms"]) for c in caches]
        assert sizes == MEMO_SIZES[case]
        if case in ORACLE_LOG_NORMALIZER:
            assert manifest["log_normalizer"] == ORACLE_LOG_NORMALIZER[case]
    return _digests(tmp_path, GOLDEN[case])


def _digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def test_simulated_panels_are_byte_identical(panels):
    assert _digests(panels["wide"].parent, PANELS) == PANELS


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixed_seed_outputs_are_byte_identical(tmp_path, panels, case):
    assert _run(tmp_path, panels, case) == GOLDEN[case]
