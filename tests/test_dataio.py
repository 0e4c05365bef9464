"""Genotype table parsing, validation, writing and per-SNP counting."""

import numpy as np
import pytest
from scipy.stats import chi2

from beamscan.dataio import (
    DataFormatError,
    GenotypeDataset,
    chi2_sf,
    column_counts,
    hwe_filter,
    load_dataset,
    write_dataset,
)

CANONICAL = (
    "#snp\trs1\trs2\trs3\n"
    "#pos\t100\t250\t900\n"
    "1\t0\t1\t2\n"
    "1\t1\t1\t0\n"
    "0\t2\t0\t0\n"
    "0\t0\t0\t1\n"
)


def write_tmp(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_echoes_dimensions(tmp_path):
    ds = load_dataset(write_tmp(tmp_path, CANONICAL))
    assert ds.n_cases == 2
    assert ds.n_controls == 2
    assert ds.n_snps == 3
    assert ds.snp_ids == ("rs1", "rs2", "rs3")
    assert ds.positions == (100, 250, 900)
    assert np.array_equal(ds.cases, [[0, 1, 2], [1, 1, 0]])
    assert np.array_equal(ds.controls, [[2, 0, 0], [0, 0, 1]])


def test_region_length():
    ds = GenotypeDataset(
        cases=np.zeros((1, 2), np.int8),
        controls=np.zeros((1, 2), np.int8),
        snp_ids=("a", "b"),
        positions=(10, 500),
    )
    assert ds.region_length == 490
    single = GenotypeDataset(
        cases=np.zeros((1, 1), np.int8),
        controls=np.zeros((0, 1), np.int8),
        snp_ids=("a",),
        positions=(42,),
    )
    assert single.region_length == 1


def test_matrices_are_read_only():
    ds = GenotypeDataset(
        cases=np.zeros((1, 1), np.int8),
        controls=np.zeros((1, 1), np.int8),
        snp_ids=("a",),
        positions=(1,),
    )
    with pytest.raises(ValueError):
        ds.cases[0, 0] = 1


def test_invalid_code_names_line(tmp_path):
    bad = CANONICAL.replace("0\t2\t0\t0", "0\t2\t3\t0")
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, bad))
    assert err.value.line == 5
    assert "line 5" in str(err.value)
    assert "'3'" in str(err.value)


def test_bad_phenotype_names_line(tmp_path):
    bad = CANONICAL.replace("1\t1\t1\t0", "2\t1\t1\t0")
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, bad))
    assert err.value.line == 4


def test_wrong_field_count(tmp_path):
    bad = CANONICAL + "1\t0\t1\n"
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, bad))
    assert err.value.line == 7


def test_blank_data_line(tmp_path):
    bad = CANONICAL + "\n1\t0\t0\t0\n"
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, bad))
    assert err.value.line == 7


def test_header_errors(tmp_path):
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, "#wrong\ta\n#pos\t1\n"))
    assert err.value.line == 1
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, "#snp\ta\tb\n#pos\t1\n"))
    assert err.value.line == 2
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, "#snp\ta\tb\n#pos\t1\tx\n"))
    assert err.value.line == 2


def test_positions_must_increase(tmp_path):
    bad = CANONICAL.replace("#pos\t100\t250\t900", "#pos\t100\t100\t900")
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, bad))
    assert err.value.line == 2


def test_duplicate_snp_ids(tmp_path):
    bad = CANONICAL.replace("rs2", "rs1")
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, bad))
    assert err.value.line == 1


def test_missing_rejected_by_default(tmp_path):
    text = CANONICAL.replace("0\t2\t0\t0", "0\t2\tN\t0")
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, text))
    assert err.value.line == 5
    assert "missing" in str(err.value)


@pytest.mark.parametrize("token", ["NA", ".", "-1"])
def test_documented_missing_tokens_are_rejected_by_default(tmp_path, token):
    text = CANONICAL.replace("0\t2\t0\t0", f"0\t2\t{token}\t0")
    with pytest.raises(DataFormatError) as err:
        load_dataset(write_tmp(tmp_path, text))
    assert err.value.line == 5
    assert "missing" in str(err.value) and repr(token) in str(err.value)


@pytest.mark.parametrize("token", ["NA", ".", "-1"])
def test_documented_missing_tokens_are_imputed(tmp_path, token):
    text = CANONICAL.replace("0\t2\t0\t0", f"0\t2\t{token}\t0")
    for policy in ("mode-impute", "impute"):
        ds = load_dataset(write_tmp(tmp_path, text), missing_policy=policy)
        assert ds.controls[0, 1] == 1


def test_mode_impute_fills_column_mode(tmp_path):
    # rs2 column has observed values {1, 1, 0}; the N becomes the mode, 1.
    text = CANONICAL.replace("0\t2\t0\t0", "0\t2\tN\t0")
    ds = load_dataset(write_tmp(tmp_path, text), missing_policy="mode-impute")
    assert ds.controls[0, 1] == 1
    alias = load_dataset(write_tmp(tmp_path, text, "alias.tsv"), missing_policy="impute")
    assert alias.controls[0, 1] == 1


def test_mode_impute_tie_prefers_smaller_code(tmp_path):
    # column observations {0, 0, 1}: mode is 0; also the documented example.
    text = (
        "#snp\ta\n#pos\t5\n"
        "1\tN\n"
        "1\t0\n"
        "0\t0\n"
        "0\t1\n"
    )
    ds = load_dataset(write_tmp(tmp_path, text), missing_policy="mode-impute")
    assert ds.cases[0, 0] == 0
    # exact tie {1, 2} resolves to the smaller code as well
    tie = "#snp\ta\n#pos\t5\n1\tN\n1\t1\n0\t2\n"
    ds2 = load_dataset(write_tmp(tmp_path, tie, "tie.tsv"), missing_policy="mode-impute")
    assert ds2.cases[0, 0] == 1


def test_impute_with_no_observations_fails(tmp_path):
    text = "#snp\ta\n#pos\t5\n1\tN\n0\tN\n"
    with pytest.raises(DataFormatError):
        load_dataset(write_tmp(tmp_path, text), missing_policy="mode-impute")


def test_unknown_missing_policy(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(write_tmp(tmp_path, CANONICAL), missing_policy="zero-fill")


def test_round_trip_is_byte_identical(tmp_path):
    src = write_tmp(tmp_path, CANONICAL)
    ds = load_dataset(src)
    out = tmp_path / "copy.tsv"
    write_dataset(ds, out)
    assert out.read_bytes() == src.read_bytes()


def test_noncanonical_order_is_canonicalized(tmp_path):
    shuffled = (
        "#snp\trs1\trs2\trs3\n"
        "#pos\t100\t250\t900\n"
        "0\t2\t0\t0\n"
        "1\t0\t1\t2\n"
        "0\t0\t0\t1\n"
        "1\t1\t1\t0\n"
    )
    ds = load_dataset(write_tmp(tmp_path, shuffled))
    out = tmp_path / "canon.tsv"
    write_dataset(ds, out)
    assert out.read_text(encoding="utf-8") == CANONICAL


def test_empty_cohorts_load(tmp_path):
    ds = load_dataset(write_tmp(tmp_path, "#snp\ta\tb\n#pos\t1\t2\n"))
    assert ds.n_cases == 0 and ds.n_controls == 0 and ds.n_snps == 2


def test_column_counts_examples():
    ds = GenotypeDataset(
        cases=np.array([[0], [0], [1], [2]], np.int8),
        controls=np.array([[2], [2]], np.int8),
        snp_ids=("a",),
        positions=(1,),
    )
    case, ctrl = column_counts(ds, 0)
    assert case == (2, 1, 1)
    assert ctrl == (0, 0, 2)
    empty = GenotypeDataset(
        cases=np.zeros((0, 1), np.int8),
        controls=np.zeros((0, 1), np.int8),
        snp_ids=("a",),
        positions=(1,),
    )
    assert column_counts(empty, 0) == ((0, 0, 0), (0, 0, 0))
    with pytest.raises(IndexError):
        column_counts(ds, 1)


def hw_controls(rng, q, m):
    """Controls drawn exactly from Hardy-Weinberg at allele frequency q."""
    return rng.choice(3, size=m, p=[(1 - q) ** 2, 2 * q * (1 - q), q**2]).astype(np.int8)


def test_hwe_filter_removes_violations():
    rng = np.random.default_rng(8)
    m = 400
    good1 = hw_controls(rng, 0.3, m)
    good2 = hw_controls(rng, 0.45, m)
    all_het = np.ones(m, np.int8)  # grossly out of equilibrium
    controls = np.stack([good1, all_het, good2], axis=1)
    cases = np.zeros((2, 3), np.int8)
    ds = GenotypeDataset(cases=cases, controls=controls, snp_ids=("a", "b", "c"), positions=(1, 2, 3))
    filtered, removed = hwe_filter(ds, 1e-4)
    assert removed == ["b"]
    assert filtered.snp_ids == ("a", "c")
    assert np.array_equal(filtered.controls[:, 0], good1)

    unchanged, removed0 = hwe_filter(ds, 0.0)
    assert removed0 == [] and unchanged is ds


def test_hwe_filter_no_controls_is_noop():
    ds = GenotypeDataset(
        cases=np.array([[1, 1]], np.int8),
        controls=np.zeros((0, 2), np.int8),
        snp_ids=("a", "b"),
        positions=(1, 2),
    )
    same, removed = hwe_filter(ds, 0.5)
    assert same is ds and removed == []


def test_hwe_filter_cannot_remove_everything():
    m = 200
    all_het = np.ones((m, 1), np.int8)
    ds = GenotypeDataset(
        cases=np.zeros((1, 1), np.int8),
        controls=all_het,
        snp_ids=("a",),
        positions=(1,),
    )
    with pytest.raises(DataFormatError):
        hwe_filter(ds, 1e-4)


def test_chi2_sf_equals_scipy_stats():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, -2.5, 1e-300, 5e-324, np.inf, -np.inf, np.nan]
    for df in list(range(1, 243)) + [3**m - 1 for m in range(6, 21)]:
        scale = df if df < 1e6 else 1.0
        xs = np.concatenate([special, rng.exponential(scale + 1.0, 40),
                             df + rng.normal(0.0, 3 * np.sqrt(df), 20)])
        for x, want in zip(xs, chi2.sf(xs, df=df)):
            got = chi2_sf(float(x), df)
            assert got == want or (np.isnan(got) and np.isnan(want)), (df, x)
