"""Genotype table parsing, validation, writing and Hardy-Weinberg filtering."""

import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from beamscan import dataio
from beamscan.dataio import (
    DataFormatError,
    GenotypeDataset,
    hwe_filter,
    load_dataset,
    write_dataset,
)
from beamscan.simulate import DiseaseModel, disease_pool, simulate_dataset

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


def assert_one_matrix(ds):
    """``codes`` is the one read-only SNP-major matrix, cases first, and the
    cohorts are read-only views of its columns."""
    codes = ds.codes
    assert codes.dtype == np.int8 and codes.flags.c_contiguous and not codes.flags.writeable
    assert codes.shape == (ds.n_snps, ds.n_cases + ds.n_controls)
    cohorts = ((ds.cases, codes[:, : ds.n_cases]), (ds.controls, codes[:, ds.n_cases :]))
    for cohort, columns in cohorts:
        assert cohort.base is codes and not cohort.flags.writeable
        assert cohort.size == 0 or np.shares_memory(cohort, codes)
        assert cohort.shape == columns.T.shape and np.array_equal(cohort, columns.T)


def test_every_dataset_holds_its_panel_once(tmp_path):
    ds = load_dataset(write_tmp(tmp_path, CANONICAL))
    assert_one_matrix(ds)
    assert ds.codes.tolist() == [[0, 1, 2, 0], [1, 1, 0, 0], [2, 0, 0, 1]]
    picked = ds.select([0, 2])
    assert_one_matrix(picked)
    assert picked.codes.tolist() == [[0, 1, 2, 0], [2, 0, 0, 1]]
    pool, loci = disease_pool(20, 0.25, seed=7)
    sim = simulate_dataset(pool, DiseaseModel.from_theta(1, 1.0, 0.25, loci), 40, 50, seed=1)
    assert_one_matrix(sim.dataset)
    for n_cases, n_controls in ((0, 3), (3, 0), (0, 0)):
        empty = GenotypeDataset(np.ones((n_cases, 2)), np.zeros((n_controls, 2)), "ab", (1, 2))
        assert_one_matrix(empty)


@pytest.mark.parametrize("bad", [258, -254, 3, -1, 0.5, float("nan")])
@pytest.mark.parametrize("cohort", ["cases", "controls"])
def test_codes_are_checked_before_they_are_narrowed(bad, cohort):
    # 258 and -254 are 2 in int8, and 0.5 truncates to 0
    cells = {"cases": np.array([[2, 1]], type(bad)), "controls": np.array([[0, 2]], type(bad))}
    cells[cohort][0, 0] = bad
    with pytest.raises(DataFormatError, match="genotype codes must be 0, 1 or 2"):
        GenotypeDataset(cells["cases"], cells["controls"], ["a", "b"], [1, 2])


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.float64, np.float32])
def test_integer_valued_codes_of_any_dtype_load(dtype):
    cases, controls = np.array([[2, 1]], dtype), np.array([[0, 2], [1, 0]], dtype)
    ds = GenotypeDataset(cases, controls, ["a", "b"], [1, 2])
    assert ds.codes.dtype == np.int8 and ds.codes.tolist() == [[2, 0, 1], [1, 2, 0]]


def test_a_pickle_carries_the_panel_once():
    rng = np.random.default_rng(9)
    n_snps = 2000
    ds = GenotypeDataset(
        rng.integers(0, 3, size=(700, n_snps)),
        rng.integers(0, 3, size=(800, n_snps)),
        tuple(f"rs{j}" for j in range(n_snps)),
        range(1, n_snps + 1),
    )
    data = pickle.dumps(ds)
    # the two cohorts once; the ids and positions add about 1%
    assert ds.codes.nbytes < len(data) < 1.05 * ds.codes.nbytes
    back = pickle.loads(data)
    assert_one_matrix(back)
    assert back.codes.tobytes() == ds.codes.tobytes()
    assert np.array_equal(back.cases, ds.cases) and np.array_equal(back.controls, ds.controls)
    assert back.snp_ids == ds.snp_ids and back.positions == ds.positions


def test_loading_holds_at_most_the_file_and_two_panels(tmp_path):
    # a canonical 2,000-SNP panel of 1,000 people, written byte by byte
    rng = np.random.default_rng(17)
    n_snps, n_people = 2000, 1000
    table = np.empty((n_people, 1 + n_snps), dtype=np.uint8)
    table[:, 0] = np.arange(n_people) < n_people // 2  # cases first
    table[:, 1:] = rng.integers(0, 3, size=(n_people, n_snps))
    lines = np.full((n_people, 2 * (1 + n_snps)), ord("\t"), dtype=np.uint8)
    lines[:, 0::2] = table + ord("0")
    lines[:, -1] = ord("\n")
    header = "#snp\t" + "\t".join(f"rs{j}" for j in range(n_snps)) + "\n"
    header += "#pos\t" + "\t".join(str(10 * (j + 1)) for j in range(n_snps)) + "\n"
    path = tmp_path / "panel.tsv"
    path.write_bytes(header.encode("ascii") + lines.tobytes())
    del lines
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.codes.tobytes() == np.ascontiguousarray(table[:, 1:].T).view(np.int8).tobytes()
    # the file bytes and one panel besides the dataset's own, never a third copy
    panel = n_snps * n_people
    assert peak <= path.stat().st_size + 2 * panel + 10**6, peak
    # and the writer builds the same bytes back from the dataset's own matrix
    copy = tmp_path / "copy.tsv"
    write_dataset(ds, copy)
    assert copy.read_bytes() == path.read_bytes()


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


@pytest.mark.parametrize("bad_id", ["rs1,rs2", "rs 3", "rs\u00a03"])
@pytest.mark.parametrize("policy", ["reject", "impute"])
def test_snp_ids_with_a_comma_or_whitespace_are_refused(tmp_path, bad_id, policy):
    # a missing token sends the impute case through the line scan
    text = CANONICAL.replace("rs2", bad_id)
    if policy == "impute":
        text = text.replace("0\t2\t0\t0", "0\t2\tNA\t0")
    with pytest.raises(DataFormatError, match="contains a comma or whitespace") as err:
        load_dataset(write_tmp(tmp_path, text), missing_policy=policy)
    assert err.value.line == 1 and repr(bad_id) in str(err.value)


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
    ds = load_dataset(write_tmp(tmp_path, text), missing_policy="impute")
    assert ds.controls[0, 1] == 1


def test_mode_impute_fills_column_mode(tmp_path):
    # rs2 column has observed values {1, 1, 0}; the N becomes the mode, 1.
    text = CANONICAL.replace("0\t2\t0\t0", "0\t2\tN\t0")
    ds = load_dataset(write_tmp(tmp_path, text), missing_policy="impute")
    assert ds.controls[0, 1] == 1
    # cases and controls interleaved, missing tokens in both cohorts; the modes
    # count both cohorts: a {2, 2, 1, 0} -> 2, b {0, 1, 1, 2} -> 1, c {0, 0, 1, 1} -> 0
    interleaved = (
        "#snp\ta\tb\tc\n#pos\t1\t2\t3\n"
        "0\t2\t.\t0\n"
        "1\tNA\t0\t1\n"
        "0\t2\t1\tN\n"
        "1\t1\t1\t0\n"
        "0\t-1\t2\t1\n"
        "1\t0\tN\t.\n"
    )
    ds = load_dataset(write_tmp(tmp_path, interleaved, "mixed.tsv"), missing_policy="impute")
    assert ds.cases.tolist() == [[2, 0, 1], [1, 1, 0], [0, 1, 0]]
    assert ds.controls.tolist() == [[2, 1, 0], [2, 1, 0], [2, 2, 1]]


def test_mode_impute_tie_prefers_smaller_code(tmp_path):
    # column observations {0, 0, 1}: mode is 0; also the documented example.
    text = (
        "#snp\ta\n#pos\t5\n"
        "1\tN\n"
        "1\t0\n"
        "0\t0\n"
        "0\t1\n"
    )
    ds = load_dataset(write_tmp(tmp_path, text), missing_policy="impute")
    assert ds.cases[0, 0] == 0
    # exact tie {1, 2} resolves to the smaller code as well
    tie = "#snp\ta\n#pos\t5\n1\tN\n1\t1\n0\t2\n"
    ds2 = load_dataset(write_tmp(tmp_path, tie, "tie.tsv"), missing_policy="impute")
    assert ds2.cases[0, 0] == 1


def test_impute_with_no_observations_fails(tmp_path):
    text = "#snp\ta\n#pos\t5\n1\tN\n0\tN\n"
    with pytest.raises(DataFormatError):
        load_dataset(write_tmp(tmp_path, text), missing_policy="impute")
    # the error names the first SNP with nothing observed, in either cohort
    text = "#snp\ta\tb\tc\td\n#pos\t1\t2\t3\t4\n0\t1\tN\t.\tNA\n1\t.\tNA\t-1\t2\n"
    with pytest.raises(DataFormatError, match="SNP 'b' has no observed genotype"):
        load_dataset(write_tmp(tmp_path, text, "two.tsv"), missing_policy="impute")


def test_unknown_missing_policy(tmp_path):
    for policy in ("zero-fill", "mode-impute"):
        with pytest.raises(ValueError):
            load_dataset(write_tmp(tmp_path, CANONICAL), missing_policy=policy)


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
    src = write_tmp(tmp_path, "#snp\ta\tb\n#pos\t1\t2\n")
    ds = load_dataset(src)
    assert ds.n_cases == 0 and ds.n_controls == 0 and ds.n_snps == 2
    write_dataset(ds, tmp_path / "copy.tsv")
    assert (tmp_path / "copy.tsv").read_bytes() == src.read_bytes()  # the two header lines


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
    assert_one_matrix(filtered)

    unchanged, removed0 = hwe_filter(ds, 0.0)
    assert removed0 == [] and unchanged is ds


def hwe_reference_p(column):
    """One control column's HWE p-value, cell by cell, from ``scipy.stats``."""
    m = column.size
    counts = np.bincount(column, minlength=3)
    q = (2 * counts[2] + counts[1]) / (2.0 * m)
    expected = m * np.array([(1 - q) ** 2, 2 * q * (1 - q), q**2])
    stat = sum((c - e) ** 2 / e for c, e in zip(counts, expected) if e > 0)
    return float(chi2.sf(stat, 1))


def test_hwe_filter_equals_a_per_snp_reference(monkeypatch):
    m = 300
    monkeypatch.setattr(dataio, "_COUNT_CELLS", 3 * m + 1)  # three SNPs a chunk, the last one short
    rng = np.random.default_rng(23)
    columns = [hw_controls(rng, q, m) for q in (0.05, 0.2, 0.35, 0.5)]
    columns += [rng.choice(3, size=m, p=rng.dirichlet([4.0, 4.0, 4.0])).astype(np.int8)
                for _ in range(16)]
    columns += [np.zeros(m, np.int8), np.full(m, 2, np.int8)]  # two cells expected empty
    controls = np.stack(columns, axis=1)
    ids = tuple(f"s{j}" for j in range(controls.shape[1]))
    ds = GenotypeDataset(cases=np.zeros((3, len(ids)), np.int8), controls=controls,
                         snp_ids=ids, positions=range(1, len(ids) + 1))
    p = [hwe_reference_p(column) for column in controls.T]
    assert p[-2:] == [1.0, 1.0]
    threshold = sorted(p)[len(p) // 2]  # one SNP's own p-value: strict < keeps it
    assert 0.0 < threshold < 1.0
    filtered, removed = hwe_filter(ds, threshold)
    assert removed == [sid for sid, value in zip(ids, p) if value < threshold]
    assert ids[p.index(threshold)] in filtered.snp_ids
    assert filtered.snp_ids == tuple(sid for sid, value in zip(ids, p) if value >= threshold)
    assert 0 < len(removed) < len(ids)


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


# -- fixed-width decode against the per-line scan ---------------------------------


def random_panel_text(rng, n_cases, n_controls, n_snps, missing=(), eol="\n", final_eol=True):
    """A panel's text with cases and controls interleaved at random; returns the
    text and the expected case and control matrices (missing cells as -1)."""
    pheno = rng.permutation([1] * n_cases + [0] * n_controls)
    codes = rng.integers(0, 3, size=(pheno.size, n_snps))
    tokens = codes.astype(str).astype(object)
    if missing and codes.size:
        cells = rng.random(codes.shape) < 0.05
        tokens[cells] = rng.choice(list(missing), size=int(cells.sum()))
        codes[cells] = -1
    lines = ["#snp\t" + "\t".join(f"rs{j}" for j in range(n_snps)),
             "#pos\t" + "\t".join(str(10 * (j + 1)) for j in range(n_snps))]
    lines += [f"{p}\t" + "\t".join(row) for p, row in zip(pheno, tokens)]
    text = eol.join(lines) + (eol if final_eol else "")
    return text, codes[pheno == 1], codes[pheno == 0]


def load_by_line_scan(monkeypatch, path, missing_policy="reject"):
    with monkeypatch.context() as m:
        m.setattr(dataio, "_fixed_width_codes", lambda raw, n_snps: None)
        return load_dataset(path, missing_policy=missing_policy)


def assert_same_dataset(a, b):
    assert a.snp_ids == b.snp_ids and a.positions == b.positions
    for name in ("cases", "controls"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int8 and x.shape == y.shape
        assert np.array_equal(x, y), name


@pytest.mark.parametrize(
    "n_cases, n_controls, n_snps",
    [(7, 9, 5), (0, 6, 3), (6, 0, 3), (0, 0, 4), (1, 1, 1), (40, 33, 57)],
)
@pytest.mark.parametrize(
    "eol, final_eol", [("\n", True), ("\r\n", True), ("\n", False), ("\r\n", False)]
)
def test_fixed_width_decode_equals_the_line_scan(
    tmp_path, monkeypatch, n_cases, n_controls, n_snps, eol, final_eol
):
    rng = np.random.default_rng(n_cases * 1000 + n_controls * 10 + n_snps)
    text, cases, controls = random_panel_text(
        rng, n_cases, n_controls, n_snps, eol=eol, final_eol=final_eol
    )
    path = tmp_path / "panel.tsv"
    path.write_bytes(text.encode("utf-8"))  # keeps the line ends as written
    fast = load_dataset(path)
    assert_same_dataset(fast, load_by_line_scan(monkeypatch, path))
    assert np.array_equal(fast.cases, cases.reshape(-1, n_snps))
    assert np.array_equal(fast.controls, controls.reshape(-1, n_snps))


@pytest.mark.parametrize("tokens", [(".",), ("N",), ("NA",), ("-1",), (".", "N", "NA", "-1")])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_imputed_panels_load_alike_by_either_path(tmp_path, monkeypatch, tokens, eol):
    rng = np.random.default_rng(len(tokens) + len(eol))
    text, cases, controls = random_panel_text(rng, 30, 25, 12, missing=tokens, eol=eol)
    assert (cases == -1).any() or (controls == -1).any()
    path = tmp_path / "panel.tsv"
    path.write_bytes(text.encode("utf-8"))
    ds = load_dataset(path, missing_policy="impute")
    assert_same_dataset(ds, load_by_line_scan(monkeypatch, path, "impute"))
    observed = np.vstack([cases, controls])
    for mat, want in ((ds.cases, cases), (ds.controls, controls)):
        kept = want >= 0
        assert np.array_equal(mat[kept], want[kept])
        for i, j in zip(*np.nonzero(~kept)):
            col = observed[:, j]
            assert mat[i, j] == np.bincount(col[col >= 0], minlength=3).argmax()
    with pytest.raises(DataFormatError, match="missing genotype"):
        load_dataset(path)


def test_fixed_width_decode_declines_every_byte_but_the_codes():
    section = b"1\t0\t1\t2\n0\t2\t2\t0\n"
    got = dataio._fixed_width_codes(np.frombuffer(section, np.uint8), 3)
    want = dataio._scan_rows(section.decode("ascii").splitlines(), 3, impute=False)
    assert got.dtype == np.int8 and np.array_equal(got, want)
    # each other byte, in the phenotype cell and the first and last code
    # cells of the first and the last row
    for row in (0, 1):
        for col, valid in ((0, b"01"), (1, b"012"), (3, b"012")):
            for byte in set(range(256)) - set(valid):
                cells = bytearray(section)
                cells[8 * row + 2 * col] = byte
                raw = np.frombuffer(bytes(cells), np.uint8)
                assert dataio._fixed_width_codes(raw, 3) is None, (row, col, byte)


def test_invalid_code_on_the_last_of_four_thousand_rows_names_its_line(tmp_path):
    rng = np.random.default_rng(41)
    text, _, _ = random_panel_text(rng, 2000, 2000, 20)
    lines = text.splitlines()
    lines[-1] = lines[-1][:-1] + "3"
    path = write_tmp(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert err.value.line == 4002
    assert str(err.value) == "line 4002: invalid genotype code '3'"


def test_canonical_file_never_reaches_the_line_scan(tmp_path, monkeypatch):
    rng = np.random.default_rng(42)
    ds = GenotypeDataset(
        cases=rng.integers(0, 3, size=(300, 40)),
        controls=rng.integers(0, 3, size=(250, 40)),
        snp_ids=tuple(f"snp{j:04d}" for j in range(40)),
        positions=tuple(range(100, 4100, 100)),
    )
    path = tmp_path / "canonical.tsv"
    write_dataset(ds, path)

    def refuse(*args, **kwargs):
        raise AssertionError("the line scan ran on a canonical file")

    monkeypatch.setattr(dataio, "_scan_rows", refuse)
    assert_same_dataset(load_dataset(path), ds)


def refuse_line_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the line scan ran on a fixed-width file")

    monkeypatch.setattr(dataio, "_scan_rows", refuse)


def test_fixed_width_file_with_crlf_and_utf8_ids_skips_the_line_scan(tmp_path, monkeypatch):
    text = CANONICAL.replace("rs2", "rsé二").replace("\n", "\r\n")
    path = tmp_path / "crlf.tsv"
    path.write_bytes(text.encode("utf-8"))
    want = load_by_line_scan(monkeypatch, path)
    refuse_line_scan(monkeypatch)
    got = load_dataset(path)
    assert got.snp_ids == ("rs1", "rsé二", "rs3")
    assert_same_dataset(got, want)


@pytest.mark.parametrize(
    "old, new",
    [
        (b"rs2", b"rs\xff2"),  # in a header line of a fixed-width file
        (b"rs2\trs3\n", b"rs2\trs3\xe4\n"),  # a lead byte cut off by the newline
        (b"0\t0\t0\t1\n", b"0\t0\t0\t\xff\n"),  # in the data section
    ],
)
def test_non_utf8_bytes_anywhere_are_a_data_error(tmp_path, old, new):
    path = tmp_path / "bad.tsv"
    path.write_bytes(CANONICAL.encode("utf-8").replace(old, new))
    with pytest.raises(DataFormatError, match="is not UTF-8 text: invalid"):
        load_dataset(path)


def test_header_with_another_line_break_is_split_as_the_line_scan_splits_it(tmp_path):
    # a form feed is a line break to splitlines, so the ids line ends early
    path = write_tmp(tmp_path, CANONICAL.replace("#snp\trs1\trs2", "#snp\trs1\x0crs2"))
    with pytest.raises(DataFormatError, match="line 2: second line must be '#pos'"):
        load_dataset(path)
