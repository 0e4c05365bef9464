"""Reading, validating and writing case-control genotype tables.

The on-disk format is UTF-8, tab-separated:

* line 1: ``#snp`` followed by one identifier per SNP,
* line 2: ``#pos`` followed by strictly increasing integer base-pair positions,
* every further line: one individual, phenotype first (``1`` case, ``0``
  control), then one genotype code per SNP (``0``/``1``/``2`` minor-allele
  dosage; ``NA``, ``.``, ``-1`` or ``N`` missing).

Canonical files list all cases before all controls and end with a newline;
``write_dataset`` emits exactly that shape, so load/write round-trips are
byte-identical for canonical input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import chdtrc

MISSING_TOKENS = frozenset({"NA", ".", "-1", "N"})
_CODE_MAP = {"0": 0, "1": 1, "2": 2}


def chi2_sf(x: float, df: float) -> float:
    """Chi-square upper tail P(X >= x); equals ``scipy.stats.chi2.sf``, which
    is not imported because it costs about a second at start-up."""
    return 1.0 if x <= 0 else float(chdtrc(df, x))


class DataFormatError(ValueError):
    """Malformed genotype data; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class GenotypeDataset:
    """Immutable case/control genotype matrices plus SNP metadata."""

    cases: np.ndarray  # (n_cases, n_snps) int8 codes in {0,1,2}
    controls: np.ndarray  # (n_controls, n_snps)
    snp_ids: tuple[str, ...]
    positions: tuple[int, ...]

    def __post_init__(self):
        cases = np.asarray(self.cases, dtype=np.int8)
        controls = np.asarray(self.controls, dtype=np.int8)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "snp_ids", tuple(self.snp_ids))
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        n = len(self.snp_ids)
        if n == 0:
            raise DataFormatError("dataset must contain at least one SNP")
        if cases.ndim != 2 or controls.ndim != 2:
            raise DataFormatError("genotype matrices must be two-dimensional")
        if cases.shape[1] != n or controls.shape[1] != n:
            raise DataFormatError("matrix width does not match number of SNP ids")
        if len(self.positions) != n:
            raise DataFormatError("position count does not match number of SNP ids")
        if len(set(self.snp_ids)) != n:
            raise DataFormatError("duplicate SNP identifiers")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise DataFormatError("positions must be strictly increasing")
        if self.positions[0] < 0:
            raise DataFormatError("positions must be non-negative")
        for mat in (cases, controls):
            if mat.size and (mat.min() < 0 or mat.max() > 2):
                raise DataFormatError("genotype codes must be 0, 1 or 2")
            mat.setflags(write=False)

    @property
    def n_cases(self) -> int:
        return self.cases.shape[0]

    @property
    def n_controls(self) -> int:
        return self.controls.shape[0]

    @property
    def n_snps(self) -> int:
        return len(self.snp_ids)

    @property
    def region_length(self) -> int:
        """Base-pair span of the panel; 1 for a single-SNP panel."""
        return max(self.positions[-1] - self.positions[0], 1)


def load_dataset(path: str | Path, missing_policy: str = "reject") -> GenotypeDataset:
    """Parse a genotype table, validating structure and codes.

    ``missing_policy`` is ``"reject"`` (any missing token is an error) or
    ``"mode-impute"`` (``"impute"`` accepted as an alias): missing entries are
    replaced by the most frequent observed code at that SNP across both
    cohorts, ties resolved toward the smaller code.
    """
    if missing_policy not in ("reject", "mode-impute", "impute"):
        raise ValueError(f"unknown missing policy: {missing_policy!r}")
    impute = missing_policy != "reject"

    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if len(lines) < 2:
        raise DataFormatError("file must contain #snp and #pos header lines", line=1)

    head = lines[0].split("\t")
    if head[0] != "#snp" or len(head) < 2:
        raise DataFormatError("first line must be '#snp' followed by SNP ids", line=1)
    snp_ids = tuple(head[1:])
    n_snps = len(snp_ids)
    if len(set(snp_ids)) != n_snps:
        raise DataFormatError("duplicate SNP identifiers", line=1)

    posline = lines[1].split("\t")
    if posline[0] != "#pos" or len(posline) != n_snps + 1:
        raise DataFormatError("second line must be '#pos' with one position per SNP", line=2)
    try:
        positions = tuple(int(tok) for tok in posline[1:])
    except ValueError:
        raise DataFormatError("positions must be integers", line=2) from None
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise DataFormatError("positions must be strictly increasing", line=2)

    case_rows: list[np.ndarray] = []
    control_rows: list[np.ndarray] = []
    missing_cells: list[tuple[int, list[int], int]] = []  # (cohort, row ref, line)
    for lineno, raw in enumerate(lines[2:], start=3):
        if raw == "":
            raise DataFormatError("blank line in data section", line=lineno)
        toks = raw.split("\t")
        if len(toks) != n_snps + 1:
            raise DataFormatError(
                f"expected {n_snps + 1} fields, found {len(toks)}", line=lineno
            )
        if toks[0] not in ("0", "1"):
            raise DataFormatError(f"phenotype must be 0 or 1, found {toks[0]!r}", line=lineno)
        row = np.empty(n_snps, dtype=np.int8)
        miss_cols: list[int] = []
        for j, tok in enumerate(toks[1:]):
            code = _CODE_MAP.get(tok)
            if code is None:
                if tok in MISSING_TOKENS:
                    if not impute:
                        raise DataFormatError(
                            f"missing genotype {tok!r} under reject policy", line=lineno
                        )
                    row[j] = -1
                    miss_cols.append(j)
                    continue
                raise DataFormatError(f"invalid genotype code {tok!r}", line=lineno)
            row[j] = code
        if toks[0] == "1":
            case_rows.append(row)
        else:
            control_rows.append(row)
        if miss_cols:
            cohort = 0 if toks[0] == "1" else 1
            idx = len(case_rows) - 1 if cohort == 0 else len(control_rows) - 1
            missing_cells.append((cohort, miss_cols, idx))

    cases = np.array(case_rows, dtype=np.int8) if case_rows else np.zeros((0, n_snps), np.int8)
    controls = (
        np.array(control_rows, dtype=np.int8) if control_rows else np.zeros((0, n_snps), np.int8)
    )

    if missing_cells:
        modes = _column_modes(cases, controls, snp_ids)
        for cohort, cols, idx in missing_cells:
            mat = cases if cohort == 0 else controls
            for j in cols:
                mat[idx, j] = modes[j]

    return GenotypeDataset(cases=cases, controls=controls, snp_ids=snp_ids, positions=positions)


def _column_modes(cases: np.ndarray, controls: np.ndarray, snp_ids) -> np.ndarray:
    """Most frequent observed code per column; -1 entries are ignored."""
    modes = np.zeros(len(snp_ids), dtype=np.int8)
    for j in range(len(snp_ids)):
        col = np.concatenate([cases[:, j], controls[:, j]])
        col = col[col >= 0]
        if col.size == 0:
            raise DataFormatError(f"SNP {snp_ids[j]!r} has no observed genotype to impute from")
        counts = np.bincount(col, minlength=3)
        modes[j] = int(np.argmax(counts))  # argmax takes the smallest code on ties
    return modes


def write_dataset(dataset: GenotypeDataset, path: str | Path) -> None:
    """Write the canonical tab-separated form (cases first, then controls)."""
    out = ["#snp\t" + "\t".join(dataset.snp_ids)]
    out.append("#pos\t" + "\t".join(str(p) for p in dataset.positions))
    for row in dataset.cases:
        out.append("1\t" + "\t".join(str(int(g)) for g in row))
    for row in dataset.controls:
        out.append("0\t" + "\t".join(str(int(g)) for g in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def column_counts(dataset: GenotypeDataset, snp: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Genotype code counts (0,1,2) at one SNP, for cases and for controls."""
    if not 0 <= snp < dataset.n_snps:
        raise IndexError(f"SNP index {snp} out of range for {dataset.n_snps} SNPs")
    case = np.bincount(dataset.cases[:, snp], minlength=3)
    ctrl = np.bincount(dataset.controls[:, snp], minlength=3)
    return tuple(int(c) for c in case[:3]), tuple(int(c) for c in ctrl[:3])


def hwe_filter(dataset: GenotypeDataset, threshold: float) -> tuple[GenotypeDataset, list[str]]:
    """Drop SNPs out of Hardy-Weinberg equilibrium in controls.

    A 1-df chi-square test compares control genotype counts against the
    (q^2, 2q(1-q), (1-q)^2) expectation from the control allele frequency;
    SNPs with p-value below ``threshold`` are removed. With no controls the
    dataset is returned unchanged.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    m = dataset.n_controls
    if m == 0 or threshold == 0.0:
        return dataset, []
    keep: list[int] = []
    removed: list[str] = []
    for j in range(dataset.n_snps):
        counts = np.bincount(dataset.controls[:, j], minlength=3)[:3]
        q = (2 * counts[2] + counts[1]) / (2.0 * m)
        expected = m * np.array([(1 - q) ** 2, 2 * q * (1 - q), q**2])
        mask = expected > 0
        stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        p = chi2_sf(stat, 1)
        if p < threshold:
            removed.append(dataset.snp_ids[j])
        else:
            keep.append(j)
    if not keep:
        raise DataFormatError("Hardy-Weinberg filter removed every SNP")
    if not removed:
        return dataset, []
    filtered = GenotypeDataset(
        cases=dataset.cases[:, keep],
        controls=dataset.controls[:, keep],
        snp_ids=tuple(dataset.snp_ids[j] for j in keep),
        positions=tuple(dataset.positions[j] for j in keep),
    )
    return filtered, removed
