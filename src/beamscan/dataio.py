"""Reading, validating and writing case-control genotype tables.

The on-disk format is UTF-8, tab-separated:

* line 1: ``#snp`` followed by one non-empty identifier per SNP (no commas
  or whitespace, since files that name SNP sets separate ids by those),
* line 2: ``#pos`` followed by strictly increasing non-negative integer
  base-pair positions,
* every further line: one individual, phenotype first (``1`` case, ``0``
  control), then one genotype code per SNP (``0``/``1``/``2`` minor-allele
  dosage; ``NA``, ``.``, ``-1`` or ``N`` missing).

Canonical files list all cases before all controls and end with a newline;
``write_dataset`` emits exactly that shape, so load/write round-trips are
byte-identical for canonical input.

``load_dataset`` decodes a data section in which every token is one of
``0``/``1``/``2`` and every line ends in a newline, so that every line has
the same width, as one byte array through a 256-entry table. Any other data
section (one with an error, a missing token, a blank line or no newline after
its last line) goes to the per-line scan, which exists for those cases: it
reports each error with its line number and, under the ``impute`` policy,
codes a missing token as -1. The file is read as bytes with newlines
translated as text mode would, so CRLF files arrive with plain newlines; the
fixed-width decode then decodes only the two header lines as UTF-8, and the
line scan the whole file. Both paths return one (individuals, 1 + SNPs)
matrix of phenotype and codes, in file order; ``load_dataset`` alone fills
the -1 cells with their column's mode and splits the rows into cases and
controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MISSING_TOKENS = frozenset({"NA", ".", "-1", "N"})
_CODE_MAP = {"0": 0, "1": 1, "2": 2}
_BYTE_CODES = np.full(256, 255, dtype=np.uint8)  # byte value -> genotype code, 255 for none
_BYTE_CODES[[ord(tok) for tok in _CODE_MAP]] = list(_CODE_MAP.values())
_COUNT_CELLS = 1 << 22  # genotype codes compared at a time by genotype_counts


class DataFormatError(ValueError):
    """Malformed genotype data; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, line ends as written (callers split them
    with ``splitlines``); bytes that do not decode are a data error."""
    return _decode(Path(path).read_bytes(), path)


def _decode(data: bytes, path: str | Path) -> str:
    """UTF-8 bytes read from ``path`` as text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


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

    def select(self, keep: list[int]) -> "GenotypeDataset":
        """The panel restricted to the SNP columns ``keep``, in that order."""
        return GenotypeDataset(
            cases=self.cases[:, keep],
            controls=self.controls[:, keep],
            snp_ids=tuple(self.snp_ids[j] for j in keep),
            positions=tuple(self.positions[j] for j in keep),
        )


def load_dataset(path: str | Path, missing_policy: str = "reject") -> GenotypeDataset:
    """Parse a genotype table, validating structure and codes.

    ``missing_policy`` is ``"reject"`` (any missing token is an error) or
    ``"impute"``: missing entries are replaced by the most frequent observed
    code at that SNP across both cohorts, ties resolved toward the smaller
    code.
    """
    if missing_policy not in ("reject", "impute"):
        raise ValueError(f"unknown missing policy: {missing_policy!r}")
    impute = missing_policy == "impute"

    raw = Path(path).read_bytes()
    if b"\r" in raw:  # universal newlines, as text mode reads them
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    codes = None
    first = raw.find(b"\n")
    second = raw.find(b"\n", first + 1)
    if second >= 0:
        codes = _fixed_width_codes(
            np.frombuffer(raw, np.uint8, offset=second + 1), raw.count(b"\t", 0, first)
        )
        if codes is not None:
            # the data section is ASCII, so only the header lines need decoding
            header = _decode(raw[: second + 1], path).split("\n")[:2]
            # they end at the first two newlines when splitlines cuts them there too
            if all(line.splitlines() == [line] for line in header):
                snp_ids, positions = _parse_header(*header)
            else:
                codes = None
    if codes is None:
        lines = _decode(raw, path).splitlines()
        del raw
        if len(lines) < 2:
            raise DataFormatError("file must contain #snp and #pos header lines", line=1)
        snp_ids, positions = _parse_header(lines[0], lines[1])
        codes = _scan_rows(lines[2:], len(snp_ids), impute)
        if impute:
            _impute_modes(codes[:, 1:], snp_ids)
    phenotype = codes[:, 0]
    return GenotypeDataset(
        cases=codes[phenotype == 1, 1:],
        controls=codes[phenotype == 0, 1:],
        snp_ids=snp_ids,
        positions=positions,
    )


def _parse_header(first: str, second: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """SNP ids and positions from the ``#snp`` and ``#pos`` lines."""
    head = first.split("\t")
    if head[0] != "#snp" or len(head) < 2:
        raise DataFormatError("first line must be '#snp' followed by SNP ids", line=1)
    snp_ids = tuple(head[1:])
    n_snps = len(snp_ids)
    if len(set(snp_ids)) != n_snps:
        raise DataFormatError("duplicate SNP identifiers", line=1)
    for sid in snp_ids:
        if not sid:
            raise DataFormatError("empty SNP id (a doubled or trailing tab)", line=1)
        if "," in sid or any(map(str.isspace, sid)):
            raise DataFormatError(f"SNP id {sid!r} contains a comma or whitespace", line=1)

    posline = second.split("\t")
    if posline[0] != "#pos" or len(posline) != n_snps + 1:
        raise DataFormatError("second line must be '#pos' with one position per SNP", line=2)
    try:
        positions = tuple(int(tok) for tok in posline[1:])
    except ValueError:
        raise DataFormatError("positions must be integers", line=2) from None
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise DataFormatError("positions must be strictly increasing", line=2)
    if positions[0] < 0:
        raise DataFormatError("positions must be non-negative", line=2)
    return snp_ids, positions


def _fixed_width_codes(raw: np.ndarray, n_snps: int) -> np.ndarray | None:
    """The (individuals, 1 + n_snps) phenotype-and-code matrix of a data
    section, given as bytes, whose every line is a phenotype in {0, 1} and
    n_snps codes in {0, 1, 2}, tab-separated and ended by a newline; ``None``
    for any other data section."""
    width = 2 * (n_snps + 1)
    if raw.size % width:
        return None
    lines = raw.reshape(-1, width)
    separators = np.full(n_snps + 1, ord("\t"), dtype=np.uint8)
    separators[-1] = ord("\n")
    if not (lines[:, 1::2] == separators).all():
        return None
    codes = _BYTE_CODES[lines[:, 0::2]]
    if codes.size and (codes.max() > 2 or codes[:, 0].max() > 1):
        return None
    return codes.view(np.int8)


def _scan_rows(rows: list[str], n_snps: int, impute: bool) -> np.ndarray:
    """The (individuals, 1 + n_snps) phenotype-and-code matrix of the data
    lines, one token at a time; a missing token is -1 under ``impute``.

    It exists for the data sections that the fixed-width decode declines:
    those with missing tokens, a blank line, no newline after the last line
    or an error. It alone reports a malformed line, with its message and line
    number (the data section starts at line 3).
    """
    codes = np.empty((len(rows), n_snps + 1), dtype=np.int8)
    for row, (lineno, raw) in zip(codes, enumerate(rows, start=3)):
        if raw == "":
            raise DataFormatError("blank line in data section", line=lineno)
        toks = raw.split("\t")
        if len(toks) != n_snps + 1:
            raise DataFormatError(
                f"expected {n_snps + 1} fields, found {len(toks)}", line=lineno
            )
        if toks[0] not in ("0", "1"):
            raise DataFormatError(f"phenotype must be 0 or 1, found {toks[0]!r}", line=lineno)
        for j, tok in enumerate(toks):
            code = _CODE_MAP.get(tok)
            if code is None:
                if tok not in MISSING_TOKENS:
                    raise DataFormatError(f"invalid genotype code {tok!r}", line=lineno)
                if not impute:
                    raise DataFormatError(
                        f"missing genotype {tok!r} under reject policy", line=lineno
                    )
                code = -1
            row[j] = code
    return codes


def _impute_modes(codes: np.ndarray, snp_ids: tuple[str, ...]) -> None:
    """Replace the -1 entries of an (individuals, SNPs) code matrix, in place,
    by their column's most frequent observed code."""
    rows, cols = np.nonzero(codes < 0)
    if not cols.size:
        return
    counts = np.stack([(codes == c).sum(axis=0) for c in range(3)])
    empty = np.flatnonzero(counts.sum(axis=0) == 0)
    if empty.size:
        raise DataFormatError(
            f"SNP {snp_ids[empty[0]]!r} has no observed genotype to impute from"
        )
    codes[rows, cols] = counts.argmax(axis=0)[cols]  # argmax takes the smallest code on ties


def write_dataset(dataset: GenotypeDataset, path: str | Path) -> None:
    """Write the canonical tab-separated form (cases first, then controls)."""
    out = ["#snp\t" + "\t".join(dataset.snp_ids)]
    out.append("#pos\t" + "\t".join(str(p) for p in dataset.positions))
    for row in dataset.cases:
        out.append("1\t" + "\t".join(str(int(g)) for g in row))
    for row in dataset.controls:
        out.append("0\t" + "\t".join(str(int(g)) for g in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def genotype_counts(rows: np.ndarray) -> np.ndarray:
    """Per-row counts of codes 0, 1 and 2 in a (rows, width) code matrix, as
    a (rows, 3) intp array.

    Codes 1 and 2 are counted ``_COUNT_CELLS`` codes at a time, so the
    comparison never takes as much memory again as the matrix; code 0 is
    what remains of the width.
    """
    n_rows, width = rows.shape
    counts = np.empty((n_rows, 3), dtype=np.intp)
    step = max(1, _COUNT_CELLS // max(width, 1))
    for lo in range(0, n_rows, step):
        chunk = rows[lo : lo + step]
        counts[lo : lo + step, 1] = np.count_nonzero(chunk == 1, axis=1)
        counts[lo : lo + step, 2] = np.count_nonzero(chunk == 2, axis=1)
    counts[:, 0] = width - counts[:, 1] - counts[:, 2]
    return counts


def hwe_filter(dataset: GenotypeDataset, threshold: float) -> tuple[GenotypeDataset, list[str]]:
    """Drop SNPs out of Hardy-Weinberg equilibrium in controls.

    A 1-df chi-square test compares control genotype counts against the
    (q^2, 2q(1-q), (1-q)^2) expectation from the control allele frequency;
    a cell expected to hold no one adds nothing. SNPs with p-value below
    ``threshold`` are removed. With no controls the dataset is returned
    unchanged.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    m = dataset.n_controls
    if m == 0 or threshold == 0.0:
        return dataset, []
    from scipy.special import chdtrc  # off every command's start-up, as in bstat.chi2_sf

    counts = genotype_counts(dataset.controls.T)
    q = (2 * counts[:, 2] + counts[:, 1]) / (2.0 * m)
    expected = m * np.stack([(1 - q) ** 2, 2 * q * (1 - q), q**2], axis=1)
    terms = np.zeros_like(expected)
    np.divide((counts - expected) ** 2, expected, out=terms, where=expected > 0)
    out = chdtrc(1, np.add.reduce(terms, axis=1)) < threshold  # chdtrc(1, 0) is 1
    if out.all():
        raise DataFormatError("Hardy-Weinberg filter removed every SNP")
    if not out.any():
        return dataset, []
    removed = [dataset.snp_ids[j] for j in np.flatnonzero(out).tolist()]
    return dataset.select(np.flatnonzero(~out).tolist()), removed
