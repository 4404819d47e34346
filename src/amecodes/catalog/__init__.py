"""The shipped table catalog and AME-existence grid.

Layout: a directory of ``*.stabtab`` files plus ``index.toml``, a flat
key-value manifest parsed by hand (sections ``[entry_id]``, lines
``key = value``; no library assumption).  Table entries carry
``params = n k d q``, a ``source`` (paper-figure or derived), an
``existence`` marker and a ``file``; bare grid cells carry
``params = n q`` and the existence marker only (exists / not-exists /
unknown, rendered -, ? in grids).  Everything is read-only after load.

Derived entries carry a ``note`` naming the oracle or derivation that
produced them.  Structural verification (parse, commutation,
independence, expected generator count) runs on load; brute-force
distance re-verification lives in the test suite and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..codes import CodeParams, GeneratorTable, require_stabilizer
from ..errors import DomainError, ParseError
from .. import stabtab

_HERE = Path(__file__).resolve().parent

EXISTS = "exists"
NOT_EXISTS = "not-exists"
UNKNOWN = "unknown"
_MARKERS = {EXISTS: "k", NOT_EXISTS: "-", UNKNOWN: "?"}


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog record: a shipped table or a bare (n, q) grid cell."""

    id: str
    n: int
    q: int
    k: int | None = None
    d: int | None = None
    source: str | None = None
    existence: str = EXISTS
    file: str | None = None
    note: str | None = None

    @property
    def params(self) -> CodeParams | None:
        if self.k is None or self.d is None:
            return None
        return CodeParams(self.n, self.k, self.d, self.q)


def catalog_dir() -> Path:
    """Directory holding the packaged catalog files."""
    return _HERE


def _parse_index(text: str, filename: str) -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    current: dict | None = None
    current_id = None

    def flush():
        nonlocal current, current_id
        if current is None:
            return
        if current_id in seen:
            raise ParseError(f"entry {current_id}: duplicate entry id", filename)
        seen.add(current_id)
        try:
            params = [int(x) for x in current.pop("params", "").split()]
        except ValueError:
            params = []
        if len(params) == 4:
            n, k, d, q = params
        elif len(params) == 2:
            n, q = params
            k = d = None
        else:
            raise ParseError(f"entry {current_id}: params must be 'n k d q' or 'n q'",
                             filename)
        try:  # a grid cell as the trivial [[n, 0, 1]]_q: n >= 1 and q >= 2
            CodeParams(n, 0 if k is None else k, 1 if d is None else d, q)
        except DomainError as exc:
            raise ParseError(f"entry {current_id}: {exc}", filename) from None
        existence = current.pop("existence", EXISTS)
        if existence not in _MARKERS:
            raise ParseError(f"entry {current_id}: bad existence {existence!r}", filename)
        entries.append(CatalogEntry(
            id=current_id, n=n, q=q, k=k, d=d,
            source=current.pop("source", None),
            existence=existence,
            file=current.pop("file", None),
            note=current.pop("note", None),
        ))
        if current:
            raise ParseError(f"entry {current_id}: unknown keys {sorted(current)}", filename)
        current, current_id = None, None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            current_id = line[1:-1].strip()
            current = {}
            continue
        if "=" not in line or current is None:
            raise ParseError(f"unrecognized index line {line!r}", filename, lineno)
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    flush()
    return entries


def load_catalog(directory: str | Path | None = None, verify: bool = True) -> list[CatalogEntry]:
    """All catalog entries; with ``verify``, every shipped table must parse
    and pass commutation + independence with its claimed parameters."""
    d = Path(directory) if directory is not None else _HERE
    index = d / "index.toml"
    if not index.exists():
        return []
    entries = _parse_index(index.read_text(), str(index))
    if verify:
        for entry in entries:
            if entry.file is None:
                continue
            table = load_table(entry, d)
            try:
                require_stabilizer(table)
            except DomainError as exc:
                raise DomainError(f"catalog entry {entry.id}: {exc}") from None
            if table.claimed is None or table.claimed != entry.params:
                raise DomainError(
                    f"catalog entry {entry.id}: file claims {table.claimed}, "
                    f"index says {entry.params}"
                )
    return entries


def load_table(entry: CatalogEntry | str, directory: str | Path | None = None) -> GeneratorTable:
    """The GeneratorTable behind a table entry (or entry id)."""
    d = Path(directory) if directory is not None else _HERE
    if isinstance(entry, str):
        matches = [e for e in load_catalog(d, verify=False) if e.id == entry]
        if not matches:
            raise DomainError(f"no catalog entry named {entry!r}")
        entry = matches[0]
    if entry.file is None:
        raise DomainError(f"catalog entry {entry.id} is metadata-only (no table)")
    return stabtab.parse_file(d / entry.file)


def catalog_grid(
    n_max: int = 14, q_max: int = 8, directory: str | Path | None = None
) -> dict[tuple[int, int], str]:
    """Existence markers for the (n, q) grid, n = 4..n_max, q = 2..q_max.

    Returns 'exists' / 'not-exists' / 'unknown' per cell, reproducing
    the source table's dash/question-mark pattern.
    """
    cells = {}
    for entry in load_catalog(directory, verify=False):
        if entry.id.startswith("grid_"):
            cells[(entry.n, entry.q)] = entry.existence
    return {
        (n, q): cells.get((n, q), UNKNOWN)
        for n in range(4, n_max + 1)
        for q in range(2, q_max + 1)
    }


def grid_marker(existence: str) -> str:
    """Render an existence value the way the source table prints it."""
    return _MARKERS[existence]
