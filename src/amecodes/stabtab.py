"""The stabilizer-table text format (versioned, canonical).

::

    # stabtab v1
    code n=<n> q=<q> [k=<k>] [d=<d>]
    [modulus: <c_m>,...,<c_1>,<c_0>]      # required iff q is a proper prime power
    g1: <tok> <tok> ... <tok>             # n site tokens per the Pauli grammar
    ...

``#`` starts a comment anywhere on a line; tokens are whitespace
separated.  The code line takes each of n, q, k and d at most once, and
no other attribute; k lies in [0, n].  Generators must be labelled
g1..gN in order, and N must be the expected generator count m*(n-k);
anything else is rejected with a message naming the expectation.
Emission is canonical, so files written by :func:`emit` parse back
byte-identically.
"""

from __future__ import annotations

import re
from pathlib import Path

from .codes import CodeParams, GeneratorTable
from .errors import DomainError, ParseError
from .fields import GF, factor_prime_power
from .pauli import PauliString

_CODE_RE = re.compile(r"^code\s+(.*)$")
_KV_RE = re.compile(r"^([a-z]+)=(\d+)$")
_GEN_RE = re.compile(r"^g(\d+):\s*(.*)$")


def _number(digits: str, filename: str | None, lineno: int) -> int:
    """int(digits), refused at its line past Python's int() digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{len(digits)}-digit number is too long", filename, lineno) from None


def parse(text: str, filename: str | None = None) -> GeneratorTable:
    """Parse stabtab source text into a verified-shape GeneratorTable."""
    n = q = k = d = modulus = code_line = modulus_line = None
    gen_rows: list[tuple[int, list[str], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CODE_RE.match(line)
        if m:
            if n is not None:
                raise ParseError("duplicate code line", filename, lineno)
            fields = {}
            for part in m.group(1).split():
                kv = _KV_RE.match(part)
                if not kv:
                    raise ParseError(f"bad code attribute {part!r}", filename, lineno)
                key = kv.group(1)
                if key not in ("n", "q", "k", "d"):
                    raise ParseError(f"unknown code attribute {key!r}; expected n, q, k or d",
                                     filename, lineno)
                if key in fields:
                    raise ParseError(f"repeated code attribute {key!r}", filename, lineno)
                fields[key] = _number(kv.group(2), filename, lineno)
            if "n" not in fields or "q" not in fields:
                raise ParseError("code line needs at least n= and q=", filename, lineno)
            n, q = fields["n"], fields["q"]
            k, d = fields.get("k"), fields.get("d")
            code_line = lineno
            if k is not None and k > n:
                raise ParseError(f"k={k} lies outside [0, n] for n={n}", filename, lineno)
            continue
        if line.startswith("modulus:"):
            if modulus is not None:
                raise ParseError("duplicate modulus line", filename, lineno)
            try:
                modulus = [int(c) for c in line[len("modulus:"):].split(",")]
            except ValueError:
                raise ParseError("modulus must be a comma list of integers", filename, lineno)
            modulus_line = lineno
            continue
        m = _GEN_RE.match(line)
        if m:
            gen_rows.append((_number(m.group(1), filename, lineno), m.group(2).split(), lineno))
            continue
        raise ParseError(f"unrecognized line {line!r}", filename, lineno)

    if n is None:
        raise ParseError("missing code line", filename, None)
    line = code_line
    try:
        _, field_m = factor_prime_power(q)
        if field_m > 1 and modulus is None:
            raise DomainError(f"q={q} is a proper prime power; a modulus line is required")
        line = modulus_line or code_line
        if field_m == 1 and modulus is not None:
            raise DomainError(f"q={q} is prime; modulus line not allowed")
        field = GF(q, modulus)
    except DomainError as exc:
        raise ParseError(str(exc), filename, line) from None

    for want, (label, _, lineno) in enumerate(gen_rows, start=1):
        if label != want:
            raise ParseError(f"generator rows must be g1..gN in order; found g{label}",
                             filename, lineno)
    if k is not None:
        expect = field_m * (n - k)
        if len(gen_rows) != expect:
            raise ParseError(
                f"[[{n},{k},?]]_{q} expects {expect} generators, found {len(gen_rows)}",
                filename, gen_rows[-1][2] if gen_rows else code_line)
    else:
        if len(gen_rows) % field_m or not 0 < len(gen_rows) <= field_m * n:
            raise ParseError(
                f"generator count {len(gen_rows)} is not m*(n-k) for q={q}, n={n}",
                filename, gen_rows[-1][2] if gen_rows else code_line)
        k = n - len(gen_rows) // field_m

    gens = []
    for _, tokens, lineno in gen_rows:
        if len(tokens) != n:
            raise ParseError(f"expected {n} site tokens, found {len(tokens)}",
                             filename, lineno)
        try:
            gens.append(PauliString.from_tokens(field, tokens))
        except Exception as exc:
            raise ParseError(str(exc), filename, lineno) from None

    try:
        claimed = CodeParams(n, k, d, q) if d is not None else None
    except DomainError as exc:
        raise ParseError(str(exc), filename, code_line) from None
    return GeneratorTable(field, n, tuple(gens), claimed)


def parse_file(path: str | Path) -> GeneratorTable:
    path = Path(path)
    return parse(path.read_text(), filename=str(path))


def emit(table: GeneratorTable) -> str:
    """Canonical text form; emit(parse(s)) reproduces canonical sources."""
    parts = [f"n={table.n}", f"q={table.field.q}"]
    if table.claimed is not None:
        parts += [f"k={table.claimed.k}", f"d={table.claimed.d}"]
    else:
        parts.append(f"k={table.k}")
    lines = ["# stabtab v1", "code " + " ".join(parts)]
    if table.field.m > 1:
        lines.append("modulus: " + ",".join(str(c) for c in table.field.modulus))
    for i, g in enumerate(table.gens, start=1):
        lines.append(f"g{i}: {g}")
    return "\n".join(lines) + "\n"


def write_file(table: GeneratorTable, path: str | Path) -> None:
    Path(path).write_text(emit(table))
