import importlib.util
from pathlib import Path

import pytest

from amecodes import stabtab
from amecodes.catalog import (EXISTS, NOT_EXISTS, UNKNOWN, catalog_dir,
                              catalog_grid, grid_marker, load_catalog, load_table)
from amecodes.codes import check_commutation, check_independence
from amecodes.errors import DomainError, ParseError

TABLE_IDS = {
    "ame_2_2", "ame_3_2", "ame_5_2", "ame_6_2", "ame_4_3",
    "code_4_1_2_2", "code_5_1_3_2", "code_4_2_2_2",
    "code_3_1_2_3", "code_5_1_3_9", "code_4_2_2_9",
}


def test_shipped_catalog_loads_and_verifies():
    entries = load_catalog()
    tables = [e for e in entries if e.file]
    assert len(tables) >= 10
    assert {e.id for e in tables} == TABLE_IDS
    for e in tables:
        t = load_table(e)
        assert check_commutation(t) is None
        assert check_independence(t) is None
        assert t.claimed == e.params


def test_round_trip_byte_identity():
    for e in load_catalog(verify=False):
        if e.file:
            src = (catalog_dir() / e.file).read_text()
            assert stabtab.emit(stabtab.parse(src)) == src


def test_derived_entries_carry_provenance_notes():
    notes = {e.id: e.note for e in load_catalog(verify=False) if e.source == "derived"}
    assert set(notes) == {"ame_5_2", "ame_4_3", "code_3_1_2_3", "code_4_1_2_2", "code_4_2_2_9"}
    assert all(note for note in notes.values())


def test_grid_matches_source_pattern():
    grid = catalog_grid()
    assert grid[(4, 2)] == NOT_EXISTS
    assert grid[(6, 2)] == EXISTS
    assert grid[(8, 6)] == UNKNOWN
    assert grid[(10, 3)] == EXISTS
    assert grid[(11, 7)] == EXISTS
    assert grid[(12, 4)] == NOT_EXISTS
    assert grid[(13, 8)] == UNKNOWN
    assert grid[(14, 3)] == NOT_EXISTS
    assert len(grid) == 11 * 7
    assert grid_marker(NOT_EXISTS) == "-" and grid_marker(UNKNOWN) == "?"
    # every row from n=4..14 present for q=2..8
    assert {n for (n, _) in grid} == set(range(4, 15))


def test_empty_directory_gives_empty_catalog(tmp_path):
    assert load_catalog(tmp_path) == []


def test_corrupted_token_names_file_and_line(tmp_path):
    bad = tmp_path / "bad.stabtab"
    bad.write_text("# stabtab v1\ncode n=2 q=2 k=0 d=2\ng1: z1 q9\ng2: x1 x1\n")
    (tmp_path / "index.toml").write_text(
        "[bad]\nparams = 2 0 2 2\nexistence = exists\nfile = bad.stabtab\n"
    )
    with pytest.raises(ParseError, match=r"bad\.stabtab:3"):
        load_catalog(tmp_path)


def test_catalog_rejects_index_table_mismatch(tmp_path):
    good = (catalog_dir() / "ame_2_2.stabtab").read_text()
    (tmp_path / "t.stabtab").write_text(good)
    (tmp_path / "index.toml").write_text(
        "[t]\nparams = 2 0 2 3\nexistence = exists\nfile = t.stabtab\n"
    )
    with pytest.raises(DomainError, match="index says"):
        load_catalog(tmp_path)


def test_catalog_names_the_entry_and_the_non_commuting_generators(tmp_path):
    # ame_3_2 with g3's x1 on site 0 turned into z1: g3 = z x x anticommutes
    # with g2 = z i z on site 2 alone
    for path in catalog_dir().iterdir():
        if path.suffix in (".stabtab", ".toml"):
            (tmp_path / path.name).write_text(path.read_text())
    table = tmp_path / "ame_3_2.stabtab"
    table.write_text(table.read_text().replace("x1 x1 x1", "z1 x1 x1"))
    with pytest.raises(DomainError, match="^catalog entry ame_3_2: generators g2 and g3 "
                                          "do not commute$"):
        load_catalog(tmp_path)


def test_load_table_errors():
    with pytest.raises(DomainError, match="no catalog entry"):
        load_table("nope")
    grid_entry = next(e for e in load_catalog(verify=False) if e.id == "grid_8_6")
    with pytest.raises(DomainError, match="metadata-only"):
        load_table(grid_entry)


def test_make_catalog_rewrites_the_shipped_files(tmp_path):
    # the tool regenerates, and re-verifies, every shipped file byte for byte
    path = Path(__file__).resolve().parents[1] / "tools" / "make_catalog.py"
    spec = importlib.util.spec_from_file_location("make_catalog", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.OUT = tmp_path
    tool.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    shipped = sorted(p.name for p in catalog_dir().iterdir() if p.suffix in (".stabtab", ".toml"))
    assert written == shipped
    for name in written:
        assert (tmp_path / name).read_bytes() == (catalog_dir() / name).read_bytes(), name
