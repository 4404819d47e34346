import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from amecodes.catalog import catalog_dir, load_catalog
from amecodes.cli import build_parser, main

# "<catalog id>[ --kl-d D]" -> exit code, stdout and stderr of `amecodes oracle`
PINNED_ORACLE = json.loads(
    (Path(__file__).resolve().parent / "pinned_outputs.json").read_text())["oracle"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", str(catalog_dir() / "ame_6_2.stabtab"))
    assert code == 0
    assert "commutation: pass" in out
    assert "distance: 4" in out
    assert "AME: yes" in out
    assert "QMDS" in out


def test_verify_failure_names_pair(tmp_path, capsys):
    bad = tmp_path / "bad.stabtab"
    bad.write_text("code n=2 q=2\ng1: x1 i\ng2: z1 i\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL at pair (g1, g2)" in out


@pytest.mark.parametrize("cmd", [["reduce"], ["children", "--outdir", "kids"], ["oracle"]])
def test_non_commuting_table_names_generators_as_the_file_does(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.stabtab"
    bad.write_text("code n=3 q=2\ng1: z1 z1 i\ng2: x1 x1 i\ng3: z1 i i\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert (code, out.splitlines()[1]) == (1, "commutation: FAIL at pair (g2, g3)")
    argv = [cmd[0], str(bad)] + [str(tmp_path / a) if a == "kids" else a for a in cmd[1:]]
    assert run(capsys, *argv) == (2, "", "error: generators g2 and g3 do not commute\n")


def test_verify_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/table.stabtab")
    assert code == 2
    assert "error" in err


def test_verify_budget_exit_3(capsys):
    code, _, err = run(capsys, "verify", str(catalog_dir() / "code_5_1_3_9.stabtab"),
                       "--budget", "100")
    assert code == 3


def test_reduce_writes_fixed_point(tmp_path, capsys):
    out_path = tmp_path / "out.stabtab"
    code, out, _ = run(capsys, "reduce", str(catalog_dir() / "ame_6_2.stabtab"),
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (catalog_dir() / "ame_6_2.stabtab").read_text()


def test_children_emits_family(tmp_path, capsys):
    code, out, _ = run(capsys, "children", str(catalog_dir() / "ame_6_2.stabtab"),
                       "--outdir", str(tmp_path))
    assert code == 0
    assert "[[5,1,3]]_2" in out and "[[4,2,2]]_2" in out
    files = sorted(p.name for p in tmp_path.glob("*.stabtab"))
    assert files == ["ame_6_2_child_k1.stabtab", "ame_6_2_child_k2.stabtab"]
    k1 = (tmp_path / "ame_6_2_child_k1.stabtab").read_text()
    assert k1 == (catalog_dir() / "code_5_1_3_2.stabtab").read_text()


def test_oracle_on_stabtab(capsys):
    code, out, _ = run(capsys, "oracle", str(catalog_dir() / "ame_4_3.stabtab"),
                       "--kl-d", "3", "--entropy-subsets", "1", "2")
    assert code == 0
    assert "knill-laflamme at d=3: pass" in out
    assert "dense distance: 3" in out
    assert f"{math.log2(3):.6f}" in out


def test_oracle_on_state_file(tmp_path, capsys):
    amps = np.zeros(81)
    for i in range(3):
        for j in range(3):
            amps[((i * 3 + j) * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3] = 1 / 3
    state = tmp_path / "ame43.txt"
    state.write_text("\n".join(f"{a} 0.0" for a in amps))
    code, out, _ = run(capsys, "oracle", "--state", str(state), "--q", "3",
                       "--entropy-subsets", "2")
    assert code == 0
    assert "n=4, q=3" in out
    assert f"{2*math.log2(3):.6f}" in out


def test_oracle_entropy_of_a_product_state_prints_positive_zero(tmp_path, capsys):
    state = tmp_path / "zero.txt"
    state.write_text("1 0\n0 0\n0 0\n0 0\n")  # |00>
    code, out, _ = run(capsys, "oracle", "--state", str(state), "--q", "2",
                       "--entropy-subsets", "1")
    assert code == 0
    assert out == ("state: n=2, q=2 (normalized input)\n"
                   "entropy |A|=1: min 0.000000  max 0.000000 bits\n")


def test_oracle_refuses_q_with_a_stabtab_file(capsys):
    code, out, err = run(capsys, "oracle", str(catalog_dir() / "ame_3_2.stabtab"), "--q", "3")
    assert (code, out) == (2, "")
    assert err == "error: --q is a --state-only flag: a stabtab file gives q on its code line\n"


def test_rate_fixed_and_optimized(capsys):
    code, out, _ = run(capsys, "rate", "--n", "5", "--k", "1", "--d", "3", "--q", "2",
                       "--ltot", "1000", "--l0", "1.0")
    assert code == 0
    assert "1000 links of 1.000 km" in out
    code, out, _ = run(capsys, "rate", "--n", "5", "--k", "1", "--d", "3", "--q", "2",
                       "--ltot", "1000", "--optimize")
    assert code == 0
    assert "optimal plan:" in out


def test_cost_output(capsys):
    code, out, _ = run(capsys, "cost", "--n", "5", "--k", "1", "--d", "3", "--q", "2",
                       "--ltot", "1000")
    assert code == 0
    assert "C_ST" in out and "C_LT" in out


def test_table_csv(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--nmax", "6", "--qmax", "3",
                       "--distances", "1000", "10000", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n\\q,2,3"
    assert lines[1] == "4,\"-,-\",\"1,1\""
    assert lines[3] == "6,\"1,1\",\"1,1\""


def test_figure_csv(tmp_path, capsys):
    csv_path = tmp_path / "fig.csv"
    code, out, _ = run(capsys, "figure", "--ame", "6,2", "--include", "7,1,3,2",
                       "--ltots", "1000", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "ltot_km,code,rate_t0_fixed_l0,c_st,opt_l0_km"
    assert len(lines) == 4  # two children + Steane
    assert any("[[7,1,3]]_2" in ln for ln in lines)


def test_catalog_subcommands(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "ame_6_2: [[6,0,4]]_2 [paper-figure]" in out
    code, out, _ = run(capsys, "catalog", "show", "ame_2_2")
    assert code == 0 and out.startswith("# stabtab v1")
    code, out, _ = run(capsys, "catalog", "grid")
    assert code == 0 and "n\\q" in out
    code, _, err = run(capsys, "catalog", "show")
    assert code == 2


# -- typed errors: exit 2 with a message, never a traceback or an inf result -------------

TWO_BELL_PAIRS = "code n=4 q=2\ng1: x1 i i z1\ng2: i x1 z1 i\ng3: i z1 x1 i\ng4: z1 i i x1\n"
NOT_2_UNIFORM = "code n=4 q=2\ng1: x1 z1 i z1\ng2: z1 x1 i z1\ng3: i i x1 z1\ng4: z1 z1 z1 x1\n"


def test_rate_zero_link_length_exit_2(capsys):
    code, out, err = run(capsys, "rate", "--n", "5", "--k", "1", "--d", "3", "--q", "2",
                         "--ltot", "1000", "--l0", "0")
    assert code == 2 and out == ""
    assert "--l0 must be a positive link length" in err


def test_cost_and_rate_without_finite_cost_exit_2(capsys):
    # eta_c = 0 transmits nothing: no link count gives a finite cost
    for cmd in (["cost"], ["rate", "--optimize"]):
        code, out, err = run(capsys, *cmd, "--n", "5", "--k", "1", "--d", "3", "--q", "2",
                             "--ltot", "1000", "--etac", "0")
        assert code == 2 and "inf" not in out
        assert "no finite cost" in err


def test_zero_coupling_names_its_cause(capsys):
    cause = "has no finite cost at any link count: nothing arrives (eta_c = 0)"
    for cmd in (["cost"], ["rate", "--optimize"]):
        code, out, err = run(capsys, *cmd, "--n", "5", "--k", "1", "--d", "3", "--q", "2",
                             "--ltot", "1000", "--etac", "0")
        assert code == 2 and out == ""
        assert f"[[5,1,3]]_2 over 1000 km {cause}" in err


def test_underflowed_rate_names_its_cause(capsys):
    # with eta_c > 0 every link count has a positive rate, but below 1e-308
    cause = ("has no finite cost at any link count: the rate underflows double precision "
             "at every link count, so the minimum cost exceeds about 1.8e308 /km")
    code, out, err = run(capsys, "figure", "--ame", "6,2", "--ltots", "10000", "--etac", "0.5")
    assert code == 2 and out == ""
    assert f"[[5,1,3]]_2 over 10000 km {cause}" in err
    for cmd in (["cost"], ["rate", "--optimize"]):
        code, out, err = run(capsys, *cmd, "--n", "8", "--k", "6", "--d", "2", "--q", "7",
                             "--ltot", "10000", "--etac", "0.98")
        assert code == 2 and out == ""
        assert f"[[8,6,2]]_7 over 10000 km {cause}" in err


def test_table_refuses_a_cell_whose_every_child_has_no_finite_cost(capsys):
    # no child of AME(6,2) has a finite C_LT there, so no k is the least
    for etac, ltot, cause in [
        ("0.5", "10000", "the rate underflows double precision at every link count, "
                         "so the minimum cost exceeds about 1.8e308 /km"),
        ("0", "1000", "nothing arrives (eta_c = 0)"),
    ]:
        code, out, err = run(capsys, "table", "--etac", etac)
        assert (code, out) == (2, "")
        assert err == (f"error: every child of AME(6,2) over {ltot} km has no finite cost "
                       f"at any link count: {cause}\n")


def test_beyond_link_grid_bound_exit_2(capsys):
    # inf used to escape as an OverflowError traceback
    code_flags = ["--n", "5", "--k", "1", "--d", "3", "--q", "2"]
    for ltot in ("1e12", "inf"):
        for cmd in (["cost", *code_flags, "--ltot"], ["figure", "--ame", "6,2", "--ltots"]):
            code, out, err = run(capsys, *cmd, ltot)
            assert code == 2 and out == ""
            assert "exceeds the 100000 km bound" in err


def test_table_below_grid_exit_2(capsys):
    code, out, err = run(capsys, "table", "--nmax", "3")
    assert code == 2 and out == ""
    assert "n >= 4 and q >= 2" in err


def test_children_distance_miss_exit_2(tmp_path, capsys):
    bell = tmp_path / "bell.stabtab"
    bell.write_text(TWO_BELL_PAIRS)
    code, _, err = run(capsys, "children", str(bell), "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert "family member [[4,0,3]]_2 has distance 2, expected 3" in err


def test_reduce_names_the_site_that_is_not_uniform(tmp_path, capsys):
    path = tmp_path / "state.stabtab"
    path.write_text(NOT_2_UNIFORM)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "distance: 2" in out
    for cmd in (["reduce", str(path)], ["children", str(path), "--outdir", str(tmp_path)]):
        code, _, err = run(capsys, *cmd)
        assert code == 2
        assert "no independent pivot on site 1" in err and "not 2-uniform" in err


def test_no_jobs_flag():
    assert "--jobs" not in build_parser().format_help()


def test_oracle_state_refuses_zero_and_siteless_input(tmp_path, capsys):
    cases = {
        "0 0\n0 0\n0 0\n0 0\n": "all amplitudes zero",
        "1 0\n": "at least q=2 amplitudes (one site), got 1",
        "nan 0\n0 0\n0 0\n1 0\n": "must be finite",
    }
    for text, message in cases.items():
        state = tmp_path / "state.txt"
        state.write_text(text)
        code, out, err = run(capsys, "oracle", "--state", str(state), "--q", "2")
        assert code == 2 and out == ""
        assert message in err


def test_oracle_refuses_a_file_and_a_state_together(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("1 0\n0 0\n")
    code, out, err = run(capsys, "oracle", str(catalog_dir() / "ame_4_3.stabtab"),
                         "--state", str(state), "--q", "2")
    assert (code, out) == (2, "")
    assert err == "error: pass a stabtab file or --state with --q, not both\n"


def test_figure_refuses_infinite_costs(capsys):
    # eta_c = 0 leaves every child without a finite cost; at 10000 km and
    # eta_c = 0.98 only the last child of AME(14,7) has none, its siblings do
    cases = {("6,2", "1000", "0"): "[[5,1,3]]_2 over 1000 km",
             ("14,7", "10000", "0.98"): "[[8,6,2]]_7 over 10000 km"}
    for (ame, ltot, etac), first in cases.items():
        code, out, err = run(capsys, "figure", "--ame", ame, "--ltots", ltot, "--etac", etac)
        assert code == 2 and out == ""
        assert f"{first} has no finite cost at any link count" in err


def test_figure_names_a_childless_ame(capsys):
    code, out, err = run(capsys, "figure", "--ame", "3,2")
    assert code == 2 and out == ""
    assert "AME(3,2) has no children with distance >= 2" in err
    code, out, _ = run(capsys, "figure", "--ame", "3,2", "--include", "5,1,3,2",
                       "--ltots", "1000")
    assert code == 0 and "[[5,1,3]]_2" in out and "inf" not in out


CODE_FLAGS = ["--n", "5", "--k", "1", "--d", "3", "--q", "2"]


@pytest.mark.parametrize("argv, message", [
    (["rate", *CODE_FLAGS, "--ltot", "inf", "--l0", "1"],
     "--ltot inf km over --l0 1 km is not a finite link count"),
    (["rate", *CODE_FLAGS, "--ltot", "nan", "--l0", "1"], "--ltot must be a number, got nan"),
    (["rate", *CODE_FLAGS, "--ltot", "nan", "--optimize"], "--ltot must be a number, got nan"),
    (["cost", *CODE_FLAGS, "--ltot", "nan"], "--ltot must be a number, got nan"),
    (["figure", "--ame", "6,2", "--ltots", "nan"], "--ltots must be a number, got nan"),
    (["table", "--distances", "nan"], "--distances must be a number, got nan"),
    (["cost", *CODE_FLAGS, "--ltot", "1000", "--latt", "nan"], "--latt must be a number, got nan"),
])
def test_non_finite_distances_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_dmax_below_one_exit_2(capsys):
    for dmax in ("-2", "0"):
        code, out, err = run(capsys, "verify", str(catalog_dir() / "ame_5_2.stabtab"),
                             "--dmax", dmax)
        assert code == 2 and out == ""
        assert f"--dmax must be at least 1, got {dmax}" in err
    code, out, _ = run(capsys, "verify", str(catalog_dir() / "ame_5_2.stabtab"), "--dmax", "1")
    assert code == 1 and "distance: >1 (scanned to 1)" in out


@pytest.mark.parametrize("cmd, budget", [
    (["verify", "ame_6_2.stabtab"], "-1"),
    (["children", "code_5_1_3_9.stabtab", "--outdir", "kids", "--no-verify"], "-7"),
])
def test_negative_budget_exit_2(tmp_path, capsys, cmd, budget):
    argv = [cmd[0], str(catalog_dir() / cmd[1])]
    argv += [str(tmp_path / a) if a == "kids" else a for a in cmd[2:]]
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert (code, out, err) == (2, "", f"error: --budget must be at least 0, got {budget}\n")
    assert not (tmp_path / "kids").exists()
    # a budget of 0 is valid and runs out at the first weight class
    code, _, err = run(capsys, "verify", str(catalog_dir() / "ame_6_2.stabtab"), "--budget", "0")
    assert code == 3 and "(budget 0)" in err


def test_oracle_kl_d_below_one_exit_2(capsys):
    table = str(catalog_dir() / "ame_5_2.stabtab")
    for kl_d in ("-3", "0"):
        code, out, err = run(capsys, "oracle", table, "--kl-d", kl_d)
        assert code == 2 and out == ""
        assert f"--kl-d must be at least 1, got {kl_d}" in err
    code, out, _ = run(capsys, "oracle", table, "--kl-d", "1")
    assert code == 0 and "knill-laflamme at d=1: pass" in out


def test_oracle_entropy_subsets_below_one_exit_2(capsys):
    # refused before the expansion line or any entropy is printed
    table = str(catalog_dir() / "ame_6_2.stabtab")
    for sizes, worst in ((("0", "-1"), "-1"), (("2", "0"), "0")):
        code, out, err = run(capsys, "oracle", table, "--entropy-subsets", *sizes)
        assert code == 2 and out == ""
        assert f"--entropy-subsets sizes must be at least 1, got {worst}" in err
    code, out, _ = run(capsys, "oracle", table, "--entropy-subsets", "1")
    assert code == 0 and "entropy |A|=1:" in out


def test_oracle_kl_d_beyond_n(capsys):
    # a state passes every weight <= n, then the range error; a code fails first
    code, out, err = run(capsys, "oracle", str(catalog_dir() / "ame_5_2.stabtab"), "--kl-d", "7")
    assert code == 2 and "error: weight 6 out of range for n=5" in err
    code, out, _ = run(capsys, "oracle", str(catalog_dir() / "code_4_1_2_2.stabtab"),
                       "--kl-d", "9")
    assert code == 1 and "FAIL" in out and "(weight 2)" in out


def test_rate_fixed_l0_beyond_link_bound_exit_2(capsys):
    code, out, err = run(capsys, "rate", *CODE_FLAGS, "--ltot", "1000", "--l0", "1e-300")
    assert code == 2 and out == ""
    assert "is 1e+303 links, above the bound of 1000000" in err
    code, out, _ = run(capsys, "rate", *CODE_FLAGS, "--ltot", "1000", "--l0", "0.001")
    assert code == 0 and "plan: 1000000 links" in out


@pytest.mark.parametrize("l0, message", [
    ("1e-300", "--ltots 1000 km over --l0 1e-300 km is 1e+303 links, above the bound of 1000000"),
    ("1e-6", "--ltots 1000 km over --l0 1e-06 km is 1e+09 links, above the bound of 1000000"),
    ("inf", "--l0 must be a positive link length in km, got inf"),
    ("0", "--l0 must be a positive link length in km, got 0"),
])
def test_figure_fixed_l0_beyond_link_bound_exit_2(capsys, l0, message):
    # these printed rates of 1, 0.999985 and 0 from meaningless link counts;
    # figure has --ltots, not rate's --ltot, and one wording for 0 and inf
    code, out, err = run(capsys, "figure", "--ame", "5,2", "--ltots", "1000", "--l0", l0)
    assert code == 2 and out == ""
    assert message in err
    assert "--ltot " not in err


@pytest.mark.parametrize("ltot, message", [
    ("0", "total distance must be positive, got 0"),
    ("-5", "total distance must be positive, got -5"),
    ("1e12", "exceeds the 100000 km bound"),
])
def test_link_grid_refusals_exit_2_on_every_optimizing_command(capsys, ltot, message):
    for argv in (["table", "--distances", "1000", ltot],
                 ["cost", *CODE_FLAGS, "--ltot", ltot],
                 ["figure", "--ame", "6,2", "--ltots", ltot],
                 ["rate", *CODE_FLAGS, "--ltot", ltot, "--optimize"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err, argv


@pytest.mark.parametrize("argv, q", [
    (["cost", "--n", "5", "--k", "1", "--d", "3", "--q", "1", "--ltot", "100"], 1),
    (["rate", "--n", "5", "--k", "1", "--d", "3", "--q", "1", "--ltot", "100", "--l0", "1"], 1),
    (["cost", "--n", "5", "--k", "1", "--d", "3", "--q", "0", "--ltot", "100"], 0),
    (["figure", "--ame", "5,1"], 1),
])
def test_local_dimension_below_two_exit_2(capsys, argv, q):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"q must be >= 2, got {q}" in err
    assert not caught and "Warning" not in err


@pytest.mark.parametrize("argv, message", [
    (["figure", "--ame", "5"], "--ame must be N,Q (comma-separated integers), got '5'"),
    (["figure", "--ame", "5,two"], "--ame must be N,Q (comma-separated integers), got '5,two'"),
    (["figure", "--include", "5,1,3,2,7"],
     "--include must be n,k,d,q (comma-separated integers), got '5,1,3,2,7'"),
])
def test_figure_malformed_code_flags_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("call", sorted(PINNED_ORACLE))
def test_oracle_output_is_pinned(capsys, call):
    entry, *flags = call.split()
    want = PINNED_ORACLE[call]
    got = run(capsys, "oracle", str(catalog_dir() / f"{entry}.stabtab"), *flags)
    assert got == (want["exit"], want["stdout"], want["stderr"])


def test_pinned_oracle_calls_cover_the_catalog():
    # each table bare, at --kl-d d and at --kl-d d + 1
    want = {f"{e.id}{flags}" for e in load_catalog() if e.file
            for flags in ("", f" --kl-d {e.d}", f" --kl-d {e.d + 1}")}
    assert set(PINNED_ORACLE) == want
