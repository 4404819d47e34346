"""Command-line interface.

One executable, subcommand style:

    amecodes verify <file> [--dmax D] [--budget N]
    amecodes reduce <file> [--out PATH]
    amecodes children <file> --outdir DIR
    amecodes oracle (<stabtab>|--state FILE --q Q) [--kl-d D] [--entropy-subsets ...]
    amecodes rate --n --k --d --q --ltot (--l0 KM | --optimize) [--latt --etac]
    amecodes cost --n --k --d --q --ltot [--latt --etac]
    amecodes table [--distances ...] [--nmax --qmax] [--csv PATH]
    amecodes figure --ame N,Q [--include n,k,d,q ...] [--ltots ...] [--csv PATH]
    amecodes catalog (list | show ID | grid)

Exit codes: 0 success / verification passed; 1 verification failed
(valid run, negative verdict); 2 usage or domain error; 3 resource
budget exceeded.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import stabtab
from .codes import (DEFAULT_DISTANCE_BUDGET, CodeParams, check_commutation,
                    check_independence, classify_singleton, compute_distance)
from .errors import AmecodesError, DomainError, ParseError, ResourceBudgetError
from .fields import GF
from .pauli import StateVector

# reduction, oracle and repeater are imported by the subcommands that call
# them, so that a start compiles only the modules its subcommand runs

PASS, FAIL, USAGE_ERROR, BUDGET_ERROR = 0, 1, 2, 3


def _channel(args):
    from .repeater import ChannelParams
    return ChannelParams(l_att=args.latt, eta_c=args.etac)


def _add_channel_flags(p):
    p.add_argument("--latt", type=float, default=20.0, help="attenuation length, km")
    p.add_argument("--etac", type=float, default=1.0, help="coupling efficiency")


def _code_from_flags(args) -> CodeParams:
    return CodeParams(args.n, args.k, args.d, args.q)


def _int_list(flag: str, form: str, value: str) -> list[int]:
    """``value`` read as the comma-separated integers ``form`` names."""
    parts = value.split(",")
    try:
        if len(parts) == len(form.split(",")):
            return [int(x) for x in parts]
    except ValueError:
        pass
    raise DomainError(f"{flag} must be {form} (comma-separated integers), got {value!r}")


def _write_csv(args, header, rows, summary: str = "") -> bool:
    """Write ``header`` and ``rows`` as CSV to the --csv file, then print
    ``wrote PATH`` and ``summary``, or under --format csv to stdout.  False
    when text output was asked for."""
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        print(f"wrote {args.csv}{summary}")
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows([header, *rows])
    else:
        return False
    return True


def cmd_verify(args) -> int:
    if args.dmax is not None and args.dmax < 1:
        raise DomainError(f"--dmax must be at least 1, got {args.dmax}")
    table = stabtab.parse_file(args.file)
    label = table.claimed.label() if table.claimed else f"n={table.n} k={table.k} q={table.field.q}"
    print(f"table: {label} ({len(table.gens)} generators)")
    pair = check_commutation(table)
    if pair is not None:
        print(f"commutation: FAIL at pair (g{pair[0]+1}, g{pair[1]+1})")
        return FAIL
    print("commutation: pass")
    witness = check_independence(table)
    if witness is not None:
        print(f"independence: FAIL, dependency coefficients {witness.tolist()}")
        return FAIL
    print("independence: pass")
    d_max = args.dmax
    if d_max is None:
        d_max = table.claimed.d if table.claimed else table.n // 2 + 1
    d = compute_distance(table, d_max, args.budget)
    print(f"distance: {d if d is not None else f'>{d_max}'} (scanned to {d_max})")
    ok = True
    if table.claimed is not None and d != table.claimed.d:
        print(f"claimed d={table.claimed.d}: FAIL")
        ok = False
    if d is not None:
        params = CodeParams(table.n, table.k, d, table.field.q)
        print(f"singleton class: {classify_singleton(params)}")
    if table.k == 0 and d is not None:
        verdict = d == table.n // 2 + 1
        print(f"AME: {'yes' if verdict else 'no'} (needs d={table.n//2+1})")
    return PASS if ok else FAIL


def cmd_reduce(args) -> int:
    from .reduction import to_reduction_friendly
    table = stabtab.parse_file(args.file)
    form = to_reduction_friendly(table)
    text = stabtab.emit(form.table)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} (layout {form.layout}, block width {form.block_width})")
    else:
        sys.stdout.write(text)
    return PASS


def cmd_children(args) -> int:
    from .reduction import derive_family
    table = stabtab.parse_file(args.file)
    family = derive_family(table, verify=not args.no_verify, budget=args.budget)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem
    for params, child in family[1:]:
        path = outdir / f"{stem}_child_k{params.k}.stabtab"
        stabtab.write_file(child, path)
        print(f"{params.label()}: {path}"
              + ("" if args.no_verify else "  (verified: commutation, independence, distance)"))
    if len(family) == 1:
        print("no children: the family stops at distance 2")
    return PASS


def _require_entropy_sizes(sizes, n: int) -> None:
    """DomainError when an --entropy-subsets size leaves no sites outside."""
    if sizes and max(sizes) >= n:
        raise DomainError(f"--entropy-subsets sizes must be below n={n}, got {max(sizes)}")


def cmd_oracle(args) -> int:
    from .oracle import (CodewordSet, dense_distance, expand_stabilizer,
                         knill_laflamme_check, reduced_entropy)
    if args.file and args.state:
        raise DomainError("pass a stabtab file or --state with --q, not both")
    if args.file and args.q is not None:
        raise DomainError("--q is a --state-only flag: a stabtab file gives q on its code line")
    if args.kl_d is not None and args.kl_d < 1:
        raise DomainError(f"--kl-d must be at least 1, got {args.kl_d}")
    if args.entropy_subsets and min(args.entropy_subsets) < 1:
        raise DomainError(f"--entropy-subsets sizes must be at least 1, "
                          f"got {min(args.entropy_subsets)}")
    if args.state:
        if args.q is None:
            raise DomainError("--state needs --q to fix the local dimension")
        field = GF(args.q)
        amps = []
        for lineno, line in enumerate(Path(args.state).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                re_part, im_part = map(float, line.split())  # two numbers, or ValueError
            except ValueError:
                raise ParseError("state lines are 're im' pairs", args.state, lineno) from None
            amps.append(complex(re_part, im_part))
        if len(amps) < args.q:
            raise DomainError(f"a state needs at least q={args.q} amplitudes (one site), "
                              f"got {len(amps)}")
        n = round(math.log(len(amps), args.q))
        if args.q**n != len(amps):
            raise DomainError(f"{len(amps)} amplitudes is not a power of q={args.q}")
        _require_entropy_sizes(args.entropy_subsets, n)
        vec = np.asarray(amps)
        if not np.isfinite(vec).all():
            raise DomainError("state amplitudes must be finite numbers")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise DomainError("the state has all amplitudes zero and cannot be normalized")
        vec = vec / norm
        cw = CodewordSet(field, n, (StateVector(field, n, vec),))
        print(f"state: n={n}, q={args.q} (normalized input)")
    else:
        if not args.file:
            raise DomainError("pass a stabtab file or --state with --q")
        table = stabtab.parse_file(args.file)
        _require_entropy_sizes(args.entropy_subsets, table.n)
        cw = expand_stabilizer(table)
        print(f"expanded {table.claimed.label() if table.claimed else 'table'}: "
              f"{cw.K} codeword(s) on {cw.n} sites")
    for size in args.entropy_subsets or ([1] if cw.n > 1 else []):  # 1 site: no default
        ents = [reduced_entropy(cw.words[0], a)
                for a in itertools.combinations(range(cw.n), size)]
        print(f"entropy |A|={size}: min {min(ents):.6f}  max {max(ents):.6f} bits")
    verdict = PASS
    if args.kl_d is not None:
        witness = knill_laflamme_check(cw, args.kl_d)
        if witness is None:
            print(f"knill-laflamme at d={args.kl_d}: pass")
        else:
            print(f"knill-laflamme at d={args.kl_d}: FAIL, witness {witness} "
                  f"(weight {witness.weight()})")
            verdict = FAIL
        d = dense_distance(cw, cw.n)
        print(f"dense distance: {d if d is not None else f'>{cw.n}'}")
    return verdict


def cmd_rate(args) -> int:
    from .repeater import LinkPlan, cost_report, fixed_link_count, loss_probability, p_success, rate
    code = _code_from_flags(args)
    ch = _channel(args)
    if args.optimize:
        report = cost_report(code, args.ltot, ch)
        print(f"optimal plan: {report.plan.links} links of {report.plan.l0:.3f} km")
        print(f"p_success per link: {report.p_success:.6g}")
        print(f"rate R*t0: {report.rate_t0:.6g}")
    else:
        plan = LinkPlan(args.ltot, fixed_link_count(args.ltot, args.l0))
        ps = p_success(code, loss_probability(plan.l0, ch))
        print(f"plan: {plan.links} links of {plan.l0:.3f} km")
        print(f"p_success per link: {ps:.6g}")
        print(f"rate R*t0: {rate(code, plan, ch):.6g}")
    return PASS


def cmd_cost(args) -> int:
    from .repeater import cost_report
    code = _code_from_flags(args)
    report = cost_report(code, args.ltot, _channel(args))
    print(f"code {code.label()} over {args.ltot:g} km")
    print(f"optimal plan: {report.plan.links} links of {report.plan.l0:.3f} km")
    print(f"p_success per link: {report.p_success:.6g}")
    print(f"rate R*t0 at optimum: {report.rate_t0:.6g}")
    print(f"C_ST (hardware):  {report.c_st:.6g} /km")
    print(f"C_LT (per-photon): {report.c_lt:.6g} /km")
    return PASS


def cmd_table(args) -> int:
    from .repeater import optimal_k_table
    if args.nmax < 4 or args.qmax < 2:
        raise DomainError(
            f"the optimal-k grid covers n >= 4 and q >= 2; got --nmax {args.nmax}, "
            f"--qmax {args.qmax}"
        )
    grid = cat.catalog_grid(args.nmax, args.qmax)
    cells = [(n, q, existence) for (n, q), existence in grid.items()]
    table = optimal_k_table(cells, args.distances, _channel(args))
    header = ["n\\q"] + [str(q) for q in range(2, args.qmax + 1)]
    rows = []
    for n in range(4, args.nmax + 1):
        row = [str(n)]
        for q in range(2, args.qmax + 1):
            row.append(",".join(table[(n, q)]))
        rows.append(row)
    if not _write_csv(args, header, rows):
        width = max(len(c) for r in rows for c in r) + 1
        print("  ".join(c.ljust(width) for c in header))
        for r in rows:
            print("  ".join(c.ljust(width) for c in r))
    return PASS


def cmd_figure(args) -> int:
    from .repeater import children_params, figure_rows
    codes = []
    if args.ame:
        n, q = _int_list("--ame", "N,Q", args.ame)
        codes.extend(children_params(n, q))
        if not codes and not args.include:
            raise DomainError(f"AME({n},{q}) has no children with distance >= 2")
    for spec_str in args.include or []:
        codes.append(CodeParams(*_int_list("--include", "n,k,d,q", spec_str)))
    if not codes:
        raise DomainError("nothing to plot: pass --ame and/or --include")
    rows = figure_rows(codes, args.ltots, _channel(args), rate_l0=args.l0)
    fieldnames = list(rows[0].keys())
    values = [list(r.values()) for r in rows]
    if not _write_csv(args, fieldnames, values, f" ({len(rows)} rows)"):
        print("  ".join(fieldnames))
        for r in values:
            print("  ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in r))
    return PASS


def cmd_catalog(args) -> int:
    if args.id is not None and args.action != "show":
        raise DomainError(f"catalog {args.action} takes no entry id; only catalog show does")
    if args.action == "list":
        for e in cat.load_catalog():
            if e.file:
                note = f"  # {e.note}" if e.note else ""
                print(f"{e.id}: {e.params.label()} [{e.source}]{note}")
        return PASS
    if args.action == "show":
        if not args.id:
            raise DomainError("catalog show needs an entry id")
        table = cat.load_table(args.id)
        sys.stdout.write(stabtab.emit(table))
        return PASS
    # grid
    grid = cat.catalog_grid()
    qs = sorted({q for (_, q) in grid})
    print("n\\q " + " ".join(f"{q:>2}" for q in qs))
    for n in sorted({n for (n, _) in grid}):
        row = [cat.grid_marker(grid[(n, q)]) for q in qs]
        print(f"{n:>3} " + " ".join(f"{c:>2}" for c in row))
    print("k = AME exists, - = does not exist, ? = unknown")
    return PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="amecodes",
        description="stabilizer tables, child-code families, and repeater costs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check commutation, independence, distance")
    p.add_argument("file")
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_DISTANCE_BUDGET)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="emit the reduction-friendly form")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("children", help="derive the child-code family")
    p.add_argument("file")
    p.add_argument("--outdir", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_DISTANCE_BUDGET)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=cmd_children)

    p = sub.add_parser("oracle", help="dense-state checks (entropy, Knill-Laflamme)")
    p.add_argument("file", nargs="?")
    p.add_argument("--state", default=None, help="amplitude file: 're im' per line")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--kl-d", type=int, default=None)
    p.add_argument("--entropy-subsets", type=int, nargs="*", default=None,
                   help="reduced-state subset sizes to tabulate")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("rate", help="transfer rate R*t0 for one code")
    for flag in ("--n", "--k", "--d", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--ltot", type=float, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--l0", type=float)
    mode.add_argument("--optimize", action="store_true")
    _add_channel_flags(p)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("cost", help="short/long-term cost factors at optimal L0")
    for flag in ("--n", "--k", "--d", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--ltot", type=float, required=True)
    _add_channel_flags(p)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("table", help="optimal-k table over the AME grid")
    p.add_argument("--distances", type=float, nargs="+", default=[1000.0, 10000.0])
    p.add_argument("--nmax", type=int, default=14)
    p.add_argument("--qmax", type=int, default=8)
    p.add_argument("--csv", default=None)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    _add_channel_flags(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure", help="rate / cost sweep data as CSV")
    p.add_argument("--ame", default=None, help="N,Q of a parent AME family")
    p.add_argument("--include", nargs="*", default=None, help="extra codes n,k,d,q")
    p.add_argument("--ltots", type=float, nargs="+",
                   default=[100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0])
    p.add_argument("--l0", type=float, default=1.0, help="fixed L0 for the rate column")
    p.add_argument("--csv", default=None)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    _add_channel_flags(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("catalog", help="browse shipped tables and the AME grid")
    p.add_argument("action", choices=["list", "show", "grid"])
    p.add_argument("id", nargs="?")
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # type=float accepts "nan", which no flag can use
        for dest, value in vars(args).items():
            if any(isinstance(v, float) and math.isnan(v)
                   for v in (value if isinstance(value, list) else [value])):
                raise DomainError(f"--{dest.replace('_', '-')} must be a number, got nan")
        if getattr(args, "budget", 0) < 0:
            raise DomainError(f"--budget must be at least 0, got {args.budget}")
        return args.fn(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (AmecodesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
