"""One-way repeater performance: success probability, rate, cost factors.

A chain of r elementary links, each of length L0 = L_tot / r, carries
codewords of an [[n,k,d]]_q code, one photon per physical qudit.  Per
link, a qudit survives with probability eta_c * exp(-L0/L_att), and a
distance-d code corrects up to d-1 erasures, so

    P_success = sum_{j=0}^{d-1} C(n,j) p_l^j (1-p_l)^(n-j),
    R * t0    = k * log2(q) * P_success^r.

Cost coefficients, each minimized over the link length,

    C_ST = min_L0  n log2(q) / (L0 R t0)     (hardware, short term)
    C_LT = min_L0  n q / (L0 R t0)           (per-photon, long term)

share their argmin (the numerators differ by a constant factor) and are
independent of t0 since R carries 1/t0.  The L0 grid is the physically
meaningful one: integer link counts r = 1..floor(L_tot / 0.1 km).  At a
fixed distance and channel, L0 * P_success^r depends only on (n, d); k
and q only scale it.  One optimizer screens each (n, d) over the whole
grid in log space, then evaluates the exact float expression at the few
link counts in a derived window around the screen's maximum, and every
code of a call with that (n, d) reads its minimum there, bit for bit as
on the full grid.  Nothing is cached across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams
from .errors import DomainError

MIN_LINK_KM = 0.1
MAX_LTOT_KM = 100_000.0  # 10^6 link counts of MIN_LINK_KM


@dataclass(frozen=True)
class ChannelParams:
    """Channel and station constants.

    l_att: fiber attenuation length in km.  eta_c: in-and-out coupling
    efficiency.  The local operation time t0 is only the unit of rates,
    which are reported as R*t0; both cost factors are t0-free.
    """

    l_att: float = 20.0
    eta_c: float = 1.0

    def __post_init__(self):
        if not 0 < self.l_att < math.inf:
            raise DomainError(f"l_att must be positive and finite, got {self.l_att}")
        if not 0.0 <= self.eta_c <= 1.0:
            raise DomainError(f"eta_c must lie in [0,1], got {self.eta_c}")


@dataclass(frozen=True)
class LinkPlan:
    """A total distance split into an integer number of equal links."""

    l_tot: float
    links: int

    def __post_init__(self):
        if self.links < 1:
            raise DomainError(f"need at least one link, got {self.links}")
        if self.l_tot <= 0:
            raise DomainError(f"total distance must be positive, got {self.l_tot}")

    @property
    def l0(self) -> float:
        return self.l_tot / self.links


@dataclass(frozen=True)
class CostReport:
    """Cost evaluation of one (code, total-distance) pair at the optimal
    link length (shared by C_ST and C_LT)."""

    code: CodeParams
    l_tot: float
    p_success: float
    rate_t0: float
    c_st: float
    c_lt: float
    plan: LinkPlan


def loss_probability(l0: float, ch: ChannelParams) -> float:
    """Probability of losing one photon over a link: 1 - eta_c e^(-L0/L_att)."""
    if l0 < 0:
        raise DomainError(f"link length must be nonnegative, got {l0}")
    return 1.0 - ch.eta_c * math.exp(-l0 / ch.l_att)


def p_success(code: CodeParams, p_loss: float) -> float:
    """Per-link probability that at most d-1 of the n photons are lost.

    Exact binomial coefficients, compensated summation.
    """
    if not 0.0 <= p_loss <= 1.0:
        raise DomainError(f"loss probability must lie in [0,1], got {p_loss}")
    terms = [
        math.comb(code.n, j) * p_loss**j * (1.0 - p_loss) ** (code.n - j)
        for j in range(min(code.d - 1, code.n) + 1)
    ]
    return min(math.fsum(terms), 1.0)


def rate(code: CodeParams, plan: LinkPlan, ch: ChannelParams) -> float:
    """Transferred qubits per t0: k * log2(q) * P_success^r."""
    ps = p_success(code, loss_probability(plan.l0, ch))
    return code.k * math.log2(code.q) * ps**plan.links


def link_grid(l_tot: float) -> np.ndarray:
    """Integer link counts 1..floor(L_tot / 0.1 km), for L_tot up to 100,000 km."""
    if not l_tot > 0:  # NaN included
        raise DomainError(f"total distance must be positive, got {l_tot}")
    if l_tot > MAX_LTOT_KM:
        raise DomainError(
            f"total distance {l_tot:g} km exceeds the {MAX_LTOT_KM:g} km bound (10^6 link counts)"
        )
    r_max = max(1, int(l_tot / MIN_LINK_KM))
    return np.arange(1, r_max + 1)


def fixed_link_count(l_tot: float, l0: float, ltot_flag: str = "--ltot") -> int:
    """round(L_tot / L0) links, at least one, for a fixed link length L0
    that is positive and finite; at most the 10^6 links of ``link_grid``.
    Refusals name L0 as ``--l0`` and L_tot as ``ltot_flag``."""
    if not 0 < l0 < math.inf:
        raise DomainError(f"--l0 must be a positive link length in km, got {l0:g}")
    if not math.isfinite(l_tot / l0):
        raise DomainError(f"{ltot_flag} {l_tot:g} km over --l0 {l0:g} km is not a "
                          f"finite link count")
    links = max(1, round(l_tot / l0))
    max_links = MAX_LTOT_KM / MIN_LINK_KM
    if links > max_links:
        raise DomainError(f"{ltot_flag} {l_tot:g} km over --l0 {l0:g} km is {links:.3g} "
                          f"links, above the bound of {max_links:.0f} "
                          f"({MAX_LTOT_KM:g} km in links of {MIN_LINK_KM:g} km)")
    return links


def _hardware(code: CodeParams) -> float:
    return code.n * math.log2(code.q)


def _per_photon(code: CodeParams) -> float:
    return code.n * code.q


_EPS = 2.0**-51  # two ulps: the relative error allowed to one float op, exp, log or power


def _screened_curves(l_tot: float, ch: ChannelParams, pairs: list[tuple[int, int]]):
    """Per (n, d) of ``pairs``, in order: the link counts that may hold the
    largest L0 P_success^r, and P_success^r there by the full-grid float
    expression (elementwise ops give the same bits on any subset).

    Screen: s = log(L0) + r (n log q + log sum_{j<d} C(n,j) rho^j), with
    q = 1 - p_l, rho = p_l / q and Horner's rule, no power.  Window: with
    each op, exp, log and power within e = 2^-51 (two ulps), the real value
    at the same p_l, q is within r(d+3)e + 3e of the exact log and within
    3r(d-1)e + 9e n r|log q| + 2e|log L0| of s, so |s - exact log| <= tau =
    e (4d max r + 9n max r|log q| + 2 max|log L0| + 3); the first argmin of
    the rounded costs is within 2e of the largest exact log, so it has
    s >= max(s) - 2 tau - 2e.  s is nan or -inf only where q = 0, so
    P_success = 0 (d <= n); +inf (overflow) is kept.  Floor: the bounds need
    P_success^r normal at the top and at the argmin, where L0 P_success^r >=
    exp(max(s) - tau - 2e).  With L0 <= L_tot and f = 2^-1022, the smallest
    normal double, max(s) >= log(L_tot f) + (n + 8) log 2 + tau + 2e gives
    P_success^r >= 2^(n+8) f there; the binomial terms' underflow, at most
    (2^n + 2d) 2^-1075, is then below 2^-59 of P_success at r = 1 (less at
    r > 1, where P_success >= f^(1/r)), inside the slack of e over a
    correctly rounded sum.  Below the floor (the rate underflows, or eta_c
    = 0) every link count is evaluated.
    """
    r = link_grid(l_tot).astype(float)
    l0 = l_tot / r
    p_l = 1.0 - ch.eta_c * np.exp(-l0 / ch.l_att)
    windows = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = 1.0 - p_l
        r_log_q = np.log(rho)
        r_log_q *= r
        np.divide(p_l, rho, out=rho)
        log_l0 = np.log(l0, out=l0)
        mag = -r_log_q.min(where=r_log_q > -np.inf, initial=0.0)
        spread = 2 * max(abs(log_l0[0]), abs(log_l0[-1])) + 3
        for n, d in pairs:
            s = np.full_like(rho, math.comb(n, d - 1))
            for j in range(d - 2, -1, -1):
                s *= rho
                s += math.comb(n, j)
            np.log(s, out=s)
            s *= r
            s += n * r_log_q
            s += log_l0
            top = s.max(where=np.isfinite(s), initial=-np.inf)
            tau = _EPS * (4 * d * r[-1] + 9 * n * mag + spread)
            floor = log_l0[0] + (n + 8 - 1022) * math.log(2) + tau + 2 * _EPS
            windows.append(np.flatnonzero(s >= top - 2 * tau - 2 * _EPS)
                           if top >= floor else slice(None))
    del rho, r_log_q, log_l0, s
    for (n, d), idx in zip(pairs, windows):
        links, p = r[idx], p_l[idx]
        acc = np.zeros_like(p)
        for j in range(d):
            acc = acc + math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
        survival = np.minimum(acc, 1.0) ** links
        del acc  # the caller divides on every link count in the underflow regime
        yield links, survival


def _minimize_costs(
    codes: list[CodeParams], l_tot: float, ch: ChannelParams, numerator
) -> dict[CodeParams, tuple[float, LinkPlan, float]]:
    """Per code: the minimum of numerator(code) / (L0 * R * t0) over the
    integer-r grid (t0 cancels), its plan, and L0 * R * t0 at that plan.

    Codes with the same (n, d) share one screened curve.
    """
    if any(code.k == 0 for code in codes):
        raise DomainError("cost factors need k >= 1 (no information transmitted)")
    if not codes:
        return {}
    groups: dict[tuple[int, int], list[CodeParams]] = {}
    for code in codes:
        groups.setdefault((code.n, code.d), []).append(code)
    pairs = sorted(groups)
    out = {}
    for pair, (links, survival) in zip(pairs, _screened_curves(l_tot, ch, pairs)):
        l0 = l_tot / links
        for code in groups[pair]:
            throughput = l0 * (code.k * math.log2(code.q) * survival)
            with np.errstate(divide="ignore", over="ignore"):
                cost = numerator(code) / throughput
            best = int(np.argmin(cost))
            out[code] = float(cost[best]), LinkPlan(l_tot, int(links[best])), throughput[best]
    return out


def cost_short_term(code: CodeParams, l_tot: float, ch: ChannelParams) -> tuple[float, LinkPlan]:
    """Minimized hardware cost factor n log2(q) / (L0 R t0) and its argmin."""
    return _minimize_costs([code], l_tot, ch, _hardware)[code][:2]


def cost_long_term(code: CodeParams, l_tot: float, ch: ChannelParams) -> tuple[float, LinkPlan]:
    """Minimized running cost factor n q / (L0 R t0) and its argmin."""
    return _minimize_costs([code], l_tot, ch, _per_photon)[code][:2]


def _require_finite(cost: float, what: str, l_tot: float, ch: ChannelParams) -> None:
    """Refuse a minimized cost that is infinite, naming ``what`` has it and
    why: nothing arrives (eta_c = 0), or the rate underflows at every link
    count."""
    if not math.isfinite(cost):
        if ch.eta_c == 0:
            cause = "nothing arrives (eta_c = 0)"
        else:
            cause = (
                "the rate underflows double precision at every link count, "
                "so the minimum cost exceeds about 1.8e308 /km"
            )
        raise DomainError(
            f"{what} over {l_tot:g} km has no finite cost at any link count: {cause}"
        )


def cost_report(code: CodeParams, l_tot: float, ch: ChannelParams) -> CostReport:
    """Both cost factors at their shared optimal plan, read off one curve.

    Raises DomainError when no link count gives a finite cost (nothing
    arrives, e.g. eta_c = 0, or the rate underflows).
    """
    c_st, plan, throughput = _minimize_costs([code], l_tot, ch, _hardware)[code]
    _require_finite(c_st, code.label(), l_tot, ch)
    c_lt = float(_per_photon(code) / throughput)
    ps = p_success(code, loss_probability(plan.l0, ch))
    return CostReport(code, l_tot, ps, rate(code, plan, ch), c_st, c_lt, plan)


def children_params(n: int, q: int) -> list[CodeParams]:
    """Parameters of the child family of an AME(n,q):
    [[n-k, k, floor(n/2)+1-k]]_q for k = 1..floor(n/2)-1."""
    return [
        CodeParams(n - k, k, n // 2 + 1 - k, q) for k in range(1, n // 2)
    ]


def _optimal_ks(
    families: dict[tuple[int, int], list[CodeParams]], l_tot: float, ch: ChannelParams
) -> dict[tuple[int, int], int]:
    """Per AME(n,q) child family, the k minimizing C_LT at one distance
    (ties pick smaller k), all families in one optimizer call.  A family of
    two or more children none of which has a finite cost has no minimum to
    pick, and raises DomainError."""
    for (n, q), kids in families.items():
        if not kids:
            raise DomainError(f"AME({n},{q}) has no children with distance >= 2")
    codes = [code for kids in families.values() for code in kids]
    costs = _minimize_costs(codes, l_tot, ch, _per_photon)
    out = {}
    for (n, q), kids in families.items():
        best = min(kids, key=lambda c: costs[c][0])
        if len(kids) > 1:
            _require_finite(costs[best][0], f"every child of AME({n},{q})", l_tot, ch)
        out[(n, q)] = best.k
    return out


def optimal_k(n: int, q: int, l_tot: float, ch: ChannelParams) -> int:
    """The child k minimizing C_LT at the given distance; ties pick smaller k."""
    return _optimal_ks({(n, q): children_params(n, q)}, l_tot, ch)[(n, q)]


def optimal_k_table(
    cells: list[tuple[int, int, str]],
    distances: list[float],
    ch: ChannelParams | None = None,
) -> dict[tuple[int, int], list[str]]:
    """Argmin-k per distance for each (n, q, existence) cell.

    Cells marked ``exists`` get the computed optimal k; ``not-exists``
    and ``unknown`` pass through as '-' and '?' markers.  Output order
    is deterministic in (n, q, distance).  A table of markers alone
    builds no curve, so it takes any distance.
    """
    ch = ch or ChannelParams()
    families = {(n, q): children_params(n, q) for n, q, e in cells if e == "exists"}
    columns = [_optimal_ks(families, l_tot, ch) for l_tot in distances]
    out: dict[tuple[int, int], list[str]] = {}
    for n, q, existence in sorted(cells):
        if existence == "exists":
            out[(n, q)] = [str(col[(n, q)]) for col in columns]
        elif existence == "not-exists":
            out[(n, q)] = ["-"] * len(distances)
        elif existence == "unknown":
            out[(n, q)] = ["?"] * len(distances)
        else:
            raise DomainError(f"unknown existence marker {existence!r}")
    return out


def figure_rows(
    codes: list[CodeParams],
    l_tots: list[float],
    ch: ChannelParams | None = None,
    rate_l0: float = 1.0,
) -> list[dict]:
    """Figure data: per (L_tot, code), the rate at fixed L0 and the
    optimized short-term cost.  Keys double as the CSV header.

    Raises DomainError naming the first (L_tot, code) that has no finite
    cost at any link count, and on a fixed L0 that ``fixed_link_count``
    refuses, naming the distances ``--ltots`` as the ``figure`` command does.
    """
    ch = ch or ChannelParams()
    rows = []
    for l_tot in l_tots:
        costs = _minimize_costs(codes, l_tot, ch, _hardware)
        links = fixed_link_count(l_tot, rate_l0, "--ltots")
        for code in codes:
            c_st, plan, _ = costs[code]
            _require_finite(c_st, code.label(), l_tot, ch)
            # fixed-L0 mode uses exactly L0 = rate_l0 over l_tot/rate_l0 links
            r_fixed = rate(code, LinkPlan(links * rate_l0, links), ch)
            rows.append(
                {
                    "ltot_km": l_tot,
                    "code": code.label(),
                    "rate_t0_fixed_l0": r_fixed,
                    "c_st": c_st,
                    "opt_l0_km": plan.l0,
                }
            )
    return rows
