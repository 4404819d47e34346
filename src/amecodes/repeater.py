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
and q only scale it.  One optimizer screens every (n, d) of a call in log
space, coarse to fine: a first level at every link count up to a cap and
at a geometric sample past it, then bisection of only the intervals that
an interval bound cannot rule out.  It then evaluates the exact float
expression at the few link counts in a derived window around the screen's
maximum, and every code of the call with that (n, d) reads its minimum
there, bit for bit as on the full grid.  Short grids skip the screen and
evaluate every link count.  Nothing is cached across calls.
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


def _link_count(l_tot: float) -> int:
    """floor(L_tot / 0.1 km), at least one, for L_tot up to 100,000 km."""
    if not l_tot > 0:  # NaN included
        raise DomainError(f"total distance must be positive, got {l_tot}")
    if l_tot > MAX_LTOT_KM:
        raise DomainError(
            f"total distance {l_tot:g} km exceeds the {MAX_LTOT_KM:g} km bound (10^6 link counts)"
        )
    return max(1, int(l_tot / MIN_LINK_KM))


def link_grid(l_tot: float) -> np.ndarray:
    """Integer link counts 1..floor(L_tot / 0.1 km), for L_tot up to 100,000 km."""
    return np.arange(1, _link_count(l_tot) + 1)


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
_EXACT_POINTS = 2**11  # (n, d) x link counts up to which every link count is evaluated
_DENSE_POINTS = 2**15  # (n, d) x link counts up to which level 0 takes every link count
_STEP = 1 / 64  # past that, level 0 samples link counts a factor 1 + _STEP apart


def _screen_points(l_tot, ch, r, n, coef):
    """s, log L0 and p_l at the link counts ``r`` (floats), for the (n, d)
    that ``n`` and the Horner coefficients ``coef`` give (C(n, j) from
    j = d_max - 1 down to 0, zero above d - 1), broadcast against ``r``, so
    that the terms of one link count are computed once for every (n, d)."""
    l0 = l_tot / r
    p_l = 1.0 - ch.eta_c * np.exp(-l0 / ch.l_att)
    rho = 1.0 - p_l
    r_log_q = np.log(rho)
    r_log_q *= r
    np.divide(p_l, rho, out=rho)
    s = np.empty(coef.shape[1:-1] + r.shape)
    s[...] = coef[0]
    for c in coef[1:]:  # 0 * rho + 0 = 0 until the first coefficient of this d
        s *= rho
        s += c
    np.log(s, out=s)
    s *= r
    s += n * r_log_q
    log_l0 = np.log(l0, out=l0)
    s += log_l0
    return s, log_l0, p_l


def _horner_coefficients(pairs):
    """C(n, j) per (n, d) of ``pairs`` (columns), for j = d_max - 1 down to
    0 (rows), zero above d - 1."""
    top = max(d for _, d in pairs)
    return np.array([math.comb(n, j) if j < d else 0 for j in range(top - 1, -1, -1)
                     for n, d in pairs], dtype=float).reshape(top, len(pairs))


def _log_q_bound(l_tot: float, ch: ChannelParams, r_max: int) -> float:
    """M >= -r log q at every link count where q > 0, from the channel alone.

    With z = L0 / L_att and y = eta_c e^-z as computed: where y >= 1/2,
    1 - y and then q = 1 - (1 - y) = y are exact (Sterbenz); where y < 1/2,
    q = 1 - fl(1 - y) >= max(2^-53, y - 2^-54) >= y / 2.  So -log q <=
    z - log eta_c + 2e, plus log 2 where y < 1/2, which needs z >
    log(2 eta_c) - 2e, so r < r_half = (1 + e) L_tot / (L_att (log(2 eta_c)
    - 2e)).  With r z <= (1 + e) L_tot / L_att and two roundings in r log q,
    M = (1 + 4e)((1 + e) L_tot / L_att + r_max (2e - log eta_c) + log 2
    min(r_max, r_half)).  At eta_c = 0, q = 0 everywhere and M = inf.
    """
    if ch.eta_c == 0:
        return math.inf
    span = (1 + _EPS) * l_tot / ch.l_att
    gain = math.log(2 * ch.eta_c) - 2 * _EPS
    r_half = min(r_max, span / gain) if gain > 0 else r_max
    return (1 + 4 * _EPS) * (span + r_max * (2 * _EPS - math.log(ch.eta_c))
                             + math.log(2) * r_half)


def _refine(l_tot, ch, r0, s0, log_l0, n, coef, top, tau):
    """Evaluate the link counts between level 0's samples that may hold the
    window; return (pair, link count, s, p_l) of each, with ``top`` raised in place.

    For link counts a < r < b: P_success does not increase with p_l, nor
    p_l with L0 = L_tot / r (each rounded op that computes it, exp included,
    is monotone), so G = log P_success does not decrease with r, and the
    exact log at r is at most B = log(L_tot/a) + a G_b, where
    G_b = (S_b - log(L_tot/b)) / b.  B^, computed from s_b and the log L0 of
    a and b, is within tau + 5e max|log L0| + 2e + 4.2e|B^| <= 3.6 tau +
    4.2e|B^| of B.  A count of the window has exact log >= top - 3 tau - 2e,
    so an interval with B^ + 8e|B^| < top - 16 tau holds none (the margin
    covers the comparison's own rounding, as e|top| <= tau) and is dropped;
    the others are bisected, and the loop ends when no interval has a link
    count inside.  The running top is never above the grid's top, and the
    interval that holds the grid's top is never dropped, so top, the window
    and the floor come out as on the full grid.  s_b = nan (q = 0 at b, so
    at every count below b) gives B^ = nan, and the interval is dropped.  An
    interval whose left end overflows (s = +inf) is kept: rho falls with r,
    so s overflows on a prefix of the link counts, and the window takes each
    such count, as the full grid does.
    """
    cut = np.flatnonzero(np.diff(r0) > 1)
    left, right = (np.stack([np.tile(r0[i], len(n)), s0[:, i].ravel(),
                             np.tile(log_l0[i], len(n))]) for i in (cut, cut + 1))
    at = np.repeat(np.arange(len(n)), len(cut))
    found = []
    while len(at):
        (a, s_a, ll_a), (b, s_b, ll_b) = left, right
        bound = ll_a + a * ((s_b - ll_b) / b)
        bound += 8 * _EPS * np.abs(bound)
        keep = np.flatnonzero((s_a == np.inf) | (bound >= (top - 16 * tau).take(at)))
        left, right, at = left.take(keep, axis=1), right.take(keep, axis=1), at.take(keep)
        r = np.floor((left[0] + right[0]) / 2)
        s, ll, p_l = _screen_points(l_tot, ch, r, n.take(at), coef.take(at, axis=1))
        np.maximum.at(top, at, np.where(np.isfinite(s), s, -np.inf))
        found.append((at, r, s, p_l))
        mid = np.stack([r, s, ll])
        left = np.concatenate([left, mid], axis=1)
        right = np.concatenate([mid, right], axis=1)
        at = np.concatenate([at, at])
        inner = np.flatnonzero(right[0] - left[0] > 1)
        left, right, at = left.take(inner, axis=1), right.take(inner, axis=1), at.take(inner)
    return [np.concatenate(v) for v in zip(*found)]


def _screen(l_tot, ch, pairs, r_max):
    """Per (n, d) of ``pairs``: the link counts of its window, in order, and
    p_l there, or None where the floor asks for every link count (see
    ``_screened_curves``)."""
    dense = max(1, _DENSE_POINTS // len(pairs))
    r0 = np.arange(1.0, min(r_max, dense) + 1)
    if r_max > dense:
        steps = math.ceil(math.log(r_max / dense) / math.log1p(_STEP))
        sample = np.unique(np.floor(dense * (1 + _STEP) ** np.arange(1, steps)))
        r0 = np.concatenate([r0, sample[sample < r_max], [float(r_max)]])
    n = np.array([pn for pn, _ in pairs], dtype=float)
    coef = _horner_coefficients(pairs)
    sampled = len(r0) < r_max
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s, log_l0, p0 = _screen_points(l_tot, ch, r0, n[:, None], coef[:, :, None])
        top = s.max(axis=1, where=np.isfinite(s), initial=-np.inf)
        mag = _log_q_bound(l_tot, ch, r_max)
        spread = 2 * max(abs(log_l0[0]), abs(log_l0[-1])) + 3
        tau = [_EPS * (4 * pd * r_max + 9 * pn * mag + spread) for pn, pd in pairs]
        if sampled:
            at, r, s_r, p_r = _refine(l_tot, ch, r0, s, log_l0, n, coef, top, np.array(tau))
        low = np.array([t - 2 * ta - 2 * _EPS for t, ta in zip(top.tolist(), tau)])
        own, cols = np.divmod(np.flatnonzero(s >= low[:, None]), len(r0))
        links, p = r0[cols], p0[cols]
        if sampled:
            kept = np.flatnonzero(s_r >= low.take(at))
            own, links, p = (np.concatenate([v, w.take(kept)])
                             for v, w in ((own, at), (links, r), (p, p_r)))
            order = np.lexsort((links, own))
            own, links, p = own[order], links[order], p[order]
    ends = np.searchsorted(own, np.arange(len(pairs) + 1)).tolist()
    log_l = float(log_l0[0])
    return [(links[ends[i]:ends[i + 1]], p[ends[i]:ends[i + 1]])
            if t >= log_l + (pn + 8 - 1022) * math.log(2) + ta + 2 * _EPS else None
            for i, ((pn, _), t, ta) in enumerate(zip(pairs, top.tolist(), tau))]


def _screened_curves(l_tot: float, ch: ChannelParams, pairs: list[tuple[int, int]]):
    """Per (n, d) of ``pairs``, in order: the link counts that may hold the
    largest L0 P_success^r, and P_success^r there by the full-grid float
    expression (elementwise ops give the same bits on any subset).

    Screen: s = log(L0) + r (n log q + log sum_{j<d} C(n,j) rho^j), with
    q = 1 - p_l, rho = p_l / q and Horner's rule, no power.  Window: with
    each op, exp, log and power within e = 2^-51 (two ulps), the real value
    at the same p_l, q is within r(d+3)e + 3e of the exact log and within
    3r(d-1)e + 9e n r|log q| + 2e|log L0| of s, so |s - exact log| <= tau =
    e (4d r_max + 9n M + 2 max|log L0| + 3), where M bounds r|log q| over
    the grid from the channel alone (``_log_q_bound``); the first argmin of
    the rounded costs is within 2e of the largest exact log, so it has
    s >= top - 2 tau - 2e, top the largest finite s.  s is nan only where
    q = 0, so P_success = 0 (d <= n); +inf (overflow) is kept.  Floor: the
    bounds need P_success^r normal at the top and at the argmin, where L0
    P_success^r >= exp(top - tau - 2e).  With L0 <= L_tot and f = 2^-1022,
    the smallest normal double, top >= log(L_tot f) + (n + 8) log 2 + tau +
    2e gives P_success^r >= 2^(n+8) f there; the binomial terms' underflow,
    at most (2^n + 2d) 2^-1075, is then below 2^-59 of P_success at r = 1
    (less at r > 1, where P_success >= f^(1/r)), inside the slack of e over
    a correctly rounded sum.  Below the floor (the rate underflows, or
    eta_c = 0) every link count is evaluated.

    Coarse to fine: level 0 computes s at every link count while the call's
    (n, d) times link counts stays within _DENSE_POINTS, and past that at
    counts a factor 1 + _STEP apart up to r_max, for every (n, d) in one
    array; ``_refine`` then bounds the link counts in between and bisects
    only the intervals that may hold the window.  The window, top and floor
    are those of a full-grid screen; no shape of the curve is assumed.  A
    refinement costs about 10 levels of some 50 numpy calls, as much as one
    pass over 2 10^4 link counts of one (n, d), or 2 10^3 of the catalog
    grid's 21 (2-vCPU VM), hence _DENSE_POINTS = 2^15.  Up to _EXACT_POINTS
    (n, d) times link counts every link count is evaluated and nothing is
    screened, which there costs less than the screen's fixed numpy calls:
    43 against 64 us at 1,000 link counts of (5, 3); at 2,000 the screen
    already wins for (9, 5), 88 against 111 us.
    """
    r_max = _link_count(l_tot)
    if r_max * len(pairs) <= _EXACT_POINTS:
        windows = [None] * len(pairs)
    else:
        windows = _screen(l_tot, ch, pairs, r_max)
    for (n, d), window in zip(pairs, windows):
        if window is None:
            links = link_grid(l_tot).astype(float)
            p = 1.0 - ch.eta_c * np.exp(-(l_tot / links) / ch.l_att)
        else:
            links, p = window
        acc = np.zeros_like(p)
        for j in range(d):
            acc = acc + math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
        survival = np.minimum(acc, 1.0) ** links
        del p, acc  # the caller divides on every link count in the underflow regime
        yield links, survival


def _minimize_costs(
    codes: list[CodeParams], l_tot: float, ch: ChannelParams, numerator
) -> dict[CodeParams, tuple[float, LinkPlan, float]]:
    """Per code: the minimum of numerator(code) / (L0 * R * t0) over the
    integer-r grid (t0 cancels), its plan, and L0 * R * t0 at that plan.

    Codes with the same (n, d) share one screened curve, and one 2-D
    argmin reads all their minima off it.
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
        group = groups[pair]
        throughput = np.multiply.outer([code.k * math.log2(code.q) for code in group], survival)
        throughput *= l_tot / links
        with np.errstate(divide="ignore", over="ignore"):
            cost = np.array([numerator(code) for code in group], dtype=float)[:, None] / throughput
        for row, (code, i) in enumerate(zip(group, cost.argmin(axis=1).tolist())):
            out[code] = float(cost[row, i]), LinkPlan(l_tot, int(links[i])), throughput[row, i]
    return out


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
        best = min(kids, key=lambda c: (costs[c][0], c.k))
        if len(kids) > 1:
            _require_finite(costs[best][0], f"every child of AME({n},{q})", l_tot, ch)
        out[(n, q)] = best.k
    return out


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
