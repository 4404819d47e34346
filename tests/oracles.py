"""Independent mini-oracles for the test suite.

Everything here is deliberately written from scratch against the
definitions, without touching the package's tables or symplectic
machinery, so expected values stay independent of the code paths they
check: naive polynomial arithmetic over Z_p[x]/(modulus), row reduction
one row at a time, dense Pauli matrices built by Kronecker products,
the scalar Pauli group algebra site by site, exhaustive searches, and
the repeater cost curve evaluated on its own full link grid for each code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# -- polynomial arithmetic over Z_p[x]/(modulus), coefficients low degree first


def poly_mul_mod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    # reduce: modulus is monic, low-first
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for t in range(deg):
                prod[len(prod) - deg + t] = (prod[len(prod) - deg + t] - lead * modulus[t]) % p
    while len(prod) < deg:
        prod.append(0)
    return prod


def poly_add(a, b, p):
    return [(x + y) % p for x, y in zip(a, b)]


def poly_pow(a, s, modulus, p):
    out = [1] + [0] * (len(modulus) - 2)
    for _ in range(s):
        out = poly_mul_mod(out, a, modulus, p)
    return out


def poly_trace(a, modulus, p, m):
    """x + x^p + ... + x^(p^(m-1)) evaluated by repeated powering."""
    acc = [0] * (len(modulus) - 1)
    term = list(a)
    for _ in range(m):
        acc = poly_add(acc, term, p)
        term = poly_pow(term, p, modulus, p)
    assert all(c == 0 for c in acc[1:]), "trace must land in the prime subfield"
    return acc[0]


def poly_rem(a, b, p):
    """Remainder of a modulo the monic b over Z_p (both low degree first)."""
    a = [c % p for c in a]
    while len(a) >= len(b):
        lead = a.pop()
        for t in range(len(b) - 1):
            a[len(a) - len(b) + 1 + t] = (a[len(a) - len(b) + 1 + t] - lead * b[t]) % p
    return a


def is_primitive_modulus(modulus, p):
    """Monic modulus (low degree first) irreducible over Z_p, found by trial
    division by every monic polynomial of degree 1..m//2, with x of
    multiplicative order p**m - 1, found by repeated multiplication."""
    m = len(modulus) - 1
    for deg in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(poly_rem(modulus, list(tail) + [1], p)):
                return False
    one = [1] + [0] * (m - 1)
    x = [0, 1] + [0] * (m - 2)
    power = x
    for e in range(1, p**m - 1):
        if power == one:
            return False
        power = poly_mul_mod(power, x, modulus, p)
    return power == one


# -- dense single-site Pauli matrices and Kronecker products ------------------


def dense_pauli(field, sites, phase_exp=0):
    """Matrix of omega**phase_exp * prod X_a Z_b built by Kronecker products,
    using only the field's add/trace-of-product scalar functions."""
    q, p = field.q, field.p
    omega = np.exp(2j * np.pi / p)
    total = np.array([[omega**phase_exp]])
    for a, b in sites:
        x_mat = np.zeros((q, q), dtype=complex)
        for j in range(q):
            x_mat[field.add(j, a), j] = 1.0
        z_mat = np.diag([omega ** field.trace_mul(b, j) for j in range(q)])
        total = np.kron(total, x_mat @ z_mat)
    return total


# -- the Pauli group algebra, one site at a time ------------------------------
#
# An element is (sites, phase): omega**phase * prod_i X_{a_i} Z_{b_i} for
# sites ((a_i, b_i), ...), with the phase rules of Gottesman,
# arXiv:quant-ph/9705052, over GF(p^m) through the trace.


def pauli_mul(field, left, right):
    """(sites, phase) of the product left * right of two (sites, phase)
    elements; per site, (X_a Z_b)(X_c Z_d) = omega**tr(b*c) X_(a+c) Z_(b+d)."""
    (l_sites, phase), (r_sites, r_phase) = left, right
    assert len(l_sites) == len(r_sites), "elements of different lengths"
    phase += r_phase
    sites = []
    for (a, b), (c, d) in zip(l_sites, r_sites):
        phase += field.trace_mul(b, c)
        sites.append((field.add(a, c), field.add(b, d)))
    return tuple(sites), phase % field.p


def pauli_pow(field, element, s):
    """(sites, phase) of element**s for an integer s >= 0, by s products."""
    assert s >= 0, "negative powers: use the (p-1)-th power"
    out = (((0, 0),) * len(element[0]), 0)
    for _ in range(s):
        out = pauli_mul(field, out, element)
    return out


def commutation_exp(field, left_sites, right_sites):
    """The s in E F = omega**s F E for E, F on these sites; zero iff they
    commute: the sum over sites of tr(b*c) - tr(a*d) for (a, b), (c, d)."""
    assert len(left_sites) == len(right_sites), "elements of different lengths"
    s = sum(field.trace_mul(b, c) - field.trace_mul(a, d)
            for (a, b), (c, d) in zip(left_sites, right_sites))
    return s % field.p


# -- row reduction over Z_p, one row operation at a time -----------------------


def rref_rows(mat, p):
    """(reduced row echelon form, pivot columns) mod p of a list of rows,
    by Gauss-Jordan elimination on Python ints, one row at a time."""
    rows = [[int(x) % p for x in row] for row in mat]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        below = [i for i in range(r, len(rows)) if rows[i][c]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        inverse = next(t for t in range(1, p) if rows[r][c] * t % p == 1)
        rows[r] = [x * inverse % p for x in rows[r]]
        for j in range(len(rows)):
            if j != r:
                factor = rows[j][c]
                rows[j] = [(x - factor * y) % p for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


# -- exhaustive searches -----------------------------------------------------


def exhaustive_inverse(x, q):
    """Multiplicative inverse in Z_q by scanning (prime q)."""
    for y in range(1, q):
        if (x * y) % q == 1:
            return y
    raise AssertionError(f"no inverse for {x} mod {q}")


def projective_group(table):
    """All products of generator powers as a set of phase-free site tuples."""
    f = table.field
    gens = [(g.sites, g.phase_exp) for g in table.gens]
    seen = set()
    for powers in itertools.product(range(f.p), repeat=len(gens)):
        el = (((0, 0),) * table.n, 0)
        for s, g in zip(powers, gens):
            el = pauli_mul(f, el, pauli_pow(f, g, s))
        seen.add(el[0])
    return seen


def greedy_pivot_rows(table, site):
    """The greedy incremental-rank rule for pivots: walk the generators in
    order and keep each one whose (x, z) pair on ``site`` lies outside the
    Z_p-span of the pairs kept so far, until 2m are kept; None when fewer
    are independent.  The span is a set of pairs closed by field addition,
    so its rank is log_p of its size."""
    f = table.field
    span, kept = {(0, 0)}, []
    for i, g in enumerate(table.gens):
        x, z = g.sites[site]
        if (x, z) in span:
            continue
        multiples = [(0, 0)]
        for _ in range(f.p - 1):
            a, b = multiples[-1]
            multiples.append((f.add(a, x), f.add(b, z)))
        span = {(f.add(a, c), f.add(b, e)) for a, b in span for c, e in multiples}
        kept.append(i)
        if len(kept) == 2 * f.m:
            return kept
    return None


def min_group_weight(table):
    """Smallest weight of a nonzero element of the projective group."""
    weights = [
        sum(1 for a, b in sites if a or b)
        for sites in projective_group(table)
    ]
    return min(w for w in weights if w > 0)


def first_undetectable(table, d_max):
    """(weight, site pairs) of the first undetectable error in the distance
    scan's order (weight, then site subset, then per-site (x, z) index pairs,
    all lexicographic), or None below d_max.  Every error of every subset is
    tested, with commutation exponents from the scalar trace of products;
    for k > 0 an error must also lie outside ``projective_group``."""
    f, n, p = table.field, table.n, table.field.p
    pairs = [(a, b) for a in range(f.q) for b in range(f.q) if a or b]
    # syn[s, i, j]: exponent of pair i on site s against generator j
    syn = np.array([[[(f.trace_mul(a, g.sites[s][1]) - f.trace_mul(b, g.sites[s][0])) % p
                      for g in table.gens] for a, b in pairs] for s in range(n)])
    group = projective_group(table) if table.k else set()
    for w in range(1, min(d_max, n) + 1):
        combos = np.indices((len(pairs),) * w).reshape(w, -1).T
        for subset in itertools.combinations(range(n), w):
            total = sum(syn[s][combos[:, t]] for t, s in enumerate(subset)) % p
            for row in np.nonzero(~total.any(axis=1))[0]:
                sites = [(0, 0)] * n
                for t, s in enumerate(subset):
                    sites[s] = pairs[combos[row, t]]
                if tuple(sites) not in group:
                    return w, tuple(sites)
    return None


# -- one-way repeater: one full cost curve per code -----------------------------


def repeater_costs(n, k, d, q, l_tot, l_att, eta_c, numerators):
    """Per numerator: (min cost, argmin link count, L0 R t0 there) of
    numerator / (L0 R t0) over r = 1..floor(L_tot / 0.1 km), from this
    code's own full curve.  Float for float the per-code expression, so
    an optimizer that shares curves between codes can be held to ==;
    ties go to the smaller r."""
    r = np.arange(1, max(1, int(l_tot / 0.1)) + 1)
    l0 = l_tot / r
    p_l = 1.0 - eta_c * np.exp(-l0 / l_att)
    acc = np.zeros_like(p_l)
    for j in range(min(d - 1, n) + 1):
        acc = acc + math.comb(n, j) * p_l**j * (1.0 - p_l) ** (n - j)
    throughput = l0 * (k * math.log2(q) * np.minimum(acc, 1.0) ** r)
    out = []
    with np.errstate(divide="ignore", over="ignore"):
        for numerator in numerators:
            cost = numerator / throughput
            i = int(np.argmin(cost))
            out.append((float(cost[i]), int(r[i]), throughput[i]))
    return out


def repeater_rate(n, k, d, q, l_tot, links, l_att, eta_c):
    """(P_success per link, k log2(q) P_success^links) over equal links of
    L_tot / links, with the binomial tail summed by math.fsum."""
    p = 1.0 - eta_c * math.exp(-(l_tot / links) / l_att)
    ps = min(math.fsum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
                       for j in range(min(d - 1, n) + 1)), 1.0)
    return ps, k * math.log2(q) * ps**links
