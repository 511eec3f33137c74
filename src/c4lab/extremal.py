"""Turán-number machinery: closed-form bounds, tiny-n brute-force oracles,
prime-window search, and the explicit lower-bound chain.

Every boundary comparison involving the fractional exponents 21/40 and 101/80
is decided with integer cross-powering (surd arithmetic over sqrt(n)), never
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from c4lab.primes import is_prime

MAX_TURAN_N = 10
MAX_H_N = 9

FUREDI_EXCLUDED = frozenset({1, 7, 9, 11, 13})


def reiman_bound(n: int) -> int:
    """floor(n/4 * (1 + sqrt(4n-3))), the classical 4-cycle upper bound."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # n*sqrt(4n-3) = sqrt(n^2 (4n-3)); flooring inside is safe because the
    # integer part of the quarter only needs floor of the addend
    return (n + isqrt(n * n * (4 * n - 3))) // 4


@dataclass
class FurediValue:
    q: int
    value: int
    excluded: bool  # orders where the closed form is not known to be exact


def furedi_value(q: int) -> FurediValue:
    """The plane-order bound q(q+1)^2/2, flagged at the excluded orders."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return FurediValue(q=q, value=q * (q + 1) ** 2 // 2, excluded=q in FUREDI_EXCLUDED)


@dataclass
class TuranRecord:
    n: int
    ex_value: int
    extremal_count: int | None
    method: str


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _creates_c4(adj: list[int], u: int, v: int) -> bool:
    """Would adding edge (u, v) close a 4-cycle? True iff a 3-path joins them."""
    au = adj[u]
    rem = adj[v] & ~(1 << u)
    while rem:
        low = rem & -rem
        rem ^= low
        if adj[low.bit_length() - 1] & au:
            return True
    return False


def turan_bruteforce(n: int) -> TuranRecord:
    """Exact ex(n, C4) by lexicographic DFS over edge sets.

    An edge is added only when it closes no 4-cycle; branches that cannot
    beat the incumbent with all remaining edges are pruned.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_TURAN_N:
        raise ValueError(f"turan_bruteforce is capped at n = {MAX_TURAN_N}")
    pairs = _all_pairs(n)
    total = len(pairs)
    adj = [0] * n
    best = 0

    def dfs(i: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i == total or count + (total - i) <= best:
            return
        u, v = pairs[i]
        if not _creates_c4(adj, u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            dfs(i + 1, count + 1)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        dfs(i + 1, count)

    dfs(0, 0)
    record = TuranRecord(n=n, ex_value=best, extremal_count=None, method="bruteforce")
    if record.ex_value > reiman_bound(n):
        raise AssertionError(f"ex({n}, C4) = {best} exceeds the Reiman bound")
    return record


def h_bruteforce(n: int, t: int) -> int:
    """Exact minimum C4 count over graphs with n vertices and ex(n,C4)+t edges.

    Exhaustive DFS over edge supersets; prunes on edge counts and on the
    monotone cycle count.  Correctness over speed.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if n > MAX_H_N:
        raise ValueError(f"h_bruteforce is capped at n = {MAX_H_N}")
    ex = turan_bruteforce(n).ex_value
    target = ex + t
    if target > n * (n - 1) // 2:
        raise ValueError(f"{target} edges do not fit on {n} vertices")
    if t == 0:
        return 0  # the extremal graph itself is C4-free
    pairs = _all_pairs(n)
    total = len(pairs)
    adj = [0] * n
    best = None

    def new_cycles(u: int, v: int) -> int:
        # one new 4-cycle per 3-path u-a-b-v
        au = adj[u]
        created = 0
        rem = adj[v] & ~(1 << u)
        while rem:
            low = rem & -rem
            rem ^= low
            created += (adj[low.bit_length() - 1] & au).bit_count()
        return created

    def dfs(i: int, chosen: int, cycles: int) -> None:
        nonlocal best
        if best is not None and cycles >= best:
            return
        if chosen == target:
            best = cycles
            return
        if total - i < target - chosen:
            return
        u, v = pairs[i]
        made = new_cycles(u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        dfs(i + 1, chosen + 1, cycles + made)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        dfs(i + 1, chosen, cycles)

    dfs(0, 0, 0)
    if best is None:
        raise AssertionError(f"no graph with {target} edges on {n} vertices was searched")
    return best


# ---------------------------------------------------------------------------
# prime-window search and the lower-bound chain


def prime_in_interval(x: int) -> int:
    """Largest prime p <= x, certified to satisfy p >= x - x^(21/40).

    The window test is exact: (x-p)^40 <= x^21.  Raises "no prime in window"
    when x is too small for any prime, or when the largest prime falls short
    (possible only at small x).
    """
    if x >= 1 << 64:
        raise ValueError("x must be below 2**64")
    if x < 2:
        raise ValueError("no prime in window")
    p = x
    while not is_prime(p):
        p -= 1
    if (x - p) ** 40 > x**21:
        raise ValueError("no prime in window")
    return p


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integers, Newton plus a final clamp."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _surd_pow(a: int, b: int, d: int, e: int) -> tuple[int, int]:
    """(a + b*sqrt(d))^e as (A, B) with value A + B*sqrt(d)."""
    ra, rb = 1, 0
    pa, pb = a, b
    while e:
        if e & 1:
            ra, rb = ra * pa + rb * pb * d, ra * pb + rb * pa
        pa, pb = pa * pa + pb * pb * d, 2 * pa * pb
        e >>= 1
    return ra, rb


def _surd_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) (d >= 1), exact."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return (b > 0) - (b < 0) if a == 0 else (a > 0) - (a < 0)
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0: positive iff a^2 > b^2 d
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def _half_formula_cmp(n: int, value: int) -> int:
    """Exact sign of 2*value - (n^1.5 - 3*n^(101/80) + n).

    Rearranged to 3*n^(101/80) - (c + n*sqrt(n)) with c = n - 2*value, then
    decided by raising both sides to the 80th power in Z[sqrt(n)].
    """
    c = n - 2 * value
    if _surd_sign(c, n, n) <= 0:
        return 1  # the 101/80 power is strictly positive
    big_a, big_b = _surd_pow(c, n, n, 80)
    m = 3**80 * n**101
    return _surd_sign(m - big_a, -big_b, n)


def _floor_half_formula(n: int) -> int:
    """floor((n^1.5 - 3*n^(101/80) + n) / 2), exact."""
    # the root floors put this estimate within a couple of units of the truth
    est = (isqrt(n**3) - 3 * _iroot(n**101, 80) + n) // 2
    f = est - 4
    while _half_formula_cmp(n, f + 1) <= 0:
        f += 1
    return f


def _p_window_ok(n: int, p: int) -> bool:
    """Exact test of p >= sqrt(n) - n^(21/80) - 1.

    Rearranged to n^(21/80) >= sqrt(n) - (p+1), decided in Z[sqrt(n)].
    """
    c = -(p + 1)
    if _surd_sign(c, 1, n) <= 0:
        return True
    big_a, big_b = _surd_pow(c, 1, n, 80)
    return _surd_sign(n**21 - big_a, -big_b, n) >= 0


def turan_lower_bound(n: int) -> dict:
    """The plane-embedding lower-bound chain for ex(n, C4).

    Finds the largest prime p <= (sqrt(4n-3) - 1)/2, reports the exact bound
    p(p+1)^2/2, the closed-form floor (n^1.5 - 3n^1.2625 + n)/2, and whether
    the chain inequalities hold, all under exact arithmetic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x_floor = (isqrt(4 * n - 3) - 1) // 2
    p = prime_in_interval(x_floor)  # may raise "no prime in window"
    bound = p * (p + 1) ** 2 // 2
    return {
        "n": n,
        "x": x_floor,
        "p": p,
        "bound": bound,
        "floor_formula": _floor_half_formula(n),
        "chain_holds": _half_formula_cmp(n, bound) >= 0,
        "p_lower_ok": _p_window_ok(n, p),
    }


def corollary_turan_decision(q: int, lambda_lower: int, slack: int) -> dict:
    """Case split for the even-order Turán corollary, as a formula evaluator.

    threshold = q(q+1)^2/2 - q/2 + slack; branch 1 when the certified lower
    bound reaches it (then ex equals lambda), branch 2 otherwise (then the
    threshold is an exclusive upper bound).  Not a proof, an evaluator.
    """
    if q % 2:
        raise ValueError("odd order")
    if q < 2:
        raise ValueError("q must be a positive even integer")
    threshold = q * (q + 1) ** 2 // 2 - q // 2 + slack
    branch = 1 if lambda_lower >= threshold else 2
    return {
        "q": q,
        "slack": slack,
        "lambda_lower": lambda_lower,
        "threshold": threshold,
        "branch": branch,
        "bound": max(lambda_lower, threshold),
        "ex_equals_lambda": branch == 1,
    }
