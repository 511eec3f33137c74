"""Turán-number machinery: closed-form bounds, exact small-n searches,
prime-window search, and the explicit lower-bound chain.

ex(n, C4) is searched exactly by vertex extension: the C4-free graphs that
could beat a pendant-vertex lower bound are rebuilt one vertex of minimum
degree at a time, with isomorphs rejected through a pure-Python canonical
form on int bitsets (Clapham, Flockhart & Sheehan, J. Graph Theory 1989;
McKay, J. Algorithms 1998).  h(n, t) completes the same classes: a graph
with ex + t edges and c four-cycles is a C4-free graph with at least
ex + t - c edges plus some of its non-edges, so h(n, t) >= t.

Every boundary comparison involving the fractional exponents 21/40 and 101/80
is decided with integer cross-powering (surd arithmetic over sqrt(n)), never
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from c4lab.primes import is_prime

MAX_TURAN_N = 16
MAX_H_N = 13

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
    extremal_count: int
    method: str


def _equitable(adj: list[int], cells: list[int], pending: set[int]) -> list[int]:
    """Refine an ordered partition, cells as vertex bitsets, until equitable.

    The first pending cell in cell order splits every cell by the number of
    neighbours its vertices have in it, the parts ordered by that number, so
    the result depends only on the graph and the input, never on labels.  A
    split cell's parts become pending, except the first largest one when the
    cell itself was no longer pending: stability with respect to the cell
    and the other parts implies it.  Cells left out of `pending` must be
    ones the partition is already stable with respect to.
    """
    k = len(adj)
    while pending and len(cells) < k:
        splitter = next(c for c in cells if c in pending)
        pending.discard(splitter)
        single = None if splitter & (splitter - 1) else adj[splitter.bit_length() - 1]
        refined = []
        for cell in cells:
            pieces = None
            if cell & (cell - 1):
                if single is not None:
                    hit = cell & single
                    if hit and hit != cell:
                        pieces = [cell ^ hit, hit]
                else:
                    parts: dict[int, int] = {}
                    rem = cell
                    while rem:
                        low = rem & -rem
                        rem ^= low
                        c = (adj[low.bit_length() - 1] & splitter).bit_count()
                        parts[c] = parts.get(c, 0) | low
                    if len(parts) > 1:
                        pieces = [parts[c] for c in sorted(parts)]
            if pieces is None:
                refined.append(cell)
                continue
            refined += pieces
            if cell in pending:
                pending.discard(cell)
                pending.update(pieces)
            else:
                largest = max(pieces, key=int.bit_count)
                pending.update(p for p in pieces if p != largest)
        cells = refined
    return cells


def _canonical_key(adj: list[int]) -> int:
    """Isomorphism-invariant key of a graph given as neighbour bitsets.

    The key is the largest adjacency code, row after row in cell order, over
    the leaves of the individualization-refinement tree: start from the
    degree partition, refine until equitable, then individualize each vertex
    of the first smallest non-singleton cell and recurse.  Read as k rows of
    k bits it is the adjacency of a canonically labelled copy.
    """
    k = len(adj)
    best = 0

    def search(cells: list[int], pending: set[int]) -> None:
        nonlocal best
        cells = _equitable(adj, cells, pending)
        if len(cells) == k:
            pos = {cell: i for i, cell in enumerate(cells)}
            code = 0
            for cell in cells:
                row = 0
                rem = adj[cell.bit_length() - 1]
                while rem:
                    low = rem & -rem
                    rem ^= low
                    row |= 1 << pos[low]
                code = (code << k) | row
            best = max(best, code)
            return
        size = min(c.bit_count() for c in cells if c & (c - 1))
        j = next(i for i, c in enumerate(cells) if c.bit_count() == size)
        head, cell, tail = cells[:j], cells[j], cells[j + 1 :]
        rem = cell
        while rem:
            low = rem & -rem
            rem ^= low
            # the rest of the cell is stable once the new singleton is
            search(head + [low, cell ^ low] + tail, {low})

    everything = (1 << k) - 1
    search([everything], {everything})
    return best


def _decode_key(key: int, k: int) -> list[int]:
    """The neighbour bitsets of the canonically labelled graph of a key."""
    mask = (1 << k) - 1
    return [(key >> (k * (k - 1 - i))) & mask for i in range(k)]


def _extensions(adj: list[int], need: int):
    """Neighbourhoods S of a new vertex that close no 4-cycle and keep it of
    minimum degree, with |S| >= need.

    A 4-cycle through the new vertex is x-a-b-c-x with a, c in S sharing the
    neighbour b, so S must be independent in the shared-neighbour relation.
    Every graph arises by adding a vertex of minimum degree, so |S| <= d(v)
    for v outside S and |S| <= d(v) + 1 for v in S.
    """
    k = len(adj)
    deg = [a.bit_count() for a in adj]
    clash = []
    for v in range(k):
        reach = 0
        rem = adj[v]
        while rem:
            low = rem & -rem
            rem ^= low
            reach |= adj[low.bit_length() - 1]
        clash.append(reach & ~(1 << v))
    top = min(deg, default=k) + 1

    def grow(chosen: int, size: int, cand: int):
        if size >= need and all(deg[v] >= size or chosen >> v & 1 for v in range(k)):
            yield chosen
        if size == top:
            return
        while cand and size + cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            yield from grow(chosen | low, size + 1, cand & ~clash[v])

    return grow(0, 0, (1 << k) - 1)


def _extend(level, k: int, need: int):
    """The graphs on k vertices with at least `need` edges that add a vertex
    of minimum degree to a graph of `level` (keys of graphs on k - 1)."""
    for key in level:
        adj = _decode_key(key, k - 1)
        edges = sum(a.bit_count() for a in adj) // 2
        for s in _extensions(adj, need - edges):
            yield [a | (s >> v & 1) << (k - 1) for v, a in enumerate(adj)] + [s]


def _c4_free_graphs(n: int, least: int) -> list[tuple[int, list[int]]]:
    """The C4-free graphs on n >= 2 vertices with at least `least` edges, as
    (edge count, neighbour bitsets), each isomorphism class at least once.

    Level k holds the C4-free graphs on k vertices with at least T_k edges,
    T_n = least.  A graph on k vertices with e edges has a vertex of degree
    at most floor(2e/k), and e - floor(2e/k) never decreases as e grows, so
    deleting it from a graph of level k leaves a graph with at least
    T_{k-1} = T_k - floor(2 T_k / k) edges: every graph of level k extends
    one of level k - 1.
    """
    need = [0] * (n + 1)
    need[n] = least
    for k in range(n, 1, -1):
        need[k - 1] = need[k] - 2 * need[k] // k
    level = {0}  # the one graph on one vertex
    for k in range(2, n):
        level = {_canonical_key(g) for g in _extend(level, k, need[k])}
    return [(sum(a.bit_count() for a in g) // 2, g) for g in _extend(level, n, least)]


def _top_level(n: int) -> tuple[int, int, list]:
    """ex(n, C4), least = ex(n-1, C4) + 1 (0 at n = 1) and the C4-free graphs
    on n vertices with at least `least` edges.  A pendant vertex shows
    ex(m) >= ex(m-1) + 1, so each ex(m) in turn is the most edges among them."""
    best, least, graphs = 0, 0, [(0, [0])]
    for m in range(2, n + 1):
        least = best + 1
        graphs = _c4_free_graphs(m, least)
        best = max(edges for edges, _ in graphs)
    return best, least, graphs


def turan_bruteforce(n: int) -> TuranRecord:
    """Exact ex(n, C4) and the number of extremal graphs up to isomorphism, by
    vertex extension with isomorph rejection; nothing is kept between calls."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_TURAN_N:
        raise ValueError(f"turan_bruteforce is capped at n = {MAX_TURAN_N}")
    best, _, graphs = _top_level(n)
    classes = len({_canonical_key(g) for edges, g in graphs if edges == best})
    record = TuranRecord(n=n, ex_value=best, extremal_count=classes, method="bruteforce")
    if record.ex_value > reiman_bound(n):
        raise AssertionError(f"ex({n}, C4) = {best} exceeds the Reiman bound")
    return record


def _complete(graphs, target: int, best: int) -> int:
    """The fewest 4-cycles of a graph with `target` edges that contains one
    of `graphs` (C4-free, as (edge count, bitsets)) if below `best`, else best.

    A graph with c < best cycles has a largest C4-free subgraph H with more
    than target - best edges, and each of its other edges closes a 4-cycle
    in H.  So one graph per class, most edges first, gains such non-edges in
    a DFS that stops at `best`, and classes with fewer edges are skipped.
    """
    seen = set()
    for edges, adj in sorted(graphs, key=lambda pair: -pair[0]):
        if edges <= target - best:
            break
        if (key := _canonical_key(adj)) in seen:
            continue
        seen.add(key)

        def paths(u: int, v: int) -> int:  # the 3-paths u-a-b-v, one new 4-cycle each
            made, rem = 0, adj[v]
            while rem:
                low = rem & -rem
                rem ^= low
                made += (adj[low.bit_length() - 1] & adj[u]).bit_count()
            return made

        k = len(adj)
        gaps = [(u, v) for u in range(k) for v in range(u) if not adj[u] >> v & 1 and paths(u, v)]

        def dfs(i: int, left: int, cycles: int) -> None:
            nonlocal best
            if not left:
                best = cycles
                return
            for j in range(i, len(gaps) - left + 1):
                u, v = gaps[j]
                made = cycles + paths(u, v)
                if made < best:
                    adj[u], adj[v] = adj[u] | 1 << v, adj[v] | 1 << u
                    dfs(j + 1, left - 1, made)
                    adj[u], adj[v] = adj[u] ^ 1 << v, adj[v] ^ 1 << u

        dfs(0, target - edges, 0)
    return best


def h_bruteforce(n: int, t: int) -> int:
    """Exact minimum C4 count over graphs with n vertices and ex(n,C4)+t edges.

    Deleting one edge from each 4-cycle of such a graph G with c cycles
    leaves a C4-free H with ex + t - c <= e(H) <= ex, so h >= t and G is H
    plus ex + t - e(H) of its non-edges.  The extremal classes come first, and
    the classes below ex(n-1, C4) + 1 edges are enumerated only if they can win.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if n > MAX_H_N:
        raise ValueError(f"h_bruteforce is capped at n = {MAX_H_N}")
    ex, least, graphs = _top_level(n)
    target = ex + t
    if target > n * (n - 1) // 2:
        raise ValueError(f"{target} edges do not fit on {n} vertices")
    if t == 0:
        return 0  # the extremal graph itself is C4-free
    best = _complete(graphs, target, 3 * comb(n, 4) + 1)  # K_n has 3 C(n, 4)
    if target - best + 1 < least:
        lower = _c4_free_graphs(n, target - best + 1)
        best = _complete([p for p in lower if p[0] < least], target, best)
    if best < t:
        raise AssertionError(f"h({n}, {t}) = {best} is below t")
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

