"""Arithmetic in small finite fields GF(p^k).

Elements are represented by their canonical index: the integer
sum(c_i * p**i) of the coefficient vector (c_0, ..., c_{k-1}) of the residue
polynomial, low degree first.  Index order therefore matches the canonical
element enumeration (0 first, constants before x, e.g. GF(4) = [0, 1, x, x+1]).
Polynomial coefficient vectors everywhere in this module are low degree first.

Scalar arithmetic on indices takes the polynomial route of FieldSpec's *_index
methods, which also build the exp/log tables behind the v* methods that the
plane builder applies to numpy index arrays.  Both reduce modulo the same fixed
irreducible polynomial, found by lexicographic search unless given explicitly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from c4lab.primes import is_prime

MAX_FIELD_ORDER = 1024


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients low degree first, trailing zeros
# trimmed except that the zero polynomial is ()


def _trim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def poly_add(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _trim(a)


def poly_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = poly_mod(a, m, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), m, p)
        base = poly_mod(poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        # make b monic for the reduction step
        inv_lead = pow(b[-1], p - 2, p)
        bm = tuple((c * inv_lead) % p for c in b)
        a, b = b, poly_mod(a, bm, p)
    return a


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exact irreducibility over GF(p) of a monic polynomial, low-first coefficients."""
    f = _trim(coeffs)
    k = len(f) - 1
    if k < 1:
        return False
    if f[-1] != 1:
        raise ValueError("is_irreducible expects a monic polynomial")
    if k == 1:
        return True
    x = (0, 1)
    # f irreducible iff it shares no factor with x^(p^d) - x for d <= k/2
    # and x^(p^k) == x mod f
    t = x
    for d in range(1, k // 2 + 1):
        t = poly_powmod(t, p, f, p)
        g = _poly_gcd(poly_add(t, tuple(-c % p for c in x), p), f, p)
        if len(g) - 1 >= 1:
            return False
    t = x
    for _ in range(k):
        t = poly_powmod(t, p, f, p)
    return t == x


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over GF(p).

    Candidates are compared by coefficient vector from the highest
    non-leading coefficient down, so the search tries x^k, x^k + 1,
    x^k + 2, ..., x^k + x, ... in that order.  Returns low-first
    coefficients of length k+1.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not 1 <= k <= 20:
        raise ValueError(f"degree k must be in [1, 20], got {k}")
    for m in range(p**k):
        digits = []
        v = m
        for _ in range(k):
            digits.append(v % p)
            v //= p
        # digits is (c_0, ..., c_{k-1}) with c_0 the fastest-varying digit of m,
        # so increasing m walks the candidates in high-to-low coefficient order.
        coeffs = tuple(digits) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError("unreachable: an irreducible of every degree exists")


# ---------------------------------------------------------------------------


def _factor_small(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """GF(p^k) with a fixed monic irreducible modulus (low-first coefficients).

    Supports q = p^k up to 1024; larger orders are rejected so table-backed
    arithmetic stays exact and cheap.
    """

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = p**k
        if q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")
        if modulus is None:
            modulus = find_irreducible(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k, low-first coefficients")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = tuple(modulus)
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._neg: np.ndarray | None = None

    # -- index <-> coefficient vector ------------------------------------

    def coeffs_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.q:
            raise ValueError(f"element index {index} out of range for GF({self.q})")
        out = []
        for _ in range(self.k):
            out.append(index % self.p)
            index //= self.p
        return tuple(out)

    def index_of(self, coeffs: Iterable[int]) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than field degree")
        idx = 0
        for i, c in enumerate(coeffs):
            idx += (int(c) % self.p) * self.p**i
        return idx

    # -- scalar index arithmetic (polynomial route, table-free) ----------

    def add_index(self, i: int, j: int) -> int:
        return self.index_of(poly_add(self.coeffs_of(i), self.coeffs_of(j), self.p))

    def neg_index(self, i: int) -> int:
        return self.index_of(tuple(-c % self.p for c in self.coeffs_of(i)))

    def mul_index(self, i: int, j: int) -> int:
        prod = poly_mul(self.coeffs_of(i), self.coeffs_of(j), self.p)
        return self.index_of(poly_mod(prod, self.modulus, self.p))

    def pow_index(self, i: int, e: int) -> int:
        if e < 0:
            return self.pow_index(self.inv_index(i), -e)
        result, base = 1, i
        while e > 0:
            if e & 1:
                result = self.mul_index(result, base)
            base = self.mul_index(base, base)
            e >>= 1
        return result

    def inv_index(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self.pow_index(i, self.q - 2)

    # -- exp/log tables and vectorized index arithmetic ------------------

    def _ensure_tables(self) -> None:
        if self._exp is not None:
            return
        q = self.q
        order_factors = _factor_small(q - 1) if q > 2 else []
        # the least primitive element; GF(2)'s is 1, the only candidate
        for g in range(2, q) or [1]:
            if all(self.pow_index(g, (q - 1) // r) != 1 for r in order_factors):
                break
        exp = np.zeros(max(2 * (q - 1), 1), dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        cur = 1
        for i in range(q - 1):
            exp[i] = cur
            exp[i + (q - 1)] = cur
            log[cur] = i
            cur = self.mul_index(cur, g)
        if cur != 1:
            raise AssertionError("generator order mismatch")
        inv = np.zeros(q, dtype=np.int32)
        inv[0] = -1
        for i in range(1, q):
            inv[i] = exp[(q - 1 - log[i]) % (q - 1)]
        neg = np.array([self.neg_index(i) for i in range(q)], dtype=np.int32)
        self._exp, self._log, self._inv, self._neg = exp, log, inv, neg

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field addition on index arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b  # indices are packed coefficient bits in char 2
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pw = 1
        for _ in range(self.k):
            out += ((a % self.p + b % self.p) % self.p) * pw
            a = a // self.p
            b = b // self.p
            pw *= self.p
        return out

    def vneg(self, a: np.ndarray) -> np.ndarray:
        self._ensure_tables()
        return self._neg[np.asarray(a, dtype=np.int64)].astype(np.int64)

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._ensure_tables()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        if np.any(nz):
            la = self._log[np.where(nz, a, 1)]
            lb = self._log[np.where(nz, b, 1)]
            vals = self._exp[la + lb]
            out[...] = np.where(nz, vals, 0)
        return out

    def vinv(self, a: np.ndarray) -> np.ndarray:
        self._ensure_tables()
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a].astype(np.int64)

    # ---------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={self.modulus})"


def spec_for_order(q: int) -> FieldSpec:
    """FieldSpec for GF(q), factoring q = p^k; rejects non-prime-powers."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    primes = _factor_small(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    k = 0
    n = q
    while n > 1:
        n //= p
        k += 1
    return FieldSpec(p, k)
