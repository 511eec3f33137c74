"""Finite field construction, canonical enumeration, and arithmetic laws."""

import numpy as np
import pytest

from c4lab.field import (
    poly_mod,
    FieldSpec,
    find_irreducible,
    is_irreducible,
    poly_powmod,
)


def test_find_irreducible_frozen_small_cases():
    # low-first coefficients
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert find_irreducible(2, 1) == (0, 1)  # x
    assert find_irreducible(5, 1) == (0, 1)


def test_find_irreducible_is_least_in_search_order():
    # every earlier candidate in the high-to-low comparison order is reducible
    f = find_irreducible(2, 4)
    assert f[-1] == 1 and len(f) == 5
    found = int(sum(c * 2**i for i, c in enumerate(f[:-1])))
    # re-walk the candidate order and confirm nothing before `found` passes
    for m in range(found):
        digits = []
        v = m
        for _ in range(4):
            digits.append(v % 2)
            v //= 2
        assert not is_irreducible(tuple(digits) + (1,), 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", range(1, 13))
def test_find_irreducible_divides_frobenius_polynomial(p, k):
    f = find_irreducible(p, k)
    assert len(f) == k + 1 and f[-1] == 1
    # f | x^(p^k) - x  <=>  x^(p^k) == x (mod f); iterate the p-power map k times
    t = poly_mod((0, 1), f, p)
    for _ in range(k):
        t = poly_powmod(t, p, f, p)
    assert t == poly_mod((0, 1), f, p)


def test_gf4_multiplication_table():
    gf4 = FieldSpec(2, 2)
    x, one = 2, 1
    assert gf4.coeffs_of(gf4.mul_index(x, x)) == (1, 1)  # x * x = x + 1
    assert gf4.mul_index(x, x) == 3
    assert gf4.mul_index(x, gf4.add_index(x, one)) == 1  # x * (x+1) = x^2 + x = 1
    assert gf4.add_index(x, x) == 0


def test_enumeration_order_and_roundtrip():
    gf4 = FieldSpec(2, 2)
    assert [gf4.coeffs_of(i) for i in range(gf4.q)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    gf9 = FieldSpec(3, 2)
    assert [gf9.coeffs_of(i) for i in range(4)] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    for i in range(gf9.q):
        assert gf9.index_of(gf9.coeffs_of(i)) == i
    with pytest.raises(ValueError):
        gf9.coeffs_of(gf9.q)


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldSpec(4, 1)  # p not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    with pytest.raises(ValueError):
        FieldSpec(2, 11)  # 2048 > 1024
    with pytest.raises(ValueError):
        FieldSpec(3, 7)  # 2187 > 1024
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(0, 0, 1))  # x^2 reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(1, 1))  # wrong degree


FIELD_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (2, 7),
                (3, 4), (2, 8), (2, 9), (23, 1), (2, 10), (31, 1), (5, 4), (3, 6)]


@pytest.mark.parametrize("p,k", FIELD_ORDERS)
def test_field_axioms_sampled(p, k):
    spec = FieldSpec(p, k)
    q = spec.q
    rng = np.random.default_rng(20240817 + q)
    add, mul, neg, pw = spec.add_index, spec.mul_index, spec.neg_index, spec.pow_index
    idx = rng.integers(0, q, size=(60, 3))
    for ia, ib, ic in idx:
        a, b, c = int(ia), int(ib), int(ic)
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, 0) == a and mul(a, 1) == a
        assert add(a, neg(a)) == 0
        assert pw(add(a, b), p) == add(pw(a, p), pw(b, p))  # Frobenius
    nonzero = range(1, q) if q <= 64 else rng.integers(1, q, size=64)
    for i in nonzero:
        e = int(i)
        assert mul(e, spec.inv_index(e)) == 1
        assert pw(e, q - 1) == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv_index(0)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6)])
def test_vectorized_ops_match_scalar(p, k):
    spec = FieldSpec(p, k)
    rng = np.random.default_rng(7 * spec.q)
    a = rng.integers(0, spec.q, size=200)
    b = rng.integers(0, spec.q, size=200)
    add = spec.vadd(a, b)
    mul = spec.vmul(a, b)
    neg = spec.vneg(a)
    for i in range(len(a)):
        assert add[i] == spec.add_index(int(a[i]), int(b[i]))
        assert mul[i] == spec.mul_index(int(a[i]), int(b[i]))
        assert neg[i] == spec.neg_index(int(a[i]))
    nz = a[a != 0]
    inv = spec.vinv(nz)
    for i in range(len(nz)):
        assert inv[i] == spec.inv_index(int(nz[i]))
    with pytest.raises(ZeroDivisionError):
        spec.vinv(np.array([0, 1]))


def gf2_packed_mul(a: int, b: int, modulus) -> int:
    """Independent multiplication route for characteristic 2.

    An element's index doubles as a bitmask of its coefficients, so
    multiplication runs as carry-less shifts with xor reduction.
    """
    k = len(modulus) - 1
    mod_mask = 0
    for i, c in enumerate(modulus):
        if c & 1:
            mod_mask |= 1 << i
    prod = 0
    x = a
    while b:
        if b & 1:
            prod ^= x
        x <<= 1
        b >>= 1
    for bit in range(prod.bit_length() - 1, k - 1, -1):
        if (prod >> bit) & 1:
            prod ^= mod_mask << (bit - k)
    return prod


@pytest.mark.parametrize("k", range(1, 9))
def test_packed_gf2_route_agrees_exhaustively(k):
    spec = FieldSpec(2, k)
    for a in range(spec.q):
        for b in range(spec.q):
            assert gf2_packed_mul(a, b, spec.modulus) == spec.mul_index(a, b)

