"""Finite field construction, canonical enumeration, and arithmetic laws."""

import numpy as np
import pytest

from c4lab.field import (
    poly_mod,
    FieldSpec,
    FieldElement,
    enumerate_field,
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
    x = gf4.element(2)
    one = gf4.element(1)
    assert (x * x).coeffs == (1, 1)  # x * x = x + 1
    assert x * x == gf4.element(3)
    assert (x * (x + one)).index == 1  # x * (x+1) = x^2 + x = 1
    assert (x + x).index == 0


def test_enumeration_order_and_roundtrip():
    gf4 = FieldSpec(2, 2)
    elems = enumerate_field(gf4)
    assert [e.coeffs for e in elems] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    gf9 = FieldSpec(3, 2)
    elems9 = enumerate_field(gf9)
    assert elems9[0].index == 0
    assert [e.coeffs for e in elems9[:4]] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    for e in elems9:
        assert gf9.index_of(e.coeffs) == e.index


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
    one = spec.element(1)
    zero = spec.element(0)
    idx = rng.integers(0, q, size=(60, 3))
    for ia, ib, ic in idx:
        a, b, c = spec.element(ia), spec.element(ib), spec.element(ic)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        assert (a + b) ** p == a**p + b**p  # Frobenius
    nonzero = range(1, q) if q <= 64 else rng.integers(1, q, size=64)
    for i in nonzero:
        e = spec.element(int(i))
        assert e * e.inverse() == one
        assert e ** (q - 1) == one


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


def test_element_api_misc():
    gf8 = FieldSpec(2, 3)
    a = gf8.element(5)
    b = gf8.element(3)
    assert a / b * b == a
    assert repr(a).startswith("FieldElement(GF(8)")
    assert not gf8.element(0)
    with pytest.raises(ZeroDivisionError):
        a / gf8.element(0)
    gf9 = FieldSpec(3, 2)
    with pytest.raises(TypeError):
        a + gf9.element(1)
