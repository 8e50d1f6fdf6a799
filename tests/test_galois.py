from functools import reduce

import pytest

from planepart.galois import build_field, smallest_irreducible

from conftest import prime_powers


def poly_mul_mod(a, b, modulus, p):
    """Independent product oracle on digit lists, reduced mod the modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        c = prod[-1]
        shift = len(prod) - 1 - deg
        for j in range(deg + 1):
            prod[shift + j] = (prod[shift + j] - c * modulus[j]) % p
        prod.pop()
    while len(prod) < deg:
        prod.append(0)
    return prod


def digits(a, p, e):
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def undigits(ds, p):
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def test_prime_field_modulus_is_x():
    assert build_field(2, 1).modulus == (0, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: a quadratic over GF(2) is irreducible iff it has no root
    irreducible = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 for x in range(2)):
                irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert build_field(2, 2).modulus == (1, 1, 1)


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        build_field(4, 1)


def test_order_limit_enforced():
    with pytest.raises(ValueError, match="field order 2097152 exceeds limit 1048576"):
        build_field(2, 21)


def test_extension_degree_must_be_positive():
    with pytest.raises(ValueError) as err:
        build_field(2, 0)
    assert str(err.value) == "extension degree must be positive, got 0"


def test_gf4_product_against_polynomial_oracle():
    f = build_field(2, 2)
    assert f.mul(2, 3) == 1
    for a in range(4):
        for b in range(4):
            expect = undigits(poly_mul_mod(digits(a, 2, 2), digits(b, 2, 2), f.modulus, 2), 2)
            assert f.mul(a, b) == expect


def test_multiplicative_identity():
    for q in (2, 4, 5, 9, 16):
        f = build_field(*_pe(q))
        for a in range(q):
            assert f.mul(1, a) == a


def test_gf5_product():
    assert build_field(5, 1).mul(3, 4) == 2


def test_inverses():
    f5 = build_field(5, 1)
    assert f5.inv(3) == 2
    assert f5.inv(1) == 1
    f4 = build_field(2, 2)
    assert f4.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)


def test_out_of_range_elements_rejected():
    f = build_field(3, 1)
    with pytest.raises(ValueError):
        f.mul(3, 1)
    with pytest.raises(ValueError):
        f.add(0, -1)


def _pe(q):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return p, e
    raise AssertionError


@pytest.mark.parametrize("q", prime_powers(2, 32))
def test_field_axioms_exhaustive(q):
    f = build_field(*_pe(q))
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert reduce(f.mul, [a] * q) == a  # Frobenius fixed points
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_large_extension_field_uses_log_tables():
    # spot check the exp/log product against the polynomial oracle
    f = build_field(2, 13)
    for a, b in ((1, 1), (2, 3), (777, 4095), (8000, 8191), (1 << 12, 3)):
        expect = undigits(poly_mul_mod(digits(a, 2, 13), digits(b, 2, 13), f.modulus, 2), 2)
        assert f.mul(a, b) == expect
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("pe", [(3, 2), (3, 3), (5, 2)])
def test_subtraction_inverts_addition(pe):
    f = build_field(*pe)
    for a in range(f.q):
        assert f.add(a, f.neg(a)) == 0
        for b in range(f.q):
            assert f.add(f.add(a, f.neg(b)), b) == a


def test_smallest_irreducible_compares_constant_term_first():
    # over GF(3) the candidates (0, *) all divide by x, so x^2 + 1 wins
    assert smallest_irreducible(3, 2) == [1, 0, 1]
    # over GF(2) both cubics with constant 1 after x^3 + 1 are irreducible;
    # constant-first comparison puts x^3 + x^2 + 1 before x^3 + x + 1
    assert smallest_irreducible(2, 3) == [1, 0, 1, 1]
