import random
import time
from functools import reduce

import pytest

from planepart.galois import (
    PRIME_TEST_LIMIT, Field, _iroot, build_field, prime_power, smallest_irreducible,
)
from planepart.plane import build_plane, validate_axioms

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


@pytest.mark.parametrize("q", prime_powers(2, 81))
def test_tables_match_the_table_free_product_and_checked_sum(q):
    f = build_field(*_pe(q))
    products, sums = f.tables()
    assert len(products) == len(sums) == q
    for a in range(q):
        assert products[a] == tuple(f._raw_mul(a, b) for b in range(q))
        expect = [
            undigits([(x + y) % f.p for x, y in zip(digits(a, f.p, f.e), digits(b, f.p, f.e))], f.p)
            for b in range(q)
        ]
        assert sums[a] == tuple(expect)


def least_generator_by_factoring(f):
    """The least g >= 2 with g**((q-1)/r) != 1 for every prime r dividing
    q - 1: trial division, then square-and-multiply over ``_raw_mul``."""
    order, n, radicals, r = f.q - 1, f.q - 1, [], 2
    while r * r <= n:
        if n % r == 0:
            radicals.append(order // r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        radicals.append(order // n)

    def power(a, m):
        result = 1
        while m:
            if m & 1:
                result = f._raw_mul(result, a)
            a, m = f._raw_mul(a, a), m >> 1
        return result

    return next(g for g in range(2, f.q) if all(power(g, m) != 1 for m in radicals))


@pytest.mark.parametrize("q", prime_powers(3, 257) + [343, 512, 625, 729, 1024])
def test_exp_table_is_the_walk_of_the_least_generator(q):
    f = build_field(*prime_power(q))
    g = least_generator_by_factoring(f)
    assert f._exp[1] == g
    assert all(f._raw_mul(g, a) == b for a, b in zip(f._exp, f._exp[1:]))
    assert sorted(f._exp) == list(range(1, q))
    assert [f._log[v] for v in f._exp] == list(range(q - 1))


def test_planes_are_built_from_the_field_tables_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("a scalar field op was called")

    for op in ("add", "neg", "mul", "inv"):
        monkeypatch.setattr(Field, op, refuse)
    for q in prime_powers(2, 64):
        validate_axioms(build_plane(q))


PRIMES_TO_251 = [p for p in range(2, 252) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", PRIMES_TO_251)
def test_prime_field_matches_integer_arithmetic_mod_p(p):
    # a prime field takes the exp/log path of every field; integers mod p
    # are the oracle
    f = build_field(p, 1)
    products, sums = f.tables()
    elems = range(p)
    for a in elems:
        assert products[a] == tuple(a * b % p for b in elems)
        assert sums[a] == tuple((a + b) % p for b in elems)
        assert [f.mul(a, b) for b in elems] == list(products[a])
        assert [f.add(a, b) for b in elems] == list(sums[a])
        assert f.neg(a) == -a % p
        if a:
            assert f.inv(a) == pow(a, p - 2, p)


@pytest.mark.parametrize("k", range(1, 9))
def test_characteristic_2_sums_are_xor(k):
    f = build_field(2, k)
    _, sums = f.tables()
    elems = range(f.q)
    for a in elems:
        assert sums[a] == tuple(a ^ b for b in elems)
        assert [f.add(a, b) for b in elems] == list(sums[a])
        assert f.neg(a) == a


def test_prime_power_splits_exactly_the_prime_powers():
    powers = set(prime_powers(2, 5000))
    for q in range(5001):
        if q in powers:
            p, e = prime_power(q)
            assert p**e == q and min(d for d in range(2, q + 1) if q % d == 0) == p, q
        else:
            with pytest.raises(ValueError) as err:
                prime_power(q)
            assert str(err.value) == f"{q} is not a prime power"
    assert prime_power(2**100) == (2, 100)
    assert prime_power(3**40) == (3, 40)


@pytest.mark.parametrize("q", [2000000000000000006, 6000000000000000018])
def test_prime_power_stops_at_the_smallest_prime_factor(q):
    # 2 * (10**18 + 3) and 6 * (10**18 + 3), with 10**18 + 3 prime: trial
    # division to the square root would take 10**9 steps, while q has no
    # exact root above the first and a base divides q itself
    started = time.monotonic()
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert time.monotonic() - started < 1
    assert str(err.value) == f"{q} is not a prime power"


@pytest.mark.parametrize("p, e", [(10**18 + 3, 1), (10**18 + 3, 2), (2**61 - 1, 2)])
def test_prime_power_of_a_large_prime_answers_at_once(p, e):
    # trial division up to the square root of p takes minutes
    started = time.monotonic()
    assert prime_power(p**e) == (p, e)
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("q", [2**89 - 1, 1287836182261 * 2575672364521])
def test_prime_power_states_the_limit_of_the_primality_test(q):
    # 2**89 - 1 is prime; the product, PRIME_TEST_LIMIT itself, is the least
    # composite that no base shows composite. Neither is decided.
    assert q >= PRIME_TEST_LIMIT
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert str(err.value) == (
        f"cannot tell whether {q} is a prime power: primality is decided only "
        "below 3317044064679887385961981"
    )


@pytest.mark.parametrize(
    "q, prime", [(2**4423 - 1, True), (2**4096 + 1, False)], ids=["2^4423-1", "2^4096+1"]
)
def test_prime_power_runs_one_round_at_or_above_the_limit(q, prime):
    # 2**4423 - 1 is a 1332-digit prime, and 2**4096 + 1 is composite with
    # no factor among the bases. At or above the limit only the base-3 round
    # runs, about 0.1 s on 2 cores, where the 13 rounds took about 3.4 s.
    # Base 2 passes every Fermat number, so it could not show the second
    # composite.
    started = time.monotonic()
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert time.monotonic() - started < 1
    assert str(err.value) == (
        f"cannot tell whether {q} is a prime power: primality is decided only "
        "below 3317044064679887385961981"
        if prime else f"{q} is not a prime power"
    )


@pytest.mark.parametrize(
    "q", [(2**89 - 1) * (10**18 + 3), 399165290221 * 798330580441]
)
def test_prime_power_rejects_a_large_composite_with_large_factors(q):
    # a witness of compositeness is exact at any size; the second product is
    # the least composite that the first 12 bases all pass, and 41 shows it
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert str(err.value) == f"{q} is not a prime power"


_P18 = 10**18 + 3  # prime


@pytest.mark.parametrize(
    "q, expected",
    [
        (2**3329, (2, 3329)),
        (3**2100, (3, 2100)),
        (7**1184, (7, 1184)),
        (_P18**56, (_P18, 56)),
        # near misses: one off a power, a power of a composite, a power
        # times a prime, and a product of powers of two large primes
        (2**3329 + 1, None),
        (2**3329 - 1, None),
        (3**2100 - 1, None),
        (_P18**56 + 2, None),
        (15**1000, None),
        (3 * 2**3329, None),
        (_P18**55 * (10**18 + 9), None),
    ],
    ids=[
        "2^3329", "3^2100", "7^1184", "p^56",
        "2^3329+1", "2^3329-1", "3^2100-1", "p^56+2", "15^1000", "3*2^3329", "p^55*p'",
    ],
)
def test_prime_power_on_thousand_digit_orders(q, expected):
    # about 1000 digits: each exponent is a prime tried once per root taken,
    # from a start within 2**-30 of the root
    started = time.monotonic()
    if expected is None:
        with pytest.raises(ValueError) as err:
            prime_power(q)
        assert str(err.value) == f"{q} is not a prime power"
    else:
        assert prime_power(q) == expected
    assert time.monotonic() - started < 2


def test_iroot_is_the_floor_of_the_root():
    rng = random.Random(0)
    for bits in (1, 2, 10, 53, 54, 64, 200, 1100, 3400):
        for _ in range(20):
            n = rng.getrandbits(bits) | 1 << bits - 1
            for e in {1, 2, 3, 5, rng.randrange(1, bits + 2), bits, bits + 1}:
                r = _iroot(n, e)
                assert r**e <= n < (r + 1) ** e, (n, e)
    # at, just below and just above exact powers, up to a root above 2**53
    for root, e in [(2, 3329), (3, 2100), (10**17 + 1, 3), (2**60 + 1, 2), (2**1000 - 1, 3)]:
        for n, want in [(root**e - 1, root - 1), (root**e, root), (root**e + 1, root)]:
            assert _iroot(n, e) == want, (root, e)
