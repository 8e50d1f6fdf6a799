import random
import time
from functools import reduce

import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize(
    "p, e, order",
    [
        # a 4423-bit prime, and a composite of that size: no primality test
        (2**4423 - 1, 1, str(2**4423 - 1)),
        (2**4423 + 1, 1, str(2**4423 + 1)),
        # an exponent that no order at the limit reaches: p**e is not formed
        (3, 10**12, "3**1000000000000"),
        (2**4423 - 1, 21, f"{2**4423 - 1}**21"),
        # p**4 has more than the 4300 digits int-to-str converts
        (2**4423 - 1, 4, f"{2**4423 - 1}**4"),
        # a composite p whose order is above the limit gets the limit message
        (4, 11, "4194304"),
    ],
    ids=[
        "prime-4423-bits", "composite-4423-bits", "e-1e12", "prime-4423-bits-e-21",
        "prime-4423-bits-e-4", "4-e-11",
    ],
)
def test_field_checks_the_order_before_the_characteristic(p, e, order):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        build_field(p, e)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == f"field order {order} exceeds limit 1048576"


def test_extension_degree_is_checked_first():
    with pytest.raises(ValueError) as err:
        build_field(4, 0)
    assert str(err.value) == "extension degree must be positive, got 0"


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
    assert prime_power(2**81) == (2, 81)
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


@pytest.mark.parametrize("p, e", [(10**18 + 3, 1), (10**12 + 39, 2)])
def test_prime_power_of_a_large_prime_answers_at_once(p, e):
    # trial division up to the square root of p takes minutes
    started = time.monotonic()
    assert prime_power(p**e) == (p, e)
    assert time.monotonic() - started < 1


def _assert_too_large(q):
    started = time.monotonic()
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert time.monotonic() - started < 1
    assert str(err.value) == (
        f"order {q} is too large: orders must be below 3317044064679887385961981"
    )


@pytest.mark.parametrize(
    "q",
    [
        2**89 - 1,
        1287836182261 * 2575672364521,
        (2**89 - 1) * (10**18 + 3),
        pytest.param(10**4000 + 1, id="10^4000+1"),
    ],
)
def test_prime_power_states_the_limit_of_the_primality_test(q):
    # 2**89 - 1 is prime; the first product, PRIME_TEST_LIMIT itself, is the
    # least composite that no base shows composite. Every order at or above
    # the limit is rejected before any root is taken, a 4001-digit one too.
    assert q >= PRIME_TEST_LIMIT
    _assert_too_large(q)


_P18 = 10**18 + 3  # prime


@pytest.mark.parametrize(
    "q",
    [
        2**3329, 3**2100, 7**1184, _P18**56,
        2**3329 + 1, 2**3329 - 1, 3**2100 - 1, _P18**56 + 2,
        15**1000, 3 * 2**3329, _P18**55 * (10**18 + 9),
    ],
    ids=[
        "2^3329", "3^2100", "7^1184", "p^56",
        "2^3329+1", "2^3329-1", "3^2100-1", "p^56+2", "15^1000", "3*2^3329", "p^55*p'",
    ],
)
def test_prime_power_on_thousand_digit_orders(q):
    # about 1000 digits: prime powers and near misses alike are rejected by
    # size alone, at once
    _assert_too_large(q)


@pytest.mark.parametrize("q", [399165290221 * 798330580441])
def test_prime_power_rejects_a_large_composite_with_large_factors(q):
    # the least composite that the first 12 bases all pass; 41 shows it
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert str(err.value) == f"{q} is not a prime power"


_P12 = 10**12 + 39  # prime, as is 10**12 + 61


@pytest.mark.parametrize(
    "q, expected",
    [
        (2**81, (2, 81)),
        (3**51, (3, 51)),
        (7**28, (7, 28)),
        (_P12**2, (_P12, 2)),
        # near misses: one off a power, a power of a composite, a power
        # times a prime, a product of two large primes, and the last order
        # below the limit
        (2**81 + 1, None),
        (2**81 - 1, None),
        (3**51 - 1, None),
        (_P12**2 + 2, None),
        (6**30, None),
        (15**20, None),
        (3 * 2**79, None),
        (_P12 * (10**12 + 61), None),
        (PRIME_TEST_LIMIT - 1, None),
    ],
    ids=[
        "2^81", "3^51", "7^28", "p^2",
        "2^81+1", "2^81-1", "3^51-1", "p^2+2", "6^30", "15^20", "3*2^79", "p*p'", "limit-1",
    ],
)
def test_prime_power_on_orders_near_the_limit(q, expected):
    assert q < PRIME_TEST_LIMIT
    started = time.monotonic()
    if expected is None:
        with pytest.raises(ValueError) as err:
            prime_power(q)
        assert str(err.value) == f"{q} is not a prime power"
    else:
        assert prime_power(q) == expected
    assert time.monotonic() - started < 1


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


PRIMES_BELOW_2_20 = _primes_below(1 << 20)


def _largest_exponent(p, below):
    """The largest e with p**e < below."""
    e = 0
    while p ** (e + 1) < below:
        e += 1
    return e


@given(data=st.data())
def test_prime_power_splits_powers_of_one_prime_and_rejects_two(data):
    # a sieve is the oracle for the primes; every order stays below the limit
    primes = st.sampled_from(PRIMES_BELOW_2_20)
    p = data.draw(primes, label="p")
    e = data.draw(st.integers(1, _largest_exponent(p, PRIME_TEST_LIMIT)), label="e")
    assert prime_power(p**e) == (p, e)
    p2 = data.draw(primes.filter(lambda x: x != p), label="p2")
    below = (PRIME_TEST_LIMIT - 1) // p2 + 1
    a = data.draw(st.integers(1, _largest_exponent(p, below)), label="a")
    below = (PRIME_TEST_LIMIT - 1) // p**a + 1
    b = data.draw(st.integers(1, _largest_exponent(p2, below)), label="b")
    q = p**a * p2**b
    assert q < PRIME_TEST_LIMIT
    with pytest.raises(ValueError) as err:
        prime_power(q)
    assert str(err.value) == f"{q} is not a prime power"


def test_iroot_is_the_floor_of_the_root():
    rng = random.Random(0)
    for bits in (1, 2, 10, 53, 54, 64, 81, 82):
        for _ in range(20):
            n = rng.getrandbits(bits) | 1 << bits - 1
            for e in {1, 2, 3, 5, rng.randrange(1, bits + 2), bits, bits + 1}:
                r = _iroot(n, e)
                assert r**e <= n < (r + 1) ** e, (n, e)
    # at, just below and just above exact powers below the limit
    for root, e in [(2, 81), (3, 51), (10**8 + 1, 3), (2**40 + 1, 2), (2**27 - 1, 3)]:
        assert root**e < PRIME_TEST_LIMIT
        for n, want in [(root**e - 1, root - 1), (root**e, root), (root**e + 1, root)]:
            assert _iroot(n, e) == want, (root, e)
