"""Exact arithmetic in finite fields GF(p^e)."""

from __future__ import annotations

from itertools import product

DEFAULT_ORDER_LIMIT = 1 << 20
_ORDER_BITS = DEFAULT_ORDER_LIMIT.bit_length()


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this limit (Sorenson and Webster, 2015).
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n below PRIME_TEST_LIMIT: n has no factor
    among _WITNESS_BASES other than itself and is a strong probable prime
    to every one of them, which below the limit is exactly "n is prime".
    """
    if n < 2:
        return False
    for b in _WITNESS_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESS_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's method from above.

    The start 2**(n.bit_length() // e + 1) exceeds the root. While x is
    above the floor r of the root, a step gives r <= y < x; at x = r it
    gives y >= x, which ends the loop.
    """
    x = 1 << (n.bit_length() // e + 1)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int]:
    """Split q as p**e with p prime; ValueError when q is not a prime power
    or is at least PRIME_TEST_LIMIT, below which primality is decided exactly.

    Exponents are tried from q.bit_length() - 1, the largest whose root is
    2 or more, down to 1, whose root is q. The first exponent e with an
    exact root r is the largest, so r is no exact power itself, and q is a
    prime power exactly when r is prime.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q >= PRIME_TEST_LIMIT:
        raise ValueError(f"order {q} is too large: orders must be below {PRIME_TEST_LIMIT}")
    for e in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, e)
        if r**e == q:
            break
    if not _is_prime(r):
        raise ValueError(f"{q} is not a prime power")
    return r, e


def _digits(a: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic of degree at least 1; the remainder keeps its zero top digits
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j in range(dm + 1):
                a[shift + j] = (a[shift + j] - c * m[j]) % p
        a.pop()
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            divisor = _digits(low, p, d) + [1]
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


def smallest_irreducible(p: int, e: int) -> list[int]:
    """Monic irreducible of degree e over GF(p), minimal when coefficient
    vectors are compared from the constant term upward."""
    for coeffs in product(range(p), repeat=e):
        cand = list(coeffs) + [1]
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")


class Field:
    """GF(p^e) with elements encoded as integers 0..q-1.

    The base-p digits of an element are its polynomial coefficients,
    constant digit first. Addition is digitwise mod p; products reduce
    modulo a fixed monic irreducible polynomial, which is x in a prime
    field. Every field multiplies through exp/log tables of its least
    generator, found by walking each candidate's powers with the table-free
    ``_raw_mul``; nothing is factored. Instances are immutable after
    construction and safe for concurrent reads.
    """

    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log")

    def __init__(self, p: int, e: int):
        """Check e, then the order, then p's primality, cheapest first.

        For p >= 2 an exponent of DEFAULT_ORDER_LIMIT.bit_length() or more
        puts p**e above the limit, so it is rejected without forming the
        power. The message writes the order out when e is 1 or when
        e * floor(log2 p) is below PRIME_TEST_LIMIT's bit length, as it is
        for every order ``prime_power`` accepts, and as p**e otherwise, so
        no order too long for int-to-str conversion is formatted.
        """
        if e < 1:
            raise ValueError(f"extension degree must be positive, got {e}")
        if p > 1 and (e >= _ORDER_BITS or p**e > DEFAULT_ORDER_LIMIT):
            shown = e == 1 or e * (p.bit_length() - 1) < PRIME_TEST_LIMIT.bit_length()
            order = p**e if shown else f"{p}**{e}"
            raise ValueError(f"field order {order} exceeds limit {DEFAULT_ORDER_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(smallest_irreducible(p, e))
        self._build_log_tables()

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e})"

    def _raw_mul(self, a: int, b: int) -> int:
        """Product via polynomial arithmetic, independent of any table."""
        p, e = self.p, self.e
        da = _digits(a, p, e)
        db = _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return _undigits(_poly_mod(prod, self.modulus, p), p)

    def _build_log_tables(self) -> None:
        """_exp lists the powers of the least generator, and _log inverts it.

        Candidates g = 2, 3, ... walk 1, g, g^2, ... by ``_raw_mul`` back to 1,
        as they must since the modulus is irreducible. The first walk of
        q - 1 entries is _exp; a shorter walk is a proper subgroup, so later
        candidates inside it are skipped. At q = 2 no candidate runs and
        _exp is [1].
        """
        q = self.q
        exp, failed = [1], set()
        for g in range(2, q):
            if g in failed:
                continue
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._raw_mul(g, x)
            if len(exp) == q - 1:
                break
            failed.update(exp)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for field of order {self.q}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p = self.p
        da = _digits(a, p, self.e)
        db = _digits(b, p, self.e)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def neg(self, a: int) -> int:
        self._check(a)
        p = self.p
        return _undigits([(-d) % p for d in _digits(a, p, self.e)], p)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in field of order {self.q}")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def tables(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """(products, sums): ``products[a][b]`` is a*b and ``sums[a][b]`` is a+b.

        Built whole, without the per-element checks of ``mul`` and ``add``.
        Row a != 0 of the products is the exp table rotated by log a and
        read at log b. Sums are built one base-p digit at a time: with
        q' = p**j, the sum of lo + q'*d and lo' + q'*d' is
        sums'[lo][lo'] + q'*((d + d') % p).
        """
        p, q = self.p, self.q
        exp, log = self._exp, self._log
        twice = exp + exp
        logs = log[1:]
        products = [(0,) * q]
        for a in range(1, q):
            rotated = twice[log[a] : log[a] + q - 1]
            products.append((0, *map(rotated.__getitem__, logs)))
        sums, size = [(0,)], 1
        for _ in range(self.e):
            sums = [
                tuple(s + size * ((d + d2) % p) for d2 in range(p) for s in row)
                for d in range(p)
                for row in sums
            ]
            size *= p
        return products, sums


def build_field(p: int, e: int) -> Field:
    """Construct GF(p^e) on the deterministic minimal irreducible modulus."""
    return Field(p, e)
