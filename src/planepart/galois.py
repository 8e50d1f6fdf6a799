"""Exact arithmetic in finite fields GF(p^e)."""

from __future__ import annotations

from itertools import product

DEFAULT_ORDER_LIMIT = 1 << 20


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Split q as p**e with p prime; ValueError when q is not a prime power."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    e = 1
    while p**e < q:
        e += 1
    return p, e


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


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j in range(dm + 1):
                a[shift + j] = (a[shift + j] - c * m[j]) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            divisor = _digits(low, p, d) + [1]
            if not _poly_mod(poly, divisor, p):
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
    modulo a fixed monic irreducible polynomial. A prime field multiplies
    as ``a * b % p``; an extension field multiplies through exp/log tables
    of a generator, built once with the table-free ``_raw_mul``. Instances
    are immutable after construction and safe for concurrent reads.
    """

    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log")

    def __init__(self, p: int, e: int):
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be positive, got {e}")
        q = p**e
        if q > DEFAULT_ORDER_LIMIT:
            raise ValueError(f"field order {q} exceeds limit {DEFAULT_ORDER_LIMIT}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(smallest_irreducible(p, e))
        self._exp = None
        self._log = None
        if e > 1:
            self._build_log_tables()

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e})"

    def _raw_mul(self, a: int, b: int) -> int:
        """Product via polynomial arithmetic, independent of any table."""
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        da = _digits(a, p, e)
        db = _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(e):
                    prod[d - e + j] = (prod[d - e + j] - c * mod[j]) % p
        return _undigits(prod[:e], p)

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return r

    def _build_log_tables(self) -> None:
        q = self.q
        order = q - 1
        radicals = [order // r for r in _prime_factors(order)]
        gen = 0
        for g in range(2, q):
            if all(self._raw_pow(g, m) != 1 for m in radicals):
                gen = g
                break
        exp = [0] * order
        x = 1
        for i in range(order):
            exp[i] = x
            x = self._raw_mul(x, gen)
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
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        da = _digits(a, p, self.e)
        db = _digits(b, p, self.e)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def neg(self, a: int) -> int:
        self._check(a)
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        return _undigits([(-d) % p for d in _digits(a, p, self.e)], p)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in field of order {self.q}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]


def build_field(p: int, e: int) -> Field:
    """Construct GF(p^e) on the deterministic minimal irreducible modulus."""
    return Field(p, e)
