"""Exact algebra substrate: the integer group ring of Z/n and the
cyclotomic field Q(zeta_n).

Group-ring elements are formal sums sum_e c_e * x^e with integer
coefficients and exponents mod n, stored by their nonzero terms; all
trace polynomials live here.

CyclotomicNumber models an element of Q(zeta_n) by its remainder modulo
the n-th cyclotomic polynomial Phi_n: phi(n) integer coordinates over one
denominator.  The remainder is canonical, so equality is exact.
``from_poly`` reduces an integer polynomial of any length in two steps:

- It folds the polynomial modulo x^h - s into h coordinates, adding
  s^(i div h) times the coefficient of x^i to that of x^(i mod h).  For
  odd n, h = n and s = 1; for even n, h = n/2 and s = -1.  The fold is
  exact in Q(zeta_n): zeta_n^h = s, so Phi_n divides x^h - s, and both
  polynomials have the same remainder modulo Phi_n.
- It divides the folded polynomial by Phi_n from x^(h-1) down to
  x^phi(n), subtracting only the nonzero terms of Phi_n below its
  leading one, cached per n; Phi_120, of degree 32, has six of them.
  That is h - phi(n) steps of at most phi(n) updates, so at most
  (h/2)^2 updates: n^2/4 for odd n, n^2/16 for even n.  For n = 2p, p an
  odd prime, it is a single step, where folding modulo x^n - 1 left p + 1.

A product is formed by Kronecker substitution: each numerator vector a
is packed into one integer, sum a_i * 2^(w i), the two integers are
multiplied once, and the coefficients of the product are read off its
w-bit slots.  Each coefficient sums at most min(len a, len b) products
a_i * b_j, so its absolute value is at most
B = max|a| * max|b| * min(len a, len b) < 2^k with k = B.bit_length();
slots of w >= k + 1 bits, rounded up to whole bytes, hold it as a signed
value with no carry into the next slot.

The fixed-point evaluation route needs no general inverse and no field
arithmetic: ``packed_inverse_numerators`` gives n * (1 - zeta_n^c)^(-1) in
closed form as an integer polynomial, already packed for Kronecker
substitution, so ``singtrace.trace_oracle`` keeps its whole sum as one
integer over the denominator n^2 and calls ``from_poly`` once.  Sums and
products of CyclotomicNumbers remain the field's reference arithmetic.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .errors import BadInput, InvariantError, ModulusMismatch


class GroupRingElement:
    """An element of Z[Z/n], stored sparsely: ``terms`` maps every exponent
    in [0, n) whose coefficient is nonzero to that coefficient, so the
    cost of an element follows its number of terms and never n.  Immutable
    after construction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, coeffs=None):
        """The element whose dense coefficient sequence, indexed by
        exponent, is ``coeffs`` (exactly n entries), or zero for None."""
        if n < 1:
            raise BadInput(f"group ring modulus must be >= 1, got {n}")
        terms = {}
        if coeffs is not None:
            coeffs = tuple(coeffs)
            if len(coeffs) != n:
                raise BadInput(f"expected {n} coefficients, got {len(coeffs)}")
            terms = {e: c for e, c in enumerate(coeffs) if c}
        self.n = n
        self.terms = terms

    @classmethod
    def _of(cls, n: int, terms: dict) -> "GroupRingElement":
        """Wrap ``terms`` as is: exponents already reduced, no zero values."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def from_terms(cls, n: int, pairs) -> "GroupRingElement":
        """sum c * x^e over the (e, c) pairs; exponents are reduced mod n
        and the coefficients of equal exponents add up."""
        if n < 1:
            raise BadInput(f"group ring modulus must be >= 1, got {n}")
        acc: dict[int, int] = {}
        for e, c in pairs:
            e %= n
            acc[e] = acc.get(e, 0) + c
        return cls._of(n, {e: c for e, c in acc.items() if c})

    @classmethod
    def zero(cls, n: int) -> "GroupRingElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GroupRingElement":
        return cls.monomial(n, 0, 1)

    @classmethod
    def monomial(cls, n: int, exponent: int, coefficient: int = 1) -> "GroupRingElement":
        return cls.from_terms(n, [(exponent, coefficient)])

    def _check(self, other: "GroupRingElement") -> None:
        if self.n != other.n:
            raise ModulusMismatch(f"moduli differ: {self.n} != {other.n}")

    def _combine(self, other, sign: int) -> "GroupRingElement":
        if isinstance(other, int):
            other = GroupRingElement.monomial(self.n, 0, other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            total = terms.get(e, 0) + sign * c
            if total:
                terms[e] = total
            else:
                del terms[e]
        return GroupRingElement._of(self.n, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement._of(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        if isinstance(other, int):
            return GroupRingElement.monomial(self.n, 0, other) - self
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, int):
            other = GroupRingElement.monomial(self.n, 0, other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, exponent: int) -> int:
        return self.terms.get(exponent % self.n, 0)

    def items(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, exponents ascending."""
        return sorted(self.terms.items())

    def eval_at_one(self) -> int:
        """Sum of coefficients (the value at the trivial group element)."""
        return sum(self.terms.values())

    def evaluate(self, power: int = 1) -> "CyclotomicNumber":
        """Evaluate the formal sum at zeta_n^power, exactly in Q(zeta_n)."""
        n = self.n
        buf = [0] * n
        for e, c in self.terms.items():
            buf[(e * power) % n] += c
        return CyclotomicNumber.from_poly(n, buf)

    def __str__(self):
        terms = []
        for e, c in self.items():
            if e == 0:
                terms.append(str(c))
            else:
                mono = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"GroupRingElement({self.n}, {dict(self.items())})"


# ----------------------------------------------------------------------
# Integer polynomial helpers (ascending coefficient lists).

def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_monic(a, d):
    """Divide a by the monic integer polynomial d; stays in Z[x].  Builds
    ``cyclotomic_polynomial``; numbers are reduced by ``from_poly``."""
    a = list(a)
    dd = len(d) - 1
    q = [0] * max(len(a) - dd, 0)
    for i in range(len(a) - 1, dd - 1, -1):
        c = a[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, y in enumerate(d):
            a[i - dd + j] -= c * y
    return q, _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending.

    Built by exact division of x^n - 1 by the cyclotomic polynomials of
    the proper divisors of n.
    """
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise InvariantError(f"Phi_{d} does not divide x^{n} - 1 exactly")
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n), the degree of Phi_n, and the nonzero terms (k, c) of Phi_n
    below its leading x^phi(n)."""
    p = cyclotomic_polynomial(n)
    return len(p) - 1, tuple((k, c) for k, c in enumerate(p[:-1]) if c)


def _pack(coeffs, width: int) -> int:
    """sum c_i * 2^(8 * width * i), one signed slot of ``width`` bytes per
    coefficient."""
    value = 0
    for c in reversed(coeffs):
        value = (value << (8 * width)) + c
    return value


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The ``count`` signed slots of ``value``, each of absolute value below
    2^(8 * width - 1).  Adding the midpoint to every slot makes every slot
    nonnegative with no carry between slots, so the slots are read off as
    bytes, and subtracting the midpoint again is the signed borrow."""
    half = 1 << (8 * width - 1)
    midpoints = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    digits = (value + midpoints).to_bytes(count * width, "little")
    return [
        int.from_bytes(digits[i:i + width], "little") - half
        for i in range(0, count * width, width)
    ]


def _product(a, b) -> list[int]:
    """The product of two nonempty integer polynomials, by Kronecker
    substitution: one big-integer multiplication of the packed vectors."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    # every product coefficient has absolute value at most bound, below 2^k
    # for k = bound.bit_length(), so a slot of k + 1 bits holds it signed
    width = (bound.bit_length() + 8) // 8
    return _unpack(_pack(a, width) * _pack(b, width), len(a) + len(b) - 1, width)


def packed_inverse_numerators(n: int, width: int):
    """The function c -> the numerator N(c) of n * (1 - zeta_n^c)^(-1), for
    c != 0 mod n, packed as sum_e N(c)_e * 2^(8 * width * e) over the n
    exponents e mod n; it computes each c once.  Every |N(c)_e| must fit
    in ``width`` bytes (``int.to_bytes`` raises otherwise).

    N(c) = -sum_{j<n} (j+1) x^(cj mod n): multiplying the sum by 1 - x^c
    telescopes it to n - sum_{j<n} x^(cj), and the geometric sum vanishes
    at zeta_n since zeta_n^c != 1, so no Euclidean algorithm is needed.
    With g = gcd(c, n), m = n/g and u the inverse of c/g mod m, the
    exponent g*e collects the g terms with j = k mod m, k = e*u mod m:
    N(c)_(g*e) = -(g*(k + 1) + n(g - 1)/2), and every other coefficient is
    0.  So the coefficients are at most 0, sum to -n(n+1)/2 and have
    absolute value at most n(g + 1)/2 (n when c is a unit).

    The slot values for k = 0..m-1 are written once per g, one byte plane
    per byte of the slot; a plane repeated u times and read with step u
    is the plane permuted by e -> e*u mod m, so each N(c) is packed by
    width slicings instead of n conversions.

    -c has the same g and k -> m - k for k != 0, so the formula gives
    N(c) + N(-c) = n - g(n+2) * J_g with J_g = sum_{e<m} x^(g*e).  Packing
    is evaluation at 2^(8 * width), a ring homomorphism, so once N(-c) is
    packed, N(c) is the same integer n - N(-c) - g(n+2) * J_g, two
    big-integer subtractions instead of a pack."""
    planes: dict[int, list[bytes]] = {}
    sums: dict[int, int] = {}  # g -> g(n+2) * J_g, packed
    packed: dict[int, int] = {}

    def numerator(c: int) -> int:
        c %= n
        if c in packed:
            return packed[c]
        if c == 0:
            raise ZeroDivisionError("1 - zeta^0 is zero")
        g = math.gcd(c, n)
        m = n // g
        if n - c in packed:
            if g not in sums:
                slot = b"\x01" + bytes(width * g - 1)
                sums[g] = g * (n + 2) * int.from_bytes(slot * m, "little")
            packed[c] = n - packed[n - c] - sums[g]
            return packed[c]
        if g not in planes:
            base = n * (g - 1) // 2
            table = b"".join([(g * k + base).to_bytes(width, "little") for k in range(1, m + 1)])
            planes[g] = [table[b::width] for b in range(width)]
        u = pow(c // g, -1, m)
        digits = bytearray(n * width)
        for b, plane in enumerate(planes[g]):
            digits[b::g * width] = (plane * u)[::u]
        packed[c] = -int.from_bytes(digits, "little")
        return packed[c]

    return numerator


class CyclotomicNumber:
    """Element of Q(zeta_n), stored as an integer numerator vector of
    length phi(n) over a single positive denominator, reduced so that
    gcd of the content and the denominator is 1.  The representation is
    canonical modulo the n-th cyclotomic polynomial, so equality is
    componentwise."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1):
        phi = _phi_tail(n)[0]
        num = list(num)
        if len(num) != phi:
            raise BadInput(f"expected {phi} coordinates for conductor {n}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = math.gcd(den, *num) if any(num) else den
        if g > 1:
            den //= g
            num = [c // g for c in num]
        self.n = n
        self.num = tuple(num)
        self.den = den

    @classmethod
    def from_poly(cls, n: int, poly, den: int = 1) -> "CyclotomicNumber":
        """Reduce an arbitrary-degree integer polynomial in zeta_n: fold it
        modulo x^h - s, which Phi_n divides (x^n - 1 for odd n, x^(n/2) + 1
        for even n), then divide by Phi_n."""
        phi, tail = _phi_tail(n)
        h, s = (n // 2, -1) if n % 2 == 0 else (n, 1)
        poly = list(poly)
        buf = poly[:h]
        buf.extend([0] * (h - len(buf)))
        sign = 1
        for start in range(h, len(poly), h):
            sign *= s
            chunk = poly[start:start + h]
            buf[:len(chunk)] = map(operator.add if sign > 0 else operator.sub, buf, chunk)
        for i in range(h - 1, phi - 1, -1):
            c = buf[i]
            if c:
                base = i - phi
                for k, t in tail:
                    buf[base + k] -= c * t
        del buf[phi:]
        return cls(n, buf, den)

    @classmethod
    def zero(cls, n: int) -> "CyclotomicNumber":
        return cls(n, [0] * _phi_tail(n)[0])

    @classmethod
    def from_integer(cls, n: int, value: int) -> "CyclotomicNumber":
        return cls.from_poly(n, [value])

    @classmethod
    def one(cls, n: int) -> "CyclotomicNumber":
        return cls.from_integer(n, 1)

    @classmethod
    def root_power(cls, n: int, e: int) -> "CyclotomicNumber":
        """zeta_n^e, reduced."""
        buf = [0] * n
        buf[e % n] = 1
        return cls.from_poly(n, buf)

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.n != other.n:
            raise ModulusMismatch(f"conductors differ: {self.n} != {other.n}")

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicNumber.from_integer(self.n, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        num = [a * db + b * da for a, b in zip(self.num, other.num)]
        return CyclotomicNumber(self.n, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.n, [-a for a in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicNumber.from_integer(self.n, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicNumber(self.n, [other * a for a in self.num], self.den)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        prod = _product(self.num, other.num)
        return CyclotomicNumber.from_poly(self.n, prod, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicNumber.from_integer(self.n, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        return f"CyclotomicNumber({self.n}, {list(self.num)}, den={self.den})"
