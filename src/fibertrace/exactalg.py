"""Exact algebra substrate: the integer group ring of Z/n and the
cyclotomic field Q(zeta_n).

Group-ring elements are formal sums sum_e c_e * x^e with integer
coefficients and exponents mod n, stored by their nonzero terms; all
trace polynomials live here.  The one constructor takes (exponent,
coefficient) pairs, reduces the exponents mod n and adds up equal ones,
so a sum of two elements is built the same way as any other.

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

Phi_n itself comes from the product formula, with no polynomial
division: Phi_n(x) = Phi_rad(x^(n/rad)) for rad the squarefree kernel of
n, and Phi_rad = prod_{d | rad} (1 - x^d)^mu(rad/d) for rad > 1, a power
series that is a polynomial of degree phi(rad), so it is exact when
truncated above that degree.

The fixed-point evaluation route needs no general inverse and no field
arithmetic: ``packed_inverse_numerators`` gives n * (1 - zeta_n^c)^(-1) in
closed form as an integer polynomial, packed into one integer with one
signed slot of whole bytes per coefficient, so that a product of two is a
single big-integer multiplication (Kronecker substitution).
``singtrace.trace_oracle`` keeps its whole sum over the denominator n^2 as
one integer modulo 2^(8 * width * n) - 1, the image of x^n - 1, with one
such product per pair of middle nodes, and calls ``from_poly`` once.
Slots go in and out of those integers through typed arrays (``array``) of
the smallest native item of 1, 2, 4 or 8 bytes that holds a slot: packing
gathers a numerator's slots from a per-call table in one strided step and
trims each item to the slot width by deleting its top byte planes, and
``_unpack`` widens the slots back and reads them with one array, so
neither converts one slot at a time.
"""
from __future__ import annotations

import math
import operator
import sys
from array import array
from functools import lru_cache

from .errors import BadInput, ModulusMismatch, int_text


class GroupRingElement:
    """An element of Z[Z/n], stored sparsely: ``terms`` maps every exponent
    in [0, n) whose coefficient is nonzero to that coefficient, so the
    cost of an element follows its number of terms and never n.  Immutable
    after construction."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, pairs=()):
        """sum c * x^e over the (e, c) pairs: exponents are reduced mod n,
        the coefficients of equal exponents add up and zero sums are
        dropped.  A dense sequence is passed as ``enumerate(coeffs)``.  A
        pair with a falsy coefficient is skipped; every other exponent and
        coefficient must be an int (BadInput), checked once on the built
        terms."""
        if not isinstance(n, int):  # bool, an int, stays accepted
            raise BadInput(f"group ring modulus must be an integer, got {n!r}")
        if n < 1:
            raise BadInput(f"group ring modulus must be >= 1, got {int_text(n)}")
        terms: dict[int, int] = {}
        try:
            for e, c in pairs:
                if c:
                    e %= n
                    terms[e] = terms.get(e, 0) + c
            # one pass over the built terms: ints, bool among them, sum to an int
            operator.index(sum(terms.values(), sum(terms)))
        except (TypeError, ArithmeticError) as exc:  # a float, str, Fraction or None among them
            raise BadInput("group ring exponents and coefficients must be integers") from exc
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.n != other.n:
            raise ModulusMismatch(f"moduli differ: {int_text(self.n)} != {int_text(other.n)}")
        return GroupRingElement(self.n, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def items(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, exponents ascending."""
        return sorted(self.terms.items())

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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending.

    Phi_n(x) = Phi_rad(x^(n/rad)), rad the product of the primes p | n,
    and for rad > 1, Phi_rad = prod_{d | rad} (1 - x^d)^mu(rad/d): the
    signs of x^d - 1 cancel, as the mu(rad/d) sum to 0.  Taken as power
    series truncated above phi(rad), multiplying by 1 - x^d is one
    descending pass and dividing by it one ascending pass.
    """
    if n < 1:
        raise BadInput(f"cyclotomic polynomials need n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    primes = []
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    # (d, mu(rad/d)) for every divisor d of rad
    divisors = [(1, (-1) ** len(primes))]
    for p in primes:
        divisors += [(d * p, -sign) for d, sign in divisors]
    phi = math.prod(p - 1 for p in primes)  # phi(rad)
    coeffs = [1] + [0] * phi
    for d, sign in divisors:
        if sign > 0:
            for i in range(phi, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        else:
            for i in range(d, phi + 1):
                coeffs[i] += coeffs[i - d]
    stride = n // math.prod(primes)
    out = [0] * (phi * stride + 1)
    out[::stride] = coeffs
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n), the degree of Phi_n, and the nonzero terms (k, c) of Phi_n
    below its leading x^phi(n)."""
    p = cyclotomic_polynomial(n)
    return len(p) - 1, tuple((k, c) for k, c in enumerate(p[:-1]) if c)


# item size -> unsigned ``array`` type code, for the sizes 1, 2, 4 and 8
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def _slot_array(width: int) -> tuple[str, int]:
    """The ``array`` type code and the item size that hold a slot of
    ``width`` bytes: the smallest native unsigned item of 1, 2, 4 or 8
    bytes."""
    if not 1 <= width <= 8:
        raise BadInput(f"slot width must be 1 to 8 bytes, got {width}")
    size = 1 << (width - 1).bit_length()
    return _TYPECODES[size], size


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The ``count`` signed slots of ``value``, each of absolute value below
    2^(8 * width - 1).  Adding the midpoint to every slot makes every slot
    nonnegative with no carry between slots, so the slots are read off as
    unsigned items, widened to their native size and read with one
    ``array``, and subtracting the midpoint again is the signed borrow."""
    code, size = _slot_array(width)
    half = 1 << (8 * width - 1)
    midpoints = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    digits = (value + midpoints).to_bytes(count * width, "little")
    if width < size:
        wide = bytearray(count * size)
        for b in range(width):
            wide[b::size] = digits[b::width]
        digits = wide
    slots = array(code, digits)
    if sys.byteorder == "big":
        slots.byteswap()
    return [x - half for x in slots]


def packed_inverse_numerators(n: int, width: int):
    """The function c -> the numerator N(c) of n * (1 - zeta_n^c)^(-1), for
    c != 0 mod n, packed as sum_e N(c)_e * 2^(8 * width * e) over the n
    exponents e mod n; it computes each c once.  Raises BadInput unless
    1 <= width <= 8 and every |N(c)_e| is below 2^(8 * width - 1).

    N(c) = -sum_{j<n} (j+1) x^(cj mod n): multiplying the sum by 1 - x^c
    telescopes it to n - sum_{j<n} x^(cj), and the geometric sum vanishes
    at zeta_n since zeta_n^c != 1, so no Euclidean algorithm is needed.
    With g = gcd(c, n), m = n/g and u the inverse of c/g mod m, the
    exponent g*e collects the g terms with j = k mod m, k = e*u mod m:
    N(c)_(g*e) = -(g*(k + 1) + n(g - 1)/2), and every other coefficient is
    0.  So the coefficients are at most 0, sum to -n(n+1)/2 and have
    absolute value at most n(g + 1)/2 (n when c is a unit).

    The slot values for k = 0..m-1 are built once per g, as one typed
    array of the smallest native item that holds ``width`` bytes.  The
    table repeated u times and read with step u is the table permuted by
    e -> e*u mod m, so each N(c) is packed in a few C-level steps instead
    of n conversions: the gather, for g > 1 one extended-slice store into
    every g-th item of a zero array, a byte swap on big-endian machines,
    one deletion per byte plane above ``width``, top plane first, and one
    ``int.from_bytes``.  The gather repeats a table min(u, m - u) times,
    so its buffer holds at most m * m/2 items: for 2u >= m it reads with
    step m - u the table reversed after its first item, whose item k is
    the slot of -k mod m, and -e(m - u) = e*u mod m.

    -c has the same g and k -> m - k for k != 0, so the formula gives
    N(c) + N(-c) = n - g(n+2) * J_g with J_g = sum_{e<m} x^(g*e).  Packing
    is evaluation at 2^(8 * width), a ring homomorphism, so once N(-c) is
    packed, N(c) is the same integer n - N(-c) - g(n+2) * J_g, two
    big-integer subtractions instead of a pack."""
    code, size = _slot_array(width)
    tables: dict[int, tuple[array, array]] = {}  # g -> slots for k and -k
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
        if g not in tables:
            if (n * (g + 1) // 2) >> (8 * width - 1):
                raise BadInput(f"coefficients of N({c}) for n = {n} do not fit {width}-byte slots")
            base = n * (g - 1) // 2
            table = array(code, range(g + base, g * m + base + 1, g))
            tables[g] = table, table[:1] + table[:0:-1]
        u = pow(c // g, -1, m)
        ahead, behind = tables[g]
        slots = (ahead * u)[::u] if 2 * u < m else (behind * (m - u))[::m - u]
        if g > 1:
            spread = array(code, bytes(n * size))
            spread[::g] = slots
            slots = spread
        if sys.byteorder == "big":
            slots.byteswap()
        digits = bytearray(slots)
        for b in range(size - 1, width - 1, -1):
            del digits[b::b + 1]
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

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"CyclotomicNumber({self.n}, {list(self.num)}, den={self.den})"
