"""Reference arithmetic that only the tests use, kept out of the package."""

from fibertrace.resolution import ResolutionData
from fibertrace.singtrace import edge_blocks


def universal_polys(res: ResolutionData) -> list[int]:
    """P_{-1} = 0, P_0 = 1, P_l = b_l P_{l-1} - P_{l-2}; these satisfy
    r_l = P_l * r_0 (mod n) for every l."""
    p = [0, 1]
    for b in res.b:
        p.append(b * p[-1] - p[-2])
    return p


def closed_form_coefficients(res: ResolutionData) -> tuple[list[int], list[int], int]:
    """The three coefficient sequences of the closed-form trace, before
    any exponent mapping: coefficients over mu_0 in powers of xi^{alpha2},
    over mu_{L+1} in powers of xi^{alpha1}, and the length-m all-ones
    block that is subtracted.  Once n * gcd(m1, m2) >= lcm(m1, m2) these
    depend only on the residue class of n modulo lcm(m1, m2)."""
    (_, first), (_, second), (m, _) = edge_blocks(res.sing.m1, res.sing.m2, res.mu[1], res.mu[-2])
    return first, second, m
