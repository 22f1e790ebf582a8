"""Exact spectra: integer eigenvalues with multiplicities plus a residual
certificate for the non-integer part.

`exact_spectrum` has two routes, and both are exact.  An integral matrix
is proven integral by annihilation (`linalg.integral_spectrum`): float
eigenvalues propose the integer candidates S, the product of (A - lam I)
over S is shown to vanish modulo enough primes, and power traces mod p give
the multiplicities.  Floats never decide; when no certificate is found,
the matrix takes the characteristic-polynomial route (`linalg.char_poly`,
then integer root extraction), whose residual polynomial certifies the
non-integer part.  Only that route is limited to n <= 512.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg

__all__ = [
    "Spectrum",
    "exact_spectrum",
    "is_integral",
    "multipartite_charpoly",
    "multipartite_spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Exact spectrum: sorted (eigenvalue, multiplicity) pairs and the monic
    residual polynomial carrying all non-integer eigenvalues ((1,) when the
    matrix is integral)."""

    integer_part: tuple[tuple[int, int], ...]
    residual: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.integer_part) + self.residual_degree

    @property
    def residual_degree(self) -> int:
        return len(self.residual) - 1

    @property
    def is_integral(self) -> bool:
        return self.residual_degree == 0

    def digest(self) -> str:
        """Compact one-line form, e.g. '(-3)^1 0^4 3^1' or '... +deg2'."""
        parts = [
            (f"({lam})" if lam < 0 else str(lam)) + f"^{mult}"
            for lam, mult in self.integer_part
        ]
        if self.residual_degree:
            parts.append(f"+deg{self.residual_degree}")
        return " ".join(parts) if parts else "(empty)"


def exact_spectrum(a) -> Spectrum:
    """Exact spectrum of a symmetric integer matrix.

    First route, any size: `linalg.integral_spectrum` proves an integral
    spectrum by annihilation.  The rounded float eigenvalues form the
    candidate set S, prod_{lam in S} (A - lam I) must be 0 modulo primes
    whose product exceeds twice the entry bound prod (rho + |lam|), rho the
    Gershgorin bound, and the multiplicities solve
    sum m_lam lam^j = tr(A^j) mod p, j < |S|.  The residual is then (1,).

    When that finds no certificate (a float eigenvalue off an integer, or
    a nonzero residue), the fallback route computes the characteristic
    polynomial (n <= 512, DimensionMismatch past it) and finds the integer
    eigenvalues by trial division over the divisors of its constant term
    within the Gershgorin row-sum bound; everything left is returned as the
    residual polynomial.
    """
    roots = linalg.integral_spectrum(a)  # raises ValueError unless symmetric
    if roots is not None:
        return Spectrum(tuple(roots), (1,))
    poly = linalg.char_poly(a)
    bound = linalg.gershgorin_bound(a)
    roots, residual = linalg.integer_roots(poly, max_abs_root=bound)
    return Spectrum(tuple(roots), residual)


def is_integral(a) -> bool:
    """True iff every eigenvalue of the symmetric matrix a is an integer."""
    return exact_spectrum(a).is_integral


def multipartite_charpoly(parts) -> tuple[int, ...]:
    """Characteristic polynomial of the complete multipartite graph with the
    given part sizes: x^(n-k) * (x^k - sum_{m=2..k} (m-1) sigma_m x^(k-m)),
    sigma_m the elementary symmetric functions of the part sizes."""
    sizes = [int(p) for p in parts]
    if not sizes or any(p < 1 for p in sizes):
        raise ValueError("part sizes must be positive integers")
    k = len(sizes)
    n = sum(sizes)
    sigma = (1,)
    for p in sizes:
        sigma = linalg.poly_mul(sigma, (1, p))
    top = [0] * (k + 1)
    top[k] = 1
    for m in range(2, k + 1):
        top[k - m] -= (m - 1) * sigma[m]
    return tuple([0] * (n - k) + top)


def multipartite_spectrum(q: int, k: int) -> Spectrum:
    """Spectrum of the complete k-partite graph with all parts of size q:
    {0 with multiplicity kq-k, (k-1)q once, -q with multiplicity k-1}."""
    if q < 1 or k < 1:
        raise ValueError("q and k must be positive")
    counts: dict[int, int] = {}
    for lam, mult in ((0, k * q - k), ((k - 1) * q, 1), (-q, k - 1)):
        if mult:
            counts[lam] = counts.get(lam, 0) + mult
    return Spectrum(tuple(sorted(counts.items())), (1,))
