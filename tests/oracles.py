"""Independent routes kept as test oracles.

None is used by the library: `charpoly_berkowitz` cross-checks the
multi-modular `char_poly`, `bareiss_det` gives det(lam*I - A) for checking
characteristic-polynomial evaluations, `rank_mod_dense` is the whole-row
modular elimination the sparse `linalg._rank_mod` is checked against, and
`substitute_template` builds the blow-up symbol by symbol as the reference
for `blown_adjacency`.
`spectrum_charpoly`, `poly_eval` and `trace` read a spectrum back as the
quantities `char_poly` and the float oracle are checked against.
"""

import numpy as np

from sudoku_spectra.blowup import substitution_set
from sudoku_spectra.graph import template
from sudoku_spectra.linalg import _require_square, poly_mul, zeros_matrix


def charpoly_berkowitz(a) -> tuple[int, ...]:
    """Division-free characteristic polynomial (slow); ascending coeffs."""
    a = _require_square(a)
    n = a.shape[0]
    poly = [1, -int(a[0, 0])]  # descending
    for k in range(1, n):
        r = a[k, :k]
        c = a[:k, k]
        sub = a[:k, :k]
        dt = [1, -int(a[k, k])]
        v = c
        for t in range(k):
            dt.append(-int(r @ v))
            if t < k - 1:
                v = sub @ v
        new = [0] * (k + 2)
        for d, tc in enumerate(dt):
            if tc:
                for jj, pc in enumerate(poly):
                    if d + jj < k + 2:
                        new[d + jj] += tc * pc
        poly = new
    return tuple(reversed(poly))


def bareiss_det(a) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = _require_square(a)
    mat = a.copy()
    n = mat.shape[0]
    denom = 1
    sign = 1
    for c in range(n):
        piv_row = next((i for i in range(c, n) if mat[i, c] != 0), None)
        if piv_row is None:
            return 0
        if piv_row != c:
            mat[[c, piv_row]] = mat[[piv_row, c]]
            sign = -sign
        piv = mat[c, c]
        if c + 1 < n:
            block = mat[c + 1:, c:]
            mat[c + 1:, c:] = (piv * block - np.outer(mat[c + 1:, c], mat[c, c:])) // denom
        denom = piv
    return sign * int(mat[n - 1, n - 1])


def rank_mod_dense(mat, p: int) -> int:
    """Rank mod p by Gaussian elimination that updates every row below the
    pivot, over all columns."""
    h = (np.asarray(mat, dtype=object) % p).astype(np.int64)
    n_rows, n_cols = h.shape
    r = 0
    for c in range(n_cols):
        nz = np.flatnonzero(h[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            h[[r, piv]] = h[[piv, r]]
        inv = pow(int(h[r, c]), -1, p)
        f = h[r + 1:, c] * inv % p
        h[r + 1:, :] = (h[r + 1:, :] - f[:, None] * h[r, :]) % p
        r += 1
        if r == n_rows:
            break
    return r


def substitute_template(t, k: int) -> np.ndarray:
    """Blow-up adjacency by literal symbol-by-symbol block substitution."""
    tmpl = template(t)
    s = substitution_set(k)
    block = {"H": s.h, "V": s.v, "B": s.b, "D": s.d, "N": zeros_matrix(k * k)}
    n = t.n_cells
    kk = k * k
    out = np.empty((n * kk, n * kk), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i * kk:(i + 1) * kk, j * kk:(j + 1) * kk] = block[tmpl[i, j]]
    return out


def spectrum_charpoly(s) -> tuple[int, ...]:
    """Reassemble prod (x - lam)^mult * residual of a `Spectrum`."""
    poly = (1,)
    for lam, mult in s.integer_part:
        for _ in range(mult):
            poly = poly_mul(poly, (-lam, 1))
    return poly_mul(poly, s.residual)


def poly_eval(p, x: int) -> int:
    """Value at x of a polynomial with ascending coefficients (Horner)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def trace(a) -> int:
    return int(sum(a[i, i] for i in range(a.shape[0])))
