"""Linear algebra over Z/p for the benchmark's own checks and input draws."""

from __future__ import annotations

Vector = tuple[int, ...]


def _reduce(rows: list[list[int]], ncols: int, p: int) -> int:
    """Gauss-Jordan on the first `ncols` columns in place; returns the rank."""
    rk = 0
    for col in range(ncols):
        piv = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        s = pow(rows[rk][col], p - 2, p)
        rows[rk] = [x * s % p for x in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def rank(rows: list[Vector], p: int) -> int:
    return _reduce([[x % p for x in r] for r in rows], len(rows[0]) if rows else 0, p)


def independent(u: Vector, v: Vector, p: int) -> bool:
    """u, v span (Z/p)^2 inside (Z/p)^k: some 2x2 minor is nonzero mod p."""
    k = len(u)
    return any((u[i] * v[j] - u[j] * v[i]) % p for i in range(k) for j in range(i + 1, k))


def coordinates(basis_cols: list[Vector], target: Vector, p: int) -> Vector | None:
    """c with sum_j c_j basis_cols[j] = target mod p, or None when target is
    outside the span; the columns must be independent."""
    k = len(basis_cols)
    mat = [[col[i] % p for col in basis_cols] + [x % p] for i, x in enumerate(target)]
    if _reduce(mat, k, p) < k or any(row[k] for row in mat[k:]):
        return None
    return tuple(row[k] for row in mat[:k])
