"""First homology of the arrangement complement, mod-m epimorphisms, exceptional
loop classes, smoothness certificates, covers, and the covering kernel.

Loops lambda_1..lambda_n around the lines generate H_1 subject to the single
relation sum(lambda_i) = 0.  A branched abelian cover is encoded by the n x k
residue matrix phi with phi(lambda_i) = rows[i] in (Z/mZ)^k.  Only prime m is
supported; every bundled example has m = 5.  A `CoverModel` is an arrangement,
a blow-up set and an epimorphism, certified smooth or not; `cover` reads it.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .jsonio import _is_int

if TYPE_CHECKING:
    from .arrangement import Arrangement

Vector = tuple[int, ...]


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, exact for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    if n >= 3317044064679887385961981:
        raise ValueError(f"{n} is past the range of the exact primality test")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in bases
    )


# -- linear algebra mod a prime ----------------------------------------------


def row_reduce(
    rows: list[Vector] | tuple[Vector, ...], p: int, cols: int
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of `rows` mod p, pivoting only in the first
    `cols` columns, left to right.

    Returns the reduced rows and the pivot columns: row r < len(pivots) has a
    1 at pivots[r] and 0 at every other pivot, and the later rows are zero in
    the first `cols` columns.  Columns past `cols` (say a right-hand side)
    are carried along by the row operations.
    """
    mat = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f:
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def rank_mod_p(rows: list[Vector] | tuple[Vector, ...], p: int) -> int:
    return len(row_reduce(rows, p, len(rows[0]) if rows else 0)[1])


def nullspace_mod_p(rows: list[Vector], p: int, unknowns: int) -> list[Vector]:
    """Basis of {x : rows . x = 0 mod p}; rows are equations over `unknowns`."""
    mat, pivots = row_reduce(rows, p, unknowns)
    basis = []
    for fc in (c for c in range(unknowns) if c not in pivots):
        v = [0] * unknowns
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-mat[r][fc]) % p
        basis.append(tuple(v))
    return basis


def solve_mod_p(
    rows: list[Vector] | tuple[Vector, ...], rhs: list[Vector], p: int
) -> tuple[Vector, ...] | None:
    """One solution X (k x w) of rows . X = rhs mod p, for n x k `rows` and
    n x w `rhs`, in one elimination; None if some column is inconsistent."""
    unknowns = len(rows[0])
    mat, pivots = row_reduce([tuple(r) + tuple(b) for r, b in zip(rows, rhs)], p, unknowns)
    if any(any(r[unknowns:]) for r in mat[len(pivots):]):
        return None
    x = [(0,) * len(rhs[0])] * unknowns
    for r, pc in enumerate(pivots):
        x[pc] = tuple(mat[r][unknowns:])
    return tuple(x)


# -- epimorphisms -------------------------------------------------------------


class _EpimorphismFields(NamedTuple):
    m: int
    k: int
    rows: tuple[Vector, ...]


class Epimorphism(_EpimorphismFields):
    """phi: H_1 -> (Z/mZ)^k given by rows[i] = phi(lambda_i).

    Construction refuses rows that are not an epimorphism: they must sum to
    zero (the relation of H_1) and have rank k mod m, so every instance made
    by calling the class is valid and no caller checks it again.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Epimorphism:
        phi = super().__new__(cls, *args, **kwargs)
        for name, value in (("m", phi.m), ("k", phi.k)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not is_prime(phi.m):
            raise ValueError(f"modulus {phi.m} is not prime")
        if phi.k < 1:
            raise ValueError(f"k must be at least 1, got {phi.k}")
        bad = next((x for r in phi.rows for x in r if not _is_int(x)), None)
        if bad is not None:
            raise ValueError(f"phi entries must be integers, got {bad!r}")
        if any(len(r) != phi.k for r in phi.rows):
            raise ValueError("row length does not match k")
        phi = phi._replace(rows=tuple(tuple(x % phi.m for x in r) for r in phi.rows))
        errors = []
        sums = tuple(sum(r[j] for r in phi.rows) % phi.m for j in range(phi.k))
        if any(sums):
            errors.append(f"row sums {sums} are not 0 mod {phi.m}")
        if rank_mod_p(phi.rows, phi.m) != phi.k:
            errors.append("rows do not generate (Z/mZ)^k")
        if errors:
            raise ValueError(f"invalid epimorphism: {tuple(errors)}")
        return phi

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def of_loops(self, indices: tuple[int, ...]) -> Vector:
        total = [0] * self.k
        for i in indices:
            for j in range(self.k):
                total[j] = (total[j] + self.rows[i][j]) % self.m
        return tuple(total)


# -- smoothness ----------------------------------------------------------------


def _independent(u: Vector, v: Vector, m: int) -> bool:
    """u, v in (Z/mZ)^k, m prime, span (Z/mZ)^2 iff some 2x2 minor is nonzero
    mod m; with k = 1 there is no minor and the pair is dependent."""
    return any((u[a] * v[b] - u[b] * v[a]) % m for a, b in combinations(range(len(u)), 2))


class PointCheck(NamedTuple):
    point_id: int
    incident_1based: tuple[int, ...]
    kind: str  # "blown" | "double" | "unresolved"
    ok: bool
    detail: str


class SmoothnessCertificate(NamedTuple):
    checks: tuple[PointCheck, ...]
    ok: bool

    def failures(self) -> tuple[PointCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def smoothness_check(
    arr: Arrangement, phi: Epimorphism, blown_ids: tuple[int, ...]
) -> SmoothnessCertificate:
    """Certify the cover smooth over every arrangement point.

    Blown points need each pair (phi(eps_p), phi(lambda_i)) independent for
    every incident line; unblown 2-fold points need the two line images
    independent; unblown points of higher multiplicity are failures.
    """
    if phi.n != arr.n:
        raise ValueError("epimorphism size does not match the arrangement")
    blown = set(blown_ids)
    checks: list[PointCheck] = []
    for pid, point in enumerate(arr.points):
        inc1 = point.incident_1based()
        if pid in blown:
            eps = phi.of_loops(point.incident)
            bad = [
                i + 1
                for i in point.incident
                if not _independent(eps, phi.rows[i], phi.m)
            ]
            ok = not bad
            detail = (
                f"phi(eps)={eps} independent with each incident line image"
                if ok
                else f"phi(eps)={eps} dependent with line(s) {bad}"
            )
            checks.append(PointCheck(pid, inc1, "blown", ok, detail))
        elif point.r == 2:
            i1, i2 = point.incident
            ok = _independent(phi.rows[i1], phi.rows[i2], phi.m)
            detail = f"({phi.rows[i1]}, {phi.rows[i2]}) " + (
                "independent" if ok else "dependent"
            )
            checks.append(PointCheck(pid, inc1, "double", ok, detail))
        else:
            checks.append(
                PointCheck(
                    pid,
                    inc1,
                    "unresolved",
                    False,
                    f"{point.r}-fold point left unblown",
                )
            )
    return SmoothnessCertificate(tuple(checks), all(c.ok for c in checks))


BLOW_ALL_TRIPLE = "all_r_ge_3"


def blown_point_ids(
    arr: Arrangement, phi: Epimorphism, blow: str | list[int] | tuple[int, ...]
) -> tuple[int, ...]:
    """The sorted point ids that `blow` names on arr, all points of
    multiplicity at least 3 for `BLOW_ALL_TRIPLE`; refuses phi with a row
    count other than arr's first, then a blow-up input that is not
    `BLOW_ALL_TRIPLE` or a list of point ids of arr."""
    if phi.n != arr.n:
        raise ValueError(
            f"epimorphism has {phi.n} rows but the arrangement has {arr.n} lines"
        )
    if blow == BLOW_ALL_TRIPLE:
        return tuple(pid for pid, p in enumerate(arr.points) if p.r >= 3)
    if isinstance(blow, (list, tuple)) and all(_is_int(b) for b in blow):
        blown = tuple(sorted(set(blow)))
        for pid in blown:
            if not 0 <= pid < len(arr.points):
                raise ValueError(f"blow-up id {pid} out of range")
        return blown
    raise ValueError(
        f"blow_up must be {BLOW_ALL_TRIPLE!r} or a list of integer point ids, "
        f"got {blow!r}"
    )


class CoverModel(NamedTuple):
    arrangement: Arrangement
    phi: Epimorphism
    blown_ids: tuple[int, ...]
    certificate: SmoothnessCertificate

    @classmethod
    def build(
        cls,
        arr: Arrangement,
        phi: Epimorphism,
        blow: str | list[int] | tuple[int, ...] = BLOW_ALL_TRIPLE,
    ) -> CoverModel:
        blown = blown_point_ids(arr, phi, blow)
        return cls(arr, phi, blown, smoothness_check(arr, phi, blown))

    @property
    def m(self) -> int:
        return self.phi.m

    @property
    def k(self) -> int:
        return self.phi.k

    def require_smooth(self) -> None:
        """Refuse a cover not certified smooth, naming each failing point by
        its lines as `cover smoothness` prints them, say `(1 2 3)`."""
        if not self.certificate.ok:
            bad = ", ".join(f"({' '.join(map(str, c.incident_1based))}): {c.detail}"
                            for c in self.certificate.failures())
            raise ValueError(f"cover is not certified smooth: {bad}")


# -- covering kernel -----------------------------------------------------------


def galois_kernel(phi: Epimorphism) -> tuple[Vector, ...]:
    """A basis of the kernel of the quotient map from the full (Z/mZ)^(n-1)
    cover onto the deck group (Z/mZ)^k: zero-sum n-vectors gamma with
    sum over i<n of rows[i][j]*gamma_i = 0 for all j."""
    n, m, k = phi.n, phi.m, phi.k
    equations = [tuple(phi.rows[i][j] for i in range(n - 1)) for j in range(k)]
    return tuple(
        tuple(v) + ((-sum(v)) % m,) for v in nullspace_mod_p(equations, m, n - 1)
    )
