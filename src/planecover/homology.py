"""First homology of the arrangement complement, mod-m epimorphisms, exceptional
loop classes, the blown plane, smoothness certificates, covers, and the
covering kernel.

Loops lambda_1..lambda_n around the lines generate H_1 subject to the single
relation sum(lambda_i) = 0.  A branched abelian cover is encoded by the n x k
residue matrix phi with phi(lambda_i) = rows[i] in (Z/mZ)^k.  Only prime m is
supported; every bundled example has m = 5.  A `CoverModel` is an arrangement,
a blow-up set and an epimorphism, certified smooth or not.  Everything it
needs of the blown plane Y is one record, `BlownPlane`, made once per
arrangement, blow-up set, m and k and kept on the arrangement: the blown
points in curve order, the blown points on each line, the pairs of branch
curves that cross over each point, and the records `cover` makes from the
plane alone.  It is the only code that turns blown point ids into points.
A cover keeps no copy of it: `smoothness_check` and the genus checks of
`cover.invariants` pair its crossings with phi's images of its curves
(`BlownPlane.images`, `BlownPlane.meeting`), and `cover`, `intersection`,
`symmetry` and `cli` read its blown points.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, cached_property
from itertools import chain, combinations
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from .jsonio import _is_int

if TYPE_CHECKING:
    from .arrangement import Arrangement
    from .symmetry import KleinModel

Vector = tuple[int, ...]
T = TypeVar("T")


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


@cache
def _minors(k: int) -> tuple[tuple[int, int], ...]:
    """The column pairs of the 2x2 minors of k columns, built once per k:
    `_independent` runs for every crossing of every cover built."""
    return tuple(combinations(range(k), 2))


def _independent(u: Vector, v: Vector, m: int) -> bool:
    """u, v in (Z/mZ)^k, m prime, span (Z/mZ)^2 iff some 2x2 minor is nonzero
    mod m; with k = 1 there is no minor and the pair is dependent."""
    for a, b in _minors(len(u)):
        if (u[a] * v[b] - u[b] * v[a]) % m:
            return True
    return False


class BlownPlane:
    """The plane Y blown up at `blown_ids`, as every cover of one arrangement
    with that blow-up set and deck group (Z/mZ)^k sees it, and the one place
    that reads which point a blown id names: nothing here reads phi.
    `blown_plane` keeps one per (blown_ids, m, k) on the arrangement, so the
    covers of one shape share it.

    The branch curves of Y are numbered c < n for the strict transform of
    line c and n + b for the exceptional curve E_p of `blown_points[b]`, the
    b-th blown point.  `on_line[i]` lists the b of the blown points on line i.
    `crossings[pid]` lists the pairs of curves that cross over arrangement
    point pid: (n + b, i) for each line i through a blown p, the two lines
    at an unblown double point, and none at an unblown point of
    multiplicity >= 3, which Y leaves unresolved.  `record(make)` is
    make(plane), made the first time it is asked for and kept: `cover`'s
    invariants and 3K records, which read the plane alone.
    """

    def __init__(self, arr: Arrangement, blown_ids: tuple[int, ...], m: int, k: int) -> None:
        self.arrangement, self.blown_ids, self.m, self.k = arr, blown_ids, m, k
        self.blown_points = tuple(arr.points[pid] for pid in blown_ids)
        index = {pid: b for b, pid in enumerate(blown_ids)}
        on_line: list[list[int]] = [[] for _ in range(arr.n)]
        crossings = []
        for pid, p in enumerate(arr.points):
            if pid in index:
                crossings.append(tuple((arr.n + index[pid], i) for i in p.incident))
                for i in p.incident:
                    on_line[i].append(index[pid])
            else:
                crossings.append((p.incident,) if p.r == 2 else ())
        self.crossings, self.on_line = tuple(crossings), tuple(map(tuple, on_line))
        self._records: dict[Callable, object] = {}

    def images(self, phi: Epimorphism) -> tuple[Vector, ...]:
        """phi of each curve's loop: the row of a line, and for E_p the sum
        of the rows of the lines through p."""
        return (*phi.rows, *(phi.of_loops(p.incident) for p in self.blown_points))

    def meeting(self, phi: Epimorphism) -> list[list[Vector]]:
        """For each curve, its image and then those of the curves crossing it."""
        images = self.images(phi)
        meeting = [[image] for image in images]
        for a, b in chain.from_iterable(self.crossings):
            meeting[a].append(images[b])
            meeting[b].append(images[a])
        return meeting

    def record(self, make: Callable[[BlownPlane], T]) -> T:
        """make(self), kept from its first call; a plane that make refuses
        is refused again on every call, since a refusal is not kept."""
        if make not in self._records:
            self._records[make] = make(self)
        return self._records[make]


def blown_plane(arr: Arrangement, blown_ids: tuple[int, ...], m: int, k: int) -> BlownPlane:
    """The blown plane that `arr` keeps for (blown_ids, m, k), made on first
    use (`Arrangement._planes`)."""
    key = (tuple(blown_ids), m, k)
    planes = arr._planes
    if key not in planes:
        planes[key] = BlownPlane(arr, *key)
    return planes[key]


class PointCheck(NamedTuple):
    incident_1based: tuple[int, ...]
    kind: str  # "blown" | "double" | "unresolved"
    ok: bool
    detail: str


class SmoothnessCertificate(NamedTuple):
    checks: tuple[PointCheck, ...]
    ok: bool

    def failures(self) -> tuple[PointCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def smoothness_check(plane: BlownPlane, phi: Epimorphism) -> SmoothnessCertificate:
    """Certify the cover smooth over every arrangement point, reading the
    crossings of `plane` and phi's images of its curves.

    Each crossing needs the images of its two curves independent: at a
    blown point phi(eps_p) with each incident line's image, at an unblown
    double point the two line images.  An unblown point of higher
    multiplicity has no crossing pairs and is a failure.
    """
    arr = plane.arrangement
    if phi.n != arr.n:
        raise ValueError("epimorphism size does not match the arrangement")
    images, m = plane.images(phi), phi.m
    checks: list[PointCheck] = []
    for point, pairs in zip(arr.points, plane.crossings):
        inc1 = point.incident_1based()
        if not pairs:
            checks.append(PointCheck(inc1, "unresolved", False, f"{point.r}-fold point left unblown"))
        elif pairs[0][0] >= arr.n:  # E_p crosses each line through p
            eps = images[pairs[0][0]]
            bad = [i + 1 for _, i in pairs if not _independent(eps, images[i], m)]
            detail = f"dependent with line(s) {bad}" if bad else "independent with each incident line image"
            checks.append(PointCheck(inc1, "blown", not bad, f"phi(eps)={eps} {detail}"))
        else:
            ((i1, i2),) = pairs
            ok = _independent(images[i1], images[i2], m)
            detail = f"({images[i1]}, {images[i2]}) " + ("independent" if ok else "dependent")
            checks.append(PointCheck(inc1, "double", ok, detail))
    return SmoothnessCertificate(tuple(checks), all(c.ok for c in checks))


BLOW_ALL_TRIPLE = "all_r_ge_3"


class _CoverFields(NamedTuple):
    arrangement: Arrangement
    phi: Epimorphism
    blown_ids: tuple[int, ...]
    certificate: SmoothnessCertificate


class CoverModel(_CoverFields):
    """A cover, equal and hashed by its fields.  The subclass has no
    `__slots__`, so an instance keeps a `__dict__` for its Klein model,
    built on first use."""

    @classmethod
    def build(
        cls,
        arr: Arrangement,
        phi: Epimorphism,
        blow: str | list[int] | tuple[int, ...] = BLOW_ALL_TRIPLE,
    ) -> CoverModel:
        """The cover with the points `blow` names blown up: all points of
        multiplicity at least 3 for `BLOW_ALL_TRIPLE`, else a list of point
        ids of arr.  Refuses phi with a row count other than arr's first,
        then any other blow-up input."""
        if phi.n != arr.n:
            raise ValueError(
                f"epimorphism has {phi.n} rows but the arrangement has {arr.n} lines"
            )
        if blow == BLOW_ALL_TRIPLE:
            blown = tuple(pid for pid, p in enumerate(arr.points) if p.r >= 3)
        elif isinstance(blow, (list, tuple)) and all(_is_int(b) for b in blow):
            blown = tuple(sorted(set(blow)))
            for pid in blown:
                if not 0 <= pid < len(arr.points):
                    raise ValueError(f"blow-up id {pid} out of range")
        else:
            raise ValueError(
                f"blow_up must be {BLOW_ALL_TRIPLE!r} or a list of integer point ids, "
                f"got {blow!r}"
            )
        return cls(arr, phi, blown, smoothness_check(blown_plane(arr, blown, phi.m, phi.k), phi))

    @property
    def plane(self) -> BlownPlane:
        """The blown plane under this cover, kept on its arrangement."""
        return blown_plane(self.arrangement, self.blown_ids, self.m, self.k)

    @property
    def m(self) -> int:
        return self.phi.m

    @property
    def k(self) -> int:
        return self.phi.k

    @cached_property
    def klein_model(self) -> KleinModel:
        """`symmetry.klein_model(self)`, built the first time it is read and
        kept by this cover; a cover it refuses is refused on every read."""
        from . import symmetry

        return symmetry.klein_model(self)

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
