"""Seeded inputs: the line arrangements, smooth epimorphisms and the three
query streams.

Every arrangement is written out here from its defining equations over
Q(zeta), zeta = exp(pi i/3); nothing is read back from planecover.  A seed
only changes inputs in ways that keep each query's work the same size:
a basis change of (Z/m)^k on the paper and Kummer covers (same cover, same
character set, relabelled deck group), and fresh draws of smooth
epimorphisms of one fixed shape on the census arrangements.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from . import qzeta as Q
from .modp import independent, rank

M = 5  # covering degree of every cover but the full Kummer rung

Rows = list[tuple[int, ...]]


def _line(*coeffs: int) -> Q.Vec:
    return tuple((Fraction(c), Fraction(0)) for c in coeffs)  # type: ignore[return-value]


def _roots(order: int) -> list[Q.Num]:
    """The order-th roots of unity, order dividing 6."""
    return [Q.power(Q.ZETA, 6 // order * j) for j in range(order)]


def dual_hesse_lines() -> list[Q.Vec]:
    """x1 - x3, x1 - mu^2 x3, x1 + mu x3, the same in (x2, x3), and
    x1 + mu x2, x1 - mu^2 x2, x1 - x2 (mu = zeta); the order of the
    builtin `dual_hesse`."""
    mu = Q.ZETA
    mu2 = Q.mul(mu, mu)
    one, zero = Q.ONE, Q.ZERO
    return [
        (one, zero, Q.neg(one)), (one, zero, Q.neg(mu2)), (one, zero, mu),
        (zero, one, Q.neg(mu2)), (zero, one, Q.neg(one)), (zero, one, mu),
        (one, mu, zero), (one, Q.neg(mu2), zero), (one, Q.neg(one), zero),
    ]


def quadrilateral_lines() -> list[Q.Vec]:
    """The six lines through [1:0:0], [0:1:0], [0:0:1] and [1:1:1], in the
    order of the builtin `complete_quadrilateral`."""
    return [_line(0, 0, 1), _line(0, 1, 0), _line(0, 1, -1),
            _line(1, -1, 0), _line(1, 0, -1), _line(1, 0, 0)]


def hesse_lines() -> list[Q.Vec]:
    """The 12 lines through the 9 flexes of x^3 + y^3 + z^3: xyz = 0 and
    x + a y + b z = 0 with a^3 = b^3 = 1.  t2 = 12, t4 = 9."""
    out = [_line(1, 0, 0), _line(0, 1, 0), _line(0, 0, 1)]
    out += [(Q.ONE, a, b) for a in _roots(3) for b in _roots(3)]
    return out


def ceva6_lines() -> list[Q.Vec]:
    """xyz (x^6 - y^6)(y^6 - z^6)(z^6 - x^6) = 0: 21 lines with t2 = 18,
    t3 = 36, t8 = 3 (Hirzebruch 1983)."""
    out = [_line(1, 0, 0), _line(0, 1, 0), _line(0, 0, 1)]
    for r in _roots(6):
        out += [(Q.ONE, Q.neg(r), Q.ZERO), (Q.ZERO, Q.ONE, Q.neg(r)), (Q.neg(r), Q.ZERO, Q.ONE)]
    return out


ARRANGEMENTS = {
    "dual_hesse": dual_hesse_lines,
    "complete_quadrilateral": quadrilateral_lines,
    "hesse": hesse_lines,
    "ceva6": ceva6_lines,
}


def arrangement_json(lines: list[Q.Vec]) -> dict:
    return {"lines": [[Q.fmt(c) for c in line] for line in lines]}


def conjugation_perm(lines: list[Q.Vec]) -> tuple[int, ...]:
    """The line permutation induced by complex conjugation of coefficients."""
    return tuple(
        next(j for j, other in enumerate(lines) if Q.same_projective(Q.conj_vec(line), other))
        for line in lines
    )


# -- epimorphisms -----------------------------------------------------------------


def smooth(rows: Rows, points: list[tuple[int, ...]], m: int) -> bool:
    """Independence at every point, all points of multiplicity >= 3 blown up."""
    for inc in points:
        if len(inc) == 2:
            if not independent(rows[inc[0]], rows[inc[1]], m):
                return False
        else:
            eps = tuple(sum(col) % m for col in zip(*(rows[i] for i in inc)))
            if not all(independent(eps, rows[i], m) for i in inc):
                return False
    return True


def random_gl(rng: random.Random, k: int, m: int) -> Rows:
    while True:
        a = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(k)]
        if rank(a, m) == k:
            return a


def change_basis(rows: Rows, a: Rows, m: int) -> Rows:
    """phi . A: the same cover with the deck group relabelled by A."""
    k = len(a)
    return [tuple(sum(r[t] * a[t][j] for t in range(k)) % m for j in range(k)) for r in rows]


def draw_epimorphism(
    rng: random.Random,
    points: list[tuple[int, ...]],
    k: int,
    m: int,
    pi: tuple[int, ...] | None = None,
) -> Rows:
    """A smooth epimorphism onto (Z/m)^k drawn by randomized depth-first
    search over its rows, restarted after 50 nodes (short restarts avoid
    the search's heavy tail).

    With a line permutation `pi` the rows satisfy row[pi(i)] = row[i] B for
    B = diag(1, ..., 1, -1), so permuting coordinates by pi maps the column
    span of phi, the character set, to itself.  Lines fixed by pi take rows
    in a hyperplane; a swapped pair stays independent unless its row is an
    eigenvector of B.
    """
    n = 1 + max(max(p) for p in points)
    perm = pi or tuple(range(n))
    orbit = {i: {i, perm[i]} for i in range(n) if perm[i] >= i}
    # assign line orbits greedily so that points complete as early as possible
    order: list[int] = []
    assigned: set[int] = set()
    while len(order) < len(orbit):
        best = max(
            (i for i in orbit if i not in order),
            key=lambda i: (sum(set(p) <= assigned | orbit[i] for p in points), -i),
        )
        order.append(best)
        assigned |= orbit[best]
    complete_at: dict[int, list[tuple[int, ...]]] = {}
    for p in points:
        complete_at.setdefault(max(order.index(min(i, perm[i])) for i in p), []).append(p)
    candidates = [tuple((x // m ** j) % m for j in range(k)) for x in range(1, m ** k)]

    def image(row: tuple[int, ...]) -> tuple[int, ...]:
        return row if pi is None else row[:-1] + ((-row[-1]) % m,)

    def assign(t: int) -> bool:
        nonlocal budget
        if t == len(order):
            return rank(rows, m) == k and not any(sum(col) % m for col in zip(*rows))
        budget -= 1
        if budget < 0:
            return False
        i = order[t]
        options = rng.sample(candidates, len(candidates))
        if pi is None and t == len(order) - 1:
            # the zero-sum relation fixes the last row
            forced = tuple(-sum(col) % m for col in zip(*(r for r in rows if r)))
            options = [forced] if any(forced) else []
        for row in options:
            if perm[i] == i and image(row) != row:
                continue
            rows[i], rows[perm[i]] = row, image(row)
            if smooth(rows, complete_at.get(t, []), m) and assign(t + 1):
                return True
        rows[i] = rows[perm[i]] = None
        return False

    for _ in range(5000):
        rows: list = [None] * n
        budget = 50
        if assign(0):
            return rows
    raise ValueError("no smooth epimorphism of this shape")


# -- query streams ------------------------------------------------------------------

# the paper's epimorphisms onto (Z/5)^2
PAPER_COVERS = {
    "example1": ("dual_hesse", [(1, 1), (1, 0), (1, 1), (3, 3), (3, 0), (0, 1), (0, 1), (0, 2), (1, 1)]),
    "example2": ("dual_hesse", [(0, 1), (1, 0), (1, 0), (0, 1), (1, 0), (0, 1), (1, 2), (1, 2), (0, 3)]),
    "example3": ("complete_quadrilateral", [(1, 0), (1, 0), (1, 2), (0, 1), (0, 1), (2, 1)]),
}
# the Kummer rungs (m, phi): epimorphisms onto (Z/5)^k for k = 2, 3, 4, and the
# full Kummer cover over Z/3, phi an isomorphism H_1 -> (Z/3)^5 with
# |G| = 3^5 * 48 = 11664.  The (Z/5)^5 full Kummer cover (|G| = 150000) is left
# out: its one `real classify` takes about 25 s, a single sample per run that
# no measurement of the machine's speed around it corrects (README.md).
KUMMER_RUNGS = {
    2: (M, PAPER_COVERS["example3"][1]),
    3: (M, [(1, 4, 3), (2, 3, 0), (3, 0, 2), (4, 4, 4), (3, 1, 1), (2, 3, 0)]),
    4: (M, [(4, 1, 0, 1), (4, 4, 1, 3), (4, 2, 4, 2), (3, 2, 4, 4), (0, 3, 4, 1), (0, 3, 2, 4)]),
    5: (3, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (2, 2, 2, 2, 2)]),
}
COVER_QUERIES = ("cover smoothness", "cover invariants", "characters list", "symmetry search", "real classify")
CENSUS_QUERIES = ("cover smoothness", "cover invariants", "symmetry search", "real classify")
CENSUS_ARRANGEMENTS = ("dual_hesse", "hesse", "ceva6")
WARMUP = ["cover", "invariants", "builtin:example3"]


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def _query(kind: str, cover: str, ctx: dict, argv: list[str], rdir: str) -> dict:
    out = os.path.join(rdir, f"{cover}.{kind.replace(' ', '_')}.json")
    return {"kind": kind, "cover": cover, "ctx": ctx, "argv": ["--format", "json", *argv], "out": out}


def _cover_queries(cover: str, ctx: dict, kinds, work: str, rdir: str) -> list[dict]:
    name = ctx["arrangement"]
    spec = os.path.join(work, f"{cover}.json")
    _write(spec, {
        "arrangement": f"builtin:{name}" if name in ("dual_hesse", "complete_quadrilateral")
        else arrangement_json(ARRANGEMENTS[name]()),
        "m": ctx["m"], "k": ctx["k"], "phi": [list(r) for r in ctx["phi"]],
    })
    return [_query(kind, cover, ctx, [*kind.split(), spec], rdir) for kind in kinds]


def stream(workload: str, seed: int, rnd: int, work: str, reports: str) -> list[dict]:
    """The queries of round `rnd`, with the context the checks need.

    Input files go to `work`, reports to `work/<reports><rnd>`.  Paper and
    Kummer rounds repeat one stream; every census round draws fresh
    epimorphisms, so a repeated round never repeats a query.
    """
    rdir = os.path.join(work, f"{reports}{rnd}")
    os.makedirs(rdir, exist_ok=True)
    queries: list[dict] = []
    if workload == "census":
        rng = random.Random(f"census-{seed}-{rnd}")
        for name in CENSUS_ARRANGEMENTS:
            lines = ARRANGEMENTS[name]()
            points = Q.incidence(lines)
            for label, k, pi in (("generic", 2, None), ("real", 3, conjugation_perm(lines))):
                ctx = {"arrangement": name, "m": M, "k": k, "phi": draw_epimorphism(rng, points, k, M, pi)}
                queries += _cover_queries(f"r{rnd}-{name}-{label}", ctx, CENSUS_QUERIES, work, rdir)
        return queries

    rng = random.Random(f"{workload}-{seed}")
    if workload == "paper":
        for name in ("dual_hesse", "complete_quadrilateral"):
            argv = ["arrangement", "info", f"builtin:{name}", "--autos"]
            queries.append(_query("arrangement info", name, {"arrangement": name}, argv, rdir))
        covers = [(label, arr, M, rows) for label, (arr, rows) in PAPER_COVERS.items()]
    else:
        covers = [(f"kummer{k}", "complete_quadrilateral", m, rows) for k, (m, rows) in KUMMER_RUNGS.items()]
    for label, arr, m, rows in covers:
        k = len(rows[0])
        ctx = {"arrangement": arr, "m": m, "k": k, "phi": change_basis(rows, random_gl(rng, k, m), m)}
        queries += _cover_queries(label, ctx, COVER_QUERIES, work, rdir)
    if workload == "paper":
        p_plus = rng.randrange(4)
        hodge = {"k2": 333, "euler": 111, "p_plus": p_plus, "p_minus": 36 - p_plus,
                 "components": [[1, 5, 1]]}
        k3 = rng.randrange(3)
        path = os.path.join(work, "hodge.json")
        _write(path, hodge)
        ctx = {"hodge": hodge, "k3": k3}
        queries.append(_query("bounds check", "example2", ctx, ["bounds", "check", path, "--k3", str(k3)], rdir))
        queries.append(_query("paper verify", "paper", {}, ["paper", "verify"], rdir))
    return queries
