"""Checks of planecover's JSON reports against computations made apart from
the program: the benchmark's own Q(zeta) geometry, its own linear algebra
mod p, Hirzebruch's closed forms and the twisted-cohomology count of real
structures.

Every check returns a list of error strings; an empty list means the report
passed.  A cover context is a dict with the keys `arrangement` (a name in
`inputs.ARRANGEMENTS`), `m`, `k` and `phi` (the rows the program was given).
"""

from __future__ import annotations

import functools
from collections import Counter

from . import qzeta as Q
from .inputs import ARRANGEMENTS
from .modp import coordinates, independent, rank

# Incidence automorphism groups of the two builtin configurations: the affine
# plane over F_3 (dual Hesse, collineation group AGL(2, 3)) and the complete
# quadrilateral (S_4 on its four base points).
AUTOMORPHISM_ORDERS = {"dual_hesse": 432, "complete_quadrilateral": 24}

Perm = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def geometry(name: str) -> tuple[list[Q.Vec], list[tuple[int, ...]]]:
    lines = ARRANGEMENTS[name]()
    return lines, Q.incidence(lines)


def parse_perm(text: str, n: int) -> Perm:
    perm = list(range(n))
    if text != "id":
        for cyc in text.strip("()").split(")("):
            items = [int(x) - 1 for x in cyc.split()]
            for a, b in zip(items, items[1:] + items[:1]):
                perm[a] = b
    return tuple(perm)


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _columns(ctx: dict) -> list[tuple[int, ...]]:
    phi = ctx["phi"]
    return [tuple(row[j] % ctx["m"] for row in phi) for j in range(ctx["k"])]


def _t_counts(points) -> Counter:
    return Counter(len(p) for p in points)


# -- arrangement and smoothness ------------------------------------------------


def check_arrangement(report: dict, name: str) -> list[str]:
    lines, points = geometry(name)
    errors = []
    got = [tuple(Q.parse(c) for c in row) for row in report["lines"]]
    if len(got) != len(lines) or not all(map(Q.same_projective, got, lines)):
        errors.append("lines differ from the defining equations")
    if report["n"] != len(lines):
        errors.append(f"n = {report['n']}, expected {len(lines)}")
    t = {str(r): c for r, c in sorted(_t_counts(points).items())}
    if report["t"] != t:
        errors.append(f"t = {report['t']}, expected {t}")
    own = sorted(tuple(i + 1 for i in p) for p in points)
    if sorted(tuple(p["lines"]) for p in report["points"]) != own:
        errors.append("incidence points differ")
    for p in report["points"]:
        x = tuple(Q.parse(c) for c in p["coords"])
        on = [i + 1 for i, line in enumerate(lines) if Q.is_zero(Q.dot(line, x))]
        if Q.is_zero_vec(x) or on != p["lines"] or p["r"] != len(on):
            errors.append(f"point {p['lines']} has coordinates off its lines")
    if sorted(map(tuple, report["triples"])) != [p for p in own if len(p) == 3]:
        errors.append("triple points differ")
    if "automorphism_order" in report and name in AUTOMORPHISM_ORDERS:
        if report["automorphism_order"] != AUTOMORPHISM_ORDERS[name]:
            errors.append(f"automorphism order {report['automorphism_order']}")
    return errors


def own_smoothness(ctx: dict) -> dict[tuple[int, ...], tuple[str, bool]]:
    """1-based point -> (kind, ok) by the 2x2-minor independence test, every
    point of multiplicity >= 3 blown up."""
    m, rows = ctx["m"], [tuple(r) for r in ctx["phi"]]
    out = {}
    for inc in geometry(ctx["arrangement"])[1]:
        key = tuple(i + 1 for i in inc)
        if len(inc) == 2:
            out[key] = ("double", independent(rows[inc[0]], rows[inc[1]], m))
        else:
            eps = tuple(sum(rows[i][j] for i in inc) % m for j in range(ctx["k"]))
            out[key] = ("blown", all(independent(eps, rows[i], m) for i in inc))
    return out


def check_smoothness(report: dict, ctx: dict) -> list[str]:
    own = own_smoothness(ctx)
    got = {tuple(c["point"]): (c["kind"], c["ok"]) for c in report["checks"]}
    errors = []
    if got != own:
        bad = sorted(p for p in set(own) | set(got) if own.get(p) != got.get(p))
        errors.append(f"smoothness checks differ at points {bad[:5]}")
    if report["smooth"] != all(ok for _, ok in own.values()):
        errors.append("smooth flag differs from the 2x2-minor test")
    return errors


# -- invariants ---------------------------------------------------------------------


def closed_forms(name: str, m: int, k: int) -> tuple[int, int]:
    """K^2 and e of the cover of P^2 blown up at every point of multiplicity
    r >= 3 (Hirzebruch): with n lines, f blown points and S = t_2 + sum r t_r
    nodes of the branch divisor,
      K^2 = m^(k-2) [ (n(m-1) - 3m)^2 - sum_{r>=3} t_r (m - (m-1)(r-1))^2 ]
      e   = m^(k-2) [ m^2 (3 - 2n - f + S) + 2m (n + f - S) + S ].
    """
    lines, points = geometry(name)
    n = len(lines)
    t = _t_counts(points)
    f = sum(c for r, c in t.items() if r >= 3)
    s = t.get(2, 0) + sum(r * c for r, c in t.items() if r >= 3)
    k2 = (n * (m - 1) - 3 * m) ** 2 - sum(
        c * (m - (m - 1) * (r - 1)) ** 2 for r, c in t.items() if r >= 3
    )
    e = m * m * (3 - 2 * n - f + s) + 2 * m * (n + f - s) + s
    scale = m ** (k - 2)
    return k2 * scale, e * scale


def check_invariants(report: dict, ctx: dict) -> list[str]:
    k2, e = closed_forms(ctx["arrangement"], ctx["m"], ctx["k"])
    errors = []
    if (report["k2"], report["euler"]) != (k2, e):
        errors.append(f"K^2, e = {report['k2']}, {report['euler']}; closed forms give {k2}, {e}")
    if (report["k2"] + report["euler"]) % 12:
        errors.append("Noether: K^2 + e is not divisible by 12")
    if report["chi"] * 12 != report["k2"] + report["euler"]:
        errors.append("chi != (K^2 + e)/12")
    if (report["m"], report["k"]) != (ctx["m"], ctx["k"]):
        errors.append("m, k differ from the input")
    return errors


# -- characters -------------------------------------------------------------------


def check_characters(report: dict, ctx: dict) -> list[str]:
    m, k = ctx["m"], ctx["k"]
    n = len(ctx["phi"])
    cols = _columns(ctx)
    vectors = [tuple(c["vector"]) for c in report["characters"]]
    chars = set(vectors)
    errors = []
    if report["count"] != m ** k or len(vectors) != m ** k or len(chars) != m ** k:
        errors.append(f"{len(chars)} distinct characters, expected m^k = {m ** k}")
    if rank(cols, m) != k:
        errors.append("phi has rank < k")
    if any(len(a) != n or sum(a) % m or not all(0 <= x < m for x in a) for a in chars):
        errors.append("a character is not a reduced zero-sum vector")
    if (0,) * n not in chars:
        errors.append("the zero character is missing")
    # closed under adding each generator, holds 0 and has m^k elements:
    # exactly the span of phi's columns, a subgroup of order m^k
    for col in cols:
        if any(tuple((x + y) % m for x, y in zip(a, col)) not in chars for a in chars):
            errors.append("the set is not closed under adding a column of phi")
            break
    profiles = {a: tuple(Counter(a).get(r, 0) for r in range(m)) for a in chars}
    if any(tuple(c["profile"]) != profiles.get(tuple(c["vector"])) for c in report["characters"]):
        errors.append("a residue profile is wrong")
    freq = Counter(profiles.values())
    unique = sorted(a for a, p in profiles.items() if freq[p] == 1)
    if sorted(map(tuple, report["profile_unique"])) != unique:
        errors.append("profile-unique characters differ")
    return errors


# -- symmetries --------------------------------------------------------------------


def own_deck_action(perm: Perm, anti: bool, ctx: dict) -> list[tuple[int, ...]] | None:
    """Row i: the coordinates of the pulled-back column i of phi in the
    column basis, negated for an anti-holomorphic symmetry."""
    m, cols = ctx["m"], _columns(ctx)
    eps = -1 if anti else 1
    out = []
    for col in cols:
        c = coordinates(cols, tuple(col[perm[x]] for x in range(len(perm))), m)
        if c is None:
            return None
        out.append(tuple(eps * v % m for v in c))
    return out


def _is_incidence_automorphism(perm: Perm, points) -> bool:
    sets = {frozenset(p) for p in points}
    return all(frozenset(perm[i] for i in p) in sets for p in points)


def _parse_matrix(rows) -> tuple[Q.Vec, Q.Vec, Q.Vec]:
    return tuple(tuple(Q.parse(x) for x in row) for row in rows)  # type: ignore[return-value]


def realized_group(report: dict, n: int) -> dict[tuple[Perm, bool], dict]:
    return {(parse_perm(r["perm"], n), r["anti"]): r for r in report["realized"]}


def check_symmetry(report: dict, ctx: dict, autos_order: int | None = None) -> list[str]:
    m, k = ctx["m"], ctx["k"]
    lines, points = geometry(ctx["arrangement"])
    n = len(lines)
    errors = []
    preserving = [parse_perm(s, n) for s in report["character_preserving"]]
    for perm in preserving:
        if not _is_incidence_automorphism(perm, points):
            errors.append(f"{perm} does not preserve incidence")
        elif own_deck_action(perm, False, ctx) is None:
            errors.append(f"{perm} does not preserve the character set")
    pset = set(preserving)
    if any(compose(p, q) not in pset for p in pset for q in pset):
        errors.append("character-preserving permutations are not a group")
    autos = report["combinatorial_automorphisms"]
    if autos % max(len(pset), 1) or (autos_order is not None and autos != autos_order):
        errors.append(f"automorphism count {autos} is inconsistent")
    group = realized_group(report, n)
    rejected = {(parse_perm(r["perm"], n), r["anti"]) for r in report["combinatorial_only"]}
    if set(group) | rejected != {(p, a) for p in pset for a in (False, True)} or set(group) & rejected:
        errors.append("realized and combinatorial-only do not split the candidates")
    if (tuple(range(n)), False) not in group:
        errors.append("the identity is not realized")
    if any((compose(p1, p2), a1 != a2) not in group for p1, a1 in group for p2, a2 in group):
        errors.append("realized symmetries are not closed under composition")
    for (perm, anti), r in group.items():
        mat = _parse_matrix(r["matrix"])
        if Q.is_zero(Q.det(mat)):
            errors.append(f"singular matrix for {r['perm']}")
            continue
        for i, line in enumerate(lines):
            src = Q.conj_vec(line) if anti else line
            if not Q.same_projective(Q.matvec(mat, src), lines[perm[i]]):
                errors.append(f"matrix of {r['perm']} (anti={anti}) misses line {i + 1}")
                break
        if [tuple(row) for row in r["deck_action"]] != own_deck_action(perm, anti, ctx):
            errors.append(f"deck action of {r['perm']} (anti={anti}) differs")
    if report["klein_order"] != m ** k * len(group):
        errors.append(f"Klein order {report['klein_order']} != m^k |H| = {m ** k * len(group)}")
    if report["has_anti"] != any(a for _, a in group):
        errors.append("has_anti flag is wrong")
    return errors


# -- real structures ----------------------------------------------------------------


def own_real_classes(sym_report: dict, ctx: dict) -> list[tuple[frozenset, int]]:
    """(perms of the H-class, class size) for each class of real structures.

    For odd m the classes are the H-conjugacy classes of anti-holomorphic
    involutions sigma of H, of size |sigma^H| * m^dim ker(1 + A_sigma).
    """
    m, k = ctx["m"], ctx["k"]
    n = len(ctx["phi"])
    group = realized_group(sym_report, n)
    ident = tuple(range(n))
    done: set = set()
    out = []
    for (perm, anti) in sorted(group):
        if not anti or compose(perm, perm) != ident or perm in done:
            continue
        orbit = frozenset(compose(compose(t, perm), invert(t)) for t, _ in group)
        done |= orbit
        a = own_deck_action(perm, True, ctx)
        one_plus_a = [tuple((a[i][j] + (i == j)) % m for j in range(k)) for i in range(k)]
        out.append((orbit, len(orbit) * m ** (k - rank(one_plus_a, m))))
    return out


def _real_blown(ctx: dict, matrix) -> list[list[int]]:
    """1-based blown points fixed by x -> cof(M) conj(x), cof(M) ~ M^-T."""
    lines, points = geometry(ctx["arrangement"])
    cof = Q.inverse_transpose_adj(_parse_matrix(matrix))
    fixed = []
    for inc in points:
        if len(inc) >= 3:
            x = Q.point_coords(lines, inc)
            if Q.same_projective(Q.matvec(cof, Q.conj_vec(x)), x):
                fixed.append([i + 1 for i in inc])
    return fixed


def check_real(report: dict, ctx: dict, sym_report: dict) -> list[str]:
    m, k = ctx["m"], ctx["k"]
    n = len(ctx["phi"])
    group = realized_group(sym_report, n)
    own = own_real_classes(sym_report, ctx)
    errors = []
    if report["klein_order"] != m ** k * len(group):
        errors.append("Klein order differs from the symmetry search")
    if report["class_count"] != len(own) or len(report["classes"]) != len(own):
        errors.append(f"{report['class_count']} classes, twisted cohomology gives {len(own)}")
    if sorted(c["size"] for c in report["classes"]) != sorted(s for _, s in own):
        errors.append("class sizes differ from |sigma^H| m^dim ker(1 + A)")
    matched = set()
    for c in report["classes"]:
        perm = parse_perm(c["perm"], n)
        hit = [i for i, (orbit, size) in enumerate(own) if perm in orbit and size == c["size"]]
        if not hit or hit[0] in matched:
            errors.append(f"class {c['perm']} matches no H-class of its size")
            continue
        matched.add(hit[0])
        if c["fixed_lines"] != [i + 1 for i in range(n) if perm[i] == i]:
            errors.append(f"fixed lines of {c['perm']} are wrong")
        real = _real_blown(ctx, group[(perm, True)]["matrix"])
        if sorted(c["real_blown_points"]) != sorted(real):
            errors.append(f"real blown points of {c['perm']} differ")
        nr = len(real)
        if (c["real_part_euler"], c["real_part_betti"]) != (1 - nr, [1, 1 + nr, 1]):
            errors.append(f"real-part topology of {c['perm']} is wrong")
    return errors


# -- bounds and paper verify ---------------------------------------------------------


def check_bounds(report: dict, hodge: dict, k3: int) -> list[str]:
    """Noether and Hodge arithmetic for a surface with q = nu = 0."""
    k2, e = hodge["k2"], hodge["euler"]
    pg = (k2 + e) // 12 - 1
    h11 = e - 2 - 2 * pg
    comps = hodge["components"]
    real_total = sum(map(sum, comps))
    smith = 2 + 2 * pg + h11
    p_plus, p_minus = hodge["p_plus"], hodge["p_minus"]
    expected = {
        "hodge": {"h10": 0, "h20": pg, "h11": h11, "nu": 0},
        "smith_total": smith,
        "my_identity": h11 == pg + 1,
        "real_betti_total": real_total,
        "maximal": real_total == smith,
        "lefschetz_trace": sum(b0 - b1 + b2 for b0, b1, b2 in comps) - 1,
        "h20_lower_bound": 5 * p_plus + 4,
    }
    errors = [
        f"{key} = {report.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    # a maximal real part with k3 N3-components needs
    # h11 + p_minus >= 2 h11 + 2 p_plus + 2 - k3
    feasible = h11 + p_minus >= 2 * h11 + 2 * p_plus + 2 - k3
    cc = report.get("component_count", {})
    if cc.get("k3") != k3 or cc.get("feasible") != feasible:
        errors.append(f"component count verdict {cc} for k3 = {k3}")
    return errors


def check_verify(report: dict) -> list[str]:
    if report.get("ok") is not True or report.get("mismatch_count") != 0:
        return [f"paper verify reports {report.get('mismatch_count')} mismatches"]
    return []
