"""Bundled arrangements, epimorphisms, and cover specifications.

The three builtin covers pair the two builtin arrangements with fixed
(Z/5Z)^2-valued epimorphisms; every blown-up point set defaults to all
points of multiplicity at least 3.  A cover is resolved to a `CoverModel`.

An arrangement is built once per process for each builtin name or tuple of
line coefficient strings (`_arrangement`), and the one object is shared by
every query that names it, with its search state (`search.SearchState`,
built on first use).  It must not be mutated.

The last cover resolved is kept (`_kept`), builtin or from a file, so the
commands on one cover in a row certify smoothness once and, since a cover
keeps its own Klein model (`CoverModel.klein_model`), build one model.  A
cover is found again by its validated content: the shared arrangement, the
normalized epimorphism and the blown point ids, never a file path.  One
cover is kept: the commands on a cover come in a row, and a second cover
replaces the first.
"""

from __future__ import annotations

from functools import lru_cache

from .arrangement import Arrangement, Line, build_arrangement, complete_quadrilateral, dual_hesse
from .homology import BLOW_ALL_TRIPLE, CoverModel, Epimorphism, blown_point_ids
from .jsonio import read_json, require_object

PHI1 = Epimorphism(
    m=5,
    k=2,
    rows=(
        (1, 1), (1, 0), (1, 1),
        (3, 3), (3, 0), (0, 1),
        (0, 1), (0, 2), (1, 1),
    ),
)

PHI2 = Epimorphism(
    m=5,
    k=2,
    rows=(
        (0, 1), (1, 0), (1, 0),
        (0, 1), (1, 0), (0, 1),
        (1, 2), (1, 2), (0, 3),
    ),
)

PHI3 = Epimorphism(
    m=5,
    k=2,
    rows=(
        (1, 0), (1, 0), (1, 2),
        (0, 1), (0, 1), (2, 1),
    ),
)

_ARRANGEMENTS = {
    "dual_hesse": dual_hesse,
    "complete_quadrilateral": complete_quadrilateral,
}

_COVERS = {
    "example1": ("dual_hesse", PHI1),
    "example2": ("dual_hesse", PHI2),
    "example3": ("complete_quadrilateral", PHI3),
}


# distinct arrangements kept built; the least recently used one goes first
ARRANGEMENT_MEMO_SIZE = 16

LineStrings = tuple[tuple[str, str, str], ...]


@lru_cache(maxsize=ARRANGEMENT_MEMO_SIZE)
def _arrangement(key: str | LineStrings) -> Arrangement:
    """The arrangement of a builtin name or of validated line coefficient
    strings.  Never keyed by a file path, whose content can change; an
    input that raises is not remembered, so it raises again."""
    if isinstance(key, str):
        return _ARRANGEMENTS[key]()
    return build_arrangement([Line.parse(row) for row in key])


def builtin_arrangement(name: str) -> Arrangement:
    if name not in _ARRANGEMENTS:
        raise ValueError(
            f"unknown builtin arrangement {name!r}; "
            f"available: {sorted(_ARRANGEMENTS)}"
        )
    return _arrangement(name)


def _line_strings(data: dict) -> LineStrings:
    rows = data.get("lines") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise ValueError("arrangement JSON needs a 'lines' array")
    for idx, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise ValueError(f"lines[{idx}] must be 3 coefficient strings, got {row!r}")
    return tuple(tuple(row) for row in rows)


# the last cover resolved
_kept: CoverModel | None = None


def _cover(arr: Arrangement, phi: Epimorphism, blow: str | list[int]) -> CoverModel:
    """The cover of the shared arrangement arr, certified only if it is not
    the kept cover.  The row count and the blow-up input are validated
    first, so a malformed cover is refused the same way whether or not a
    cover is kept."""
    global _kept
    blown = blown_point_ids(arr, phi, blow)
    kept = _kept
    # arr is the one object the arrangement memo holds for its key, so an
    # evicted and rebuilt arrangement gives a new cover
    if kept is not None and kept.arrangement is arr and kept.phi == phi and kept.blown_ids == blown:
        return kept
    _kept = CoverModel.build(arr, phi, blown)
    return _kept


def builtin_cover(name: str) -> CoverModel:
    try:
        arr_name, phi = _COVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin cover {name!r}; available: {sorted(_COVERS)}"
        ) from None
    return _cover(builtin_arrangement(arr_name), phi, BLOW_ALL_TRIPLE)


def resolve_arrangement(ref: str | dict) -> Arrangement:
    """Accept 'builtin:<name>', a JSON file path, or an inline JSON object;
    the arrangement is shared (`_arrangement`)."""
    if isinstance(ref, str) and ref.startswith("builtin:"):
        return builtin_arrangement(ref.split(":", 1)[1])
    return _arrangement(_line_strings(read_json(ref) if isinstance(ref, str) else ref))


def cover_from_json(data: dict) -> CoverModel:
    """Schema: {"arrangement": ref, "m": int, "k": int, "phi": [[..],..],
    "blow_up": "all_r_ge_3" | [point ids]}."""
    require_object(data, "cover")
    try:
        arr = resolve_arrangement(data["arrangement"])
        rows = data["phi"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ValueError("cover JSON field 'phi' must be an array of arrays, one per line")
        phi = Epimorphism(m=data["m"], k=data["k"], rows=tuple(map(tuple, rows)))
        blow = data.get("blow_up", BLOW_ALL_TRIPLE)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed cover JSON: {exc}") from exc
    return _cover(arr, phi, blow)


def resolve_cover(ref: str) -> CoverModel:
    """Accept 'builtin:<name>' or a cover JSON file path; the last cover
    resolved is kept (`_cover`)."""
    if ref.startswith("builtin:"):
        return builtin_cover(ref.split(":", 1)[1])
    return cover_from_json(read_json(ref))
