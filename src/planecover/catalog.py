"""Bundled arrangements, epimorphisms, and cover specifications.

The three builtin covers pair the two builtin arrangements with fixed
(Z/5Z)^2-valued epimorphisms; every blown-up point set defaults to all
points of multiplicity at least 3.  A cover is resolved to a `CoverModel`.

An arrangement is built once per process for each builtin name or tuple of
line coefficient strings (`_arrangement`), and the one object is shared by
every query that names it, with its search state (`search.SearchState`,
built on first use) and its blown planes (`homology.BlownPlane`, one per
blow-up set, m and k, with the invariants and 3K records that read no
phi).  It must not be mutated.

The last cover resolved is kept (`_kept`) under one key, so the commands on
one cover in a row certify smoothness once and, since a cover keeps its own
Klein model (`CoverModel.klein_model`), build one model.  A builtin cover's
key is its name in a 1-tuple; a cover file's is its document's text, never
its path, so a repeated document is the kept cover with no parse and no
check.  The key is the text and not the parsed document, since
`1 == 1.0 == True` while only the first is a valid entry.  A document that
names its arrangement by a file path is never kept, since that file can
change under the same text.  One cover is kept: the commands on a cover
come in a row, and a second cover replaces the first.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .arrangement import Arrangement, Line, build_arrangement, complete_quadrilateral, dual_hesse
from .homology import BLOW_ALL_TRIPLE, CoverModel, Epimorphism
from .jsonio import parse_json, read_json, read_text, require_keys, require_object

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
    return _arrangement(_builtin_name(name))


def _builtin_name(name: str) -> str:
    if name not in _ARRANGEMENTS:
        raise ValueError(
            f"unknown builtin arrangement {name!r}; "
            f"available: {sorted(_ARRANGEMENTS)}"
        )
    return name


ARRANGEMENT_KEYS = frozenset({"lines"})
COVER_KEYS = frozenset({"arrangement", "m", "k", "phi", "blow_up"})


def _line_strings(data: dict) -> LineStrings:
    rows = None
    if isinstance(data, dict):
        require_keys(data, "arrangement", ARRANGEMENT_KEYS)
        rows = data.get("lines")
    if not isinstance(rows, list):
        raise ValueError("arrangement JSON needs a 'lines' array")
    for idx, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise ValueError(f"lines[{idx}] must be 3 coefficient strings, got {row!r}")
    return tuple(tuple(row) for row in rows)


def _arrangement_key(ref: str | dict) -> str | LineStrings:
    """The memo key of an arrangement reference: the builtin name, or the
    line strings of a JSON file or an inline JSON object."""
    if isinstance(ref, str) and ref.startswith("builtin:"):
        return _builtin_name(ref.split(":", 1)[1])
    return _line_strings(read_json(ref) if isinstance(ref, str) else ref)


# the last cover resolved: its key, a builtin cover's (name,) or a cover
# file's text, its arrangement's memo key, and the cover
_kept: tuple[tuple[str] | str, str | LineStrings, CoverModel] | None = None


def _kept_or_made(
    key: tuple[str] | str, make: Callable[[], tuple[str | LineStrings | None, CoverModel]]
) -> CoverModel:
    """The kept cover if its key is key, else the cover make() builds with
    its arrangement's memo key, kept unless that key is None."""
    global _kept
    if _kept is not None:
        kept_key, arr_key, cover = _kept
        # the memo's object for the key: an evicted and rebuilt arrangement
        # gives a new cover
        if kept_key == key and _arrangement(arr_key) is cover.arrangement:
            return cover
    arr_key, cover = make()
    _kept = None if arr_key is None else (key, arr_key, cover)
    return cover


def builtin_cover(name: str) -> CoverModel:
    try:
        arr_name, phi = _COVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin cover {name!r}; available: {sorted(_COVERS)}"
        ) from None
    return _kept_or_made(
        (name,), lambda: (arr_name, CoverModel.build(_arrangement(arr_name), phi))
    )


def resolve_arrangement(ref: str | dict) -> Arrangement:
    """Accept 'builtin:<name>', a JSON file path, or an inline JSON object;
    the arrangement is shared (`_arrangement`)."""
    return _arrangement(_arrangement_key(ref))


def cover_from_json(data: dict) -> tuple[str | LineStrings | None, CoverModel]:
    """Schema: {"arrangement": ref, "m": int, "k": int, "phi": [[..],..],
    "blow_up": "all_r_ge_3" | [point ids]}, and no other key.  The cover,
    after the memo key of its arrangement, None for an arrangement file,
    which can change."""
    require_object(data, "cover", COVER_KEYS)
    try:
        ref = data["arrangement"]
        key = _arrangement_key(ref)
        arr = _arrangement(key)
        rows = data["phi"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ValueError("cover JSON field 'phi' must be an array of arrays, one per line")
        phi = Epimorphism(m=data["m"], k=data["k"], rows=tuple(map(tuple, rows)))
        blow = data.get("blow_up", BLOW_ALL_TRIPLE)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed cover JSON: {exc}") from exc
    if isinstance(ref, str) and not ref.startswith("builtin:"):
        key = None
    return key, CoverModel.build(arr, phi, blow)


def resolve_cover(ref: str) -> CoverModel:
    """Accept 'builtin:<name>' or a cover JSON file path; the last cover
    resolved is kept (`_kept_or_made`), and a file whose text is the kept
    cover's document is that cover, before any parse or check."""
    if ref.startswith("builtin:"):
        return builtin_cover(ref.split(":", 1)[1])
    text = read_text(ref)
    return _kept_or_made(text, lambda: cover_from_json(parse_json(text, ref)))
