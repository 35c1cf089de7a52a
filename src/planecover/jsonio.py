"""Reading the JSON documents the commands take as input, and writing the
JSON reports.

Kept apart from `catalog`, so that `bounds check` reads and checks its
hodge document without loading any geometry.  `catalog` reads a cover
document's text first (`read_text`) and parses it only when the text is not
that of the cover it keeps.

`dumps` writes a report as `json.dumps(report, sort_keys=True, indent=2)`
does, character for character.  With an indent the standard library encodes
in pure Python, an item at a time; `dumps` joins each list of strings or of
ints in one call, which is most of a report's items.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_json(text: str, path: str):
    """The JSON document `text` read from `path`; nesting too deep to parse
    is an input error, not a crash."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def read_json(path: str):
    """The JSON document in a file."""
    return parse_json(read_text(path), path)


def require_object(data, what: str, keys: frozenset[str]) -> None:
    """Refuse a JSON document that is not an object, naming its JSON type,
    or one with a key outside `keys`, its schema (`require_keys`)."""
    if not isinstance(data, dict):
        kinds = {type(None): "null", bool: "boolean", str: "string", list: "array"}
        raise ValueError(f"{what} JSON must be an object, got {kinds.get(type(data), 'number')}")
    require_keys(data, what, keys)


def require_keys(data: dict, what: str, keys: frozenset[str]) -> None:
    """Refuse a JSON object with a key outside `keys`, naming those keys,
    sorted: a misspelt optional key would leave its field at the default."""
    unknown = sorted(data.keys() - keys)
    if unknown:
        raise ValueError(f"{what} JSON has unknown keys {unknown}; allowed: {sorted(keys)}")


def _is_int(x: object) -> bool:
    """An integer of parsed input (JSON or Python), not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


# a list all of whose items have one of these exact types is joined in one
# call; `type(x) is int` keeps a bool off the int path
_JOINED = {str: _quote, int: int.__repr__}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for what a report holds:
    dicts with str keys, lists, tuples, str, int, bool and None."""
    return _text(value, "\n")


def _text(value, newline: str) -> str:
    """value's text; newline is a line break and the indent of value's line."""
    if isinstance(value, dict):
        inner = newline + "  "
        items = [f"{_quote(key)}: {_text(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kind = type(value[0])
        if kind in _JOINED and all(type(x) is kind for x in value):
            items = map(_JOINED[kind], value)
        else:
            items = [_text(x, inner) for x in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
