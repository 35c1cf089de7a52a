"""Reading the JSON documents the commands take as input.

Kept apart from `catalog`, so that `bounds check` reads and checks its
hodge document without loading any geometry.
"""

from __future__ import annotations

import json


def read_json(path: str):
    """The JSON document in a file; nesting too deep to parse is an input
    error, not a crash."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def require_object(data, what: str) -> None:
    """Refuse a JSON document that is not an object, naming its JSON type."""
    if not isinstance(data, dict):
        kinds = {type(None): "null", bool: "boolean", str: "string", list: "array"}
        raise ValueError(f"{what} JSON must be an object, got {kinds.get(type(data), 'number')}")


def _is_int(x: object) -> bool:
    """An integer of parsed input (JSON or Python), not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)
