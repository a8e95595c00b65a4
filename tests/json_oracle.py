"""The generic JSON writer that svq.runner used before each item kind
rendered its own JSON, kept as the oracle of emit_report.

It type-dispatches every value and appends the pieces of
``json.dumps(value, indent=2, allow_nan=False)`` to one list. Its one
change from the runner's copy: a report view renders as the list of dicts
it stands for, through the dict branch below, so the oracle shares no JSON
template with the code it checks.
"""

import math
from json.encoder import encode_basestring_ascii as _quote

from svq.runner import _Rows


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the pieces of json.dumps(value, indent=2, allow_nan=False).

    newline is "\n" plus the indentation of the line value starts on. The
    type tests run in json's order (str, None, True, False, int, float,
    list or tuple, dict), so subclasses render as json renders them; a
    report view renders as the list it stands for, a list of str in one
    join, and the exact-type tests in the dict loop are shortcuts to the
    same output. Dict keys must be strings, which is all a report holds.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, _Rows):
        _write_json(list(value), newline, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
            return
        except TypeError:  # an item is not a str
            pass
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{_quote(key)}: ")
            sep = "," + inner
            kind = type(item)
            if kind is str:
                out.append(_quote(item))
            elif kind is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)
