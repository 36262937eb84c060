"""The package's file layer: every JSON and CSV file is read or written here.

JSON files have sorted keys, one-space indents and one trailing newline, so
identical data gives identical bytes: those the standard `json` module
dumps with ``indent=1`` and ``sort_keys=True``, and a newline, built by one
recursive writer into one list of chunks.  Exact numbers are stored as
``"p/q"`` text.  Outside JSON that does not decode fails as ``<source>:
line L, column C: <msg>``; JSON that decodes into the wrong shape fails as
``<source>: malformed <what> (...)``.  The source is the file path or the
command-line flag the text came from.
"""

import csv
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import InvalidInputError, _bad_input


def write_json(path, data) -> None:
    text = _scalar(data)
    if text is None:
        chunks = []
        _encode(data, chunks, "\n")
        text = "".join(chunks)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _scalar(o):
    """The JSON text of a str, None, bool, int or float, as `json` writes it; else None."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _encode(o, chunks, newline) -> None:
    """Append the text of the dict, list or tuple o to chunks.

    ``newline`` is a line break followed by o's indent; items go one space
    deeper, each scalar written in the same chunk as its separator and key.
    """
    if isinstance(o, dict):
        if not o:
            chunks.append("{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            # a key of no JSON scalar type fails in _quote with a TypeError
            head = sep + _quote(key if isinstance(key, str) else _scalar(key)) + ": "
            text = _scalar(value)
            if text is None:
                chunks.append(head)
                _encode(value, chunks, inner)
            else:
                chunks.append(head + text)
            sep = "," + inner
        chunks.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            chunks.append("[]")
            return
        inner = newline + " "
        sep = "[" + inner
        for value in o:
            text = _scalar(value)
            if text is None:
                chunks.append(sep)
                _encode(value, chunks, inner)
            else:
                chunks.append(sep + text)
            sep = "," + inner
        chunks.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def read_fraction(text) -> Fraction:
    """``Fraction(text)``; canonical "p/q" and "p" text skips the string parser."""
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] == "-" else num).isdecimal() and (den.isdecimal() or not slash):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(text)


def parse_json(text, source, what, build, error=InvalidInputError):
    """Decode the text and return ``build`` of the result, as ``error`` on failure."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    with _bad_input(f"{source}: malformed {what}", error):
        return build(data)


def read_json(path, what, build, error=InvalidInputError):
    """`parse_json` of the file's text; the path is the source."""
    with open(path) as fh, _bad_input(f"{path}: unreadable {what}", error):
        text = fh.read()
    return parse_json(text, path, what, build, error)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
