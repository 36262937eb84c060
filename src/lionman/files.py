"""The package's file layer: every JSON and CSV file is read or written here.

JSON files have sorted keys, one-space indents and one trailing newline, so
identical data gives identical bytes.  Outside JSON that does not decode
fails as ``<source>: line L, column C: <msg>``; JSON that decodes into the
wrong shape fails as ``<source>: malformed <what> (...)``.  The source is
the file path or the command-line flag the text came from.
"""

import csv
import json

from .errors import InvalidInputError, _bad_input


def write_json(path, data) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=1, sort_keys=True) + "\n")


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
