"""The one reader and the one writer of the program's files.

The config, network, ledger and arrivals files are all read here, so each
fails the same way: a ``ValueError`` whose message starts with the file's
path and says what it was read as ("cannot read network (...)", "ledger is
not valid JSON (...)"). ``check_number`` is the one rule for a number read
from JSON. Nothing here rewrites a value: a reader gets back what the file
holds, or an error.

Every output file is written here too: a CSV by ``write_csv``, from its
file's column line, row template and fields, and JSON by ``write_json``.
This module imports nothing from the package, so every module can use it.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager


def read_text(path, what: str) -> str:
    """The text of ``path``, its line ends as written; a file that cannot
    be read or is not text raises ``ValueError`` naming it as ``what``."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read {what} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {what} is not UTF-8 text ({exc})") from exc


def read_json_object(path, what: str) -> dict:
    """The JSON object ``path`` holds; anything else raises ``ValueError``
    naming the file as ``what``."""
    text = read_text(path, what)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ValueError(f"{path}: {what} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


@contextmanager
def naming(path):
    """Put ``path`` in front of a ``ValueError`` raised in the block, and
    turn a ``KeyError`` into one naming the missing key."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a JSON
    number (not a bool: ``true`` is an ``int`` to Python), an integer if
    ``integer``, that converts to a finite float. Python's ``json`` reads
    ``NaN``, ``Infinity`` and integers of any size."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {kind}, got {json.dumps(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past float's range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {json.dumps(value)}")


def write_csv(path, header: str, columns: str, row: str, fields) -> None:
    """Write ``header`` (a ``#`` line, or ``""``), the column line
    ``columns`` and one line per ``columns.count(",") + 1`` of ``fields``,
    all rendered at once by the ``%`` template ``row`` repeated per line:
    ``%s`` is ``str``, as an f-string's ``{}`` is, and ``%g`` is ``:g``.
    The header is written outside the template, so it may hold a ``%``.
    These are the rows ``csv.writer`` would write (excel dialect): CRLF line
    ends, and no field is ever quoted, as none holds a comma, a quote or a
    line end."""
    fields = tuple(fields)
    with open(path, "w", newline="") as fh:
        fh.write(header + columns + "\r\n")
        fh.write((row + "\r\n") * (len(fields) // (columns.count(",") + 1)) % fields)


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
