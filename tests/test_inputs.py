"""Property test of the input readers: any JSON value in place of one key,
or of the whole document, of a valid ledger, network or config file; the
check that ``_inputs`` is the one module that writes a file; and the CSV
writer's blocks."""

import ast
import contextlib
import copy
import io
import json
import math
import tempfile
from itertools import chain
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import hubroster
from hubroster._inputs import write_csv
from hubroster.cli import main
from hubroster.config import load_config
from hubroster.network import HubNetwork, load_network

# JSON values, with the numbers Python's json also reads: NaN, Infinity and
# integers past float's range
VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

VALID = {
    "ledger": {"hiring": 50, "hourly": 160.0, "waiting": 0, "moving": 10, "lateness": 5, "emergency": 0, "total": 225},
    "network": {
        "d_max_m": 3000.0,
        "speed_m_per_h": 15000.0,
        "hubs": [
            {"id": 0, "name": "G00", "x_m": 0.0, "y_m": 0.0, "tier": "gateway"},
            {"id": 1, "name": "L01", "x_m": 1200.5, "y_m": 40.0, "tier": "local"},
        ],
    },
    "config": {
        "seed": 3,
        "network": {"hubs": 4, "area_km": 6, "walk_speed_m_per_h": 15000.0},
        "arrivals": {"daily_volume": 2000, "gateway_weight": 6.0},
        "params": {"dwell_h": 2, "fix_threshold": 0.8},
    },
}


def _places(doc, at=()):
    """The path of every node of ``doc``, the root's ``()`` first."""
    yield at
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _places(child, (*at, key))


def _put(doc, place, value):
    """A copy of ``doc`` with ``value`` at ``place``."""
    if not place:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in place[:-1]:
        node = node[key]
    node[place[-1]] = value
    return doc


def _leaves(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _leaves(value)
    else:
        yield doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_any_value_in_an_input_file_is_read_or_refused_naming_the_file(data):
    # compare prints a table or one error line naming the file; load_network
    # returns a network or a ValueError naming the file; every config
    # load_config accepts holds only numbers that convert to finite floats.
    # generate is not run: a drawn hub count or horizon can be any size
    kind = data.draw(st.sampled_from(sorted(VALID)))
    place = data.draw(st.sampled_from(list(_places(VALID[kind]))))
    doc = _put(VALID[kind], place, data.draw(VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(json.dumps(doc))
        if kind == "ledger":
            good = Path(tmp) / "good.json"
            good.write_text(json.dumps(VALID["ledger"]))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["compare", str(good), str(path)])
            lines = err.getvalue().splitlines()
            assert (code, lines) == (0, []) or (
                code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
            ), (code, lines)
            return
        try:
            result = load_network(path) if kind == "network" else load_config(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
    if kind == "network":
        assert isinstance(result, HubNetwork)
    else:
        for value in _leaves(result):
            assert not isinstance(value, bool) and math.isfinite(float(value)), (place, value)


def _file_writes(tree):
    """The line of each call in ``tree`` that writes a file: ``write_text``,
    ``write_bytes``, and ``open`` (the builtin, or a method such as
    ``Path.open``) with a mode that writes. ``os.open`` takes flags, not a
    mode: the CLI's one call opens the null device to drop what is left of
    stdout after the reader closed it, which writes no file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            yield node.lineno
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            at = 1  # open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open" and ast.unparse(func.value) != "os":
            at = 0  # path.open(mode)
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at : at + 1]
        if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
            yield node.lineno


def test_every_output_file_is_written_by_the_inputs_module():
    # one writer for every output file: any other module renders its rows
    # and hands them to _inputs.write_csv or write_json
    package = Path(hubroster.__file__).parent
    writes = {
        f"{path.name}:{line}"
        for path in package.rglob("*.py")
        for line in _file_writes(ast.parse(path.read_text()))
    }
    assert writes and all(w.startswith("_inputs.py:") for w in writes), sorted(writes)


def test_write_csv_writes_each_block_before_reading_the_next(tmp_path):
    # a generator of blocks is read one block at a time: when it is asked
    # for the second block, the first is already on disk
    path = tmp_path / "rows.csv"
    on_disk = []
    rows = [[(i, i / 8) for i in range(k * 4096, (k + 1) * 4096)] for k in range(3)]

    def blocks():
        for k, block in enumerate(rows):
            if k == 1:
                on_disk.append(path.read_bytes())
            yield chain.from_iterable(block)

    write_csv(path, "# 100%\n", "a,b", "%s,%g", blocks())
    lines = ["# 100%\n", "a,b\r\n"] + [f"{i},{x:g}\r\n" for block in rows for i, x in block]
    assert on_disk == ["".join(lines[: 2 + len(rows[0])]).encode()]
    assert path.read_bytes() == "".join(lines).encode()
