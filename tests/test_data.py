import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynabs import Box, DataError, Dataset, WorkingZone, load_dataset, membership_matrix, save_dataset, zone_from_data
from dynabs import data as data_module
from dynabs import geometry
from dynabs.data import _read_csv, read_artifact, write_artifact

from synthdata import swirl_dataset


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_small_autonomous(tmp_path):
    p = write(tmp_path, "x1,x2,y1,y2\n0,0,0.1,0.1\n0.5,0.5,0.4,0.4\n1,1,0.9,0.9\n")
    data = load_dataset(p, n_x=2, n_u=0)
    assert len(data) == 3
    assert data.n_u == 0
    assert np.allclose(data.z[1], [0.5, 0.5])
    assert np.allclose(data.y[2], [0.9, 0.9])


def test_load_dataset_holds_the_table_once(tmp_path):
    """`z` and `y` stay views of the one table the reader fills, so a load
    peaks at under 1.3 times their bytes (copying them out read 2.0)."""
    path = tmp_path / "swirl.csv"
    save_dataset(path, swirl_dataset(50_000, seed=1))
    tracemalloc.start()
    try:
        data = load_dataset(path, n_x=2, n_u=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.z.base is not None and data.z.base is data.y.base
    assert peak <= 1.3 * (data.z.nbytes + data.y.nbytes)


def test_load_with_input_column(tmp_path):
    p = write(tmp_path, "x1,u1,y1\n0,1,0.5\n0.5,-1,0.25\n")
    data = load_dataset(p, n_x=1, n_u=1)
    assert data.n_u == 1
    assert np.allclose(data.inputs.ravel(), [1.0, -1.0])


def test_load_rejects_non_numeric_with_position(tmp_path):
    p = write(tmp_path, "x1,x2,y1,y2\n0,0,0.1,0.1\n0.5,abc,0.4,0.4\n")
    with pytest.raises(DataError) as err:
        load_dataset(p, n_x=2, n_u=0)
    msg = str(err.value)
    assert "row 2" in msg and "column 2" in msg and "abc" in msg


def test_load_rejects_short_row(tmp_path):
    p = write(tmp_path, "x1,x2,y1,y2\n0,0,0.1\n")
    with pytest.raises(DataError) as err:
        load_dataset(p, n_x=2, n_u=0)
    assert "row 1" in str(err.value)


def test_load_rejects_wrong_header_width(tmp_path):
    p = write(tmp_path, "x1,x2,y1\n0,0,0.1\n")
    with pytest.raises(DataError) as err:
        load_dataset(p, n_x=2, n_u=0)
    assert "header" in str(err.value)


def test_load_rejects_empty_file(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(DataError):
        load_dataset(p, n_x=2, n_u=0)


def test_load_rejects_header_only(tmp_path):
    p = write(tmp_path, "x1,x2,y1,y2\n")
    with pytest.raises(DataError) as err:
        load_dataset(p, n_x=2, n_u=0)
    assert "no data rows" in str(err.value)


CSV_TEXTS = {
    "plain": "x1,x2,y1,y2\n0,0.5,1e-3,-2\n0.25,1,3,4\n",
    "crlf": "x1,x2,y1,y2\r\n0,0.5,1e-3,-2\r\n0.25,1,3,4\r\n",
    "lone cr": "x1,x2,y1,y2\r0,0.5,1e-3,-2\r0.25,1,3,4",
    "blank lines": "x1,x2,y1,y2\n\n0,0.5,1e-3,-2\n\n\n0.25,1,3,4\n\n",
    "whitespace-only line": "x1,x2,y1,y2\n0,0.5,1e-3,-2\n  \t\n0.25,1,3,4\n",
    "padded cells": "x1,x2,y1,y2\n 0 ,0.5\t,1e-3,-2\n",
    "quoted cells": 'x1,x2,y1,y2\n"0",0.5,"1e-3",-2\n',
    "quoted header over two lines": '"x\n1",x2,y1,y2\n0,0.5,1e-3,-2\n',
    "quoted comma": 'x1,x2,y1,y2\n"0,5",0.5,1e-3,-2\n',
    "underscore": "x1,x2,y1,y2\n1_0,0.5,1e-3,-2\n",
    "trailing comma": "x1,x2,y1,y2\n0,0.5,1e-3,-2,\n",
    "trailing comma on every row": "x1,x2,y1,y2,\n0,0.5,1e-3,-2,\n1,1,1,1,\n",
    "short row": "x1,x2,y1,y2\n0,0.5,1e-3,-2\n1,1,1\n",
    "nan": "x1,x2,y1,y2\n0,0.5,1e-3,-2\n0.25,nan,3,4\n",
    "inf after blank line": "x1,x2,y1,y2\n\n0,0.5,-inf,-2\n",
    "header only": "x1,x2,y1,y2\n",
    "header and blank lines": "x1,x2,y1,y2\n\n\n",
    "empty": "",
    "wide header": "x1,x2,y1,y2,y3\n0,0.5,1e-3,-2\n",
    "wide rows": "x1,x2,y1,y2\n0,0.5,1e-3,-2,7\n1,1,1,1,1\n",
    "comment sign": "x1,x2,y1,y2\n0,0.5,1e-3,-2 # note\n",
    "non-ascii digit": "x1,x2,y1,y2\n0,0.5,1e-3,\u0662\n",
}


@pytest.mark.parametrize("name", sorted(CSV_TEXTS))
def test_load_equals_the_csv_reader(tmp_path, name):
    """The one-pass reader gives the csv module's Dataset or its DataError text, and warns of nothing."""
    p = tmp_path / "data.csv"
    p.write_bytes(CSV_TEXTS[name].encode("utf-8"))

    def outcome(read):
        try:
            data = read(p, 2, 0)
        except DataError as exc:
            return str(exc)
        return data.z.tobytes(), data.y.tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(load_dataset) == outcome(_read_csv)


def test_curve_export_round_trip(tmp_path):
    # handwriting-style fixture: discretize a parametric curve, shift by one
    t = np.linspace(0.0, 2.0 * np.pi, 1001)
    curve = np.column_stack([np.cos(t), np.sin(2.0 * t)])
    data = Dataset(2, 0, curve[:-1], curve[1:])
    assert len(data) == 1000

    p = tmp_path / "curve.csv"
    save_dataset(p, data)
    back = load_dataset(p, n_x=2, n_u=0)
    assert len(back) == 1000
    assert np.array_equal(back.z, data.z)
    assert np.array_equal(back.y, data.y)


def test_save_dataset_writes_what_the_csv_module_writes(tmp_path, monkeypatch):
    """Byte for byte the csv module's rows of `repr(float(v))`, for extreme,
    signed-zero, subnormal and non-finite values, with the rows split into
    blocks of 1, 3 and all rows."""
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3)),
                        [[-0.0, 0.0, 5e-324], [np.inf, -np.inf, np.nan], [1e16, 2.0**60, 0.1]]])
    data = Dataset(2, 1, z, 3 * z[:, :2])
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["x1", "x2", "u1", "y1", "y2"])
        for zi, yi in zip(data.z, data.y):
            writer.writerow([repr(float(v)) for v in zi] + [repr(float(v)) for v in yi])
    for block_bytes in (1, 3 * 8 * 5, int(geometry.STACK_BYTES * data_module.TEXT_SHARE)):
        monkeypatch.setattr(geometry, "STACK_BYTES", round(block_bytes / data_module.TEXT_SHARE))
        got = tmp_path / f"got{block_bytes}.csv"
        save_dataset(got, data)
        assert got.read_bytes() == want.read_bytes(), block_bytes


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(2, 0, np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(DataError):
        Dataset(2, 0, np.zeros((3, 3)), np.zeros((3, 2)))
    with pytest.raises(DataError):
        Dataset(2, 0, np.zeros((3, 2)), np.zeros((2, 2)))


def test_zone_checks_states_inside(tmp_path):
    zone = WorkingZone(Box([0.0, 0.0], [1.0, 1.0]))
    good = Dataset(2, 0, np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((2, 2)) + 0.5)
    zone.check_dataset(good)  # corner points count as inside

    bad = Dataset(2, 0, np.array([[0.5, 0.5], [1.1, 0.5]]), np.zeros((2, 2)) + 0.5)
    with pytest.raises(DataError) as err:
        zone.check_dataset(bad)
    assert "sample 1" in str(err.value)


def test_zone_from_data_contains_everything():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    data = Dataset(2, 0, pts, pts * 0.5)
    zone = zone_from_data(data)
    zone.check_dataset(data)
    assert zone.input_bounds is None

    with_input = Dataset(1, 1, np.column_stack([pts[:, 0], pts[:, 1]]), pts[:, :1])
    zone2 = zone_from_data(with_input)
    assert zone2.input_bounds is not None
    assert membership_matrix([zone2.input_bounds], [[pts[:, 1].min()]]).all()


def bool_matrices(max_n: int = 40):
    return st.integers(1, max_n).flatmap(lambda n: arrays(bool, (n, n)))


@settings(max_examples=60, deadline=None)
@given(bool_matrices(), st.sampled_from(["one row", "three rows", "all rows but the last"]), st.data())
def test_bit_matrix_text_is_compact_json_and_reads_back(tmp_path_factory, m, block, data):
    """Written and read in blocks of one row, three rows or all rows but the
    last, a matrix reads back bit for bit from its compact text, from
    `json.dumps` text with and without `indent=2`, and from its compact text
    with JSON whitespace at random token boundaries."""
    n = len(m)
    path = tmp_path_factory.mktemp("bits") / "doc.json"
    compact = json.dumps(m.astype(int).tolist(), separators=(",", ":"))
    spaced = list(compact)  # each character of a 0/1 matrix's compact JSON is a token
    gaps = st.tuples(st.integers(0, len(compact)), st.text(" \t\n\r", min_size=1, max_size=3))
    for i, ws in sorted(data.draw(st.lists(gaps, max_size=8)), reverse=True):
        spaced.insert(i, ws)
    rows = {"one row": 1, "three rows": 3, "all rows but the last": max(1, n - 1)}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "STACK_BYTES", round(rows * (2 * n + 2) / data_module.TEXT_SHARE))
        write_artifact(path, {"m": m, "n": 1})
        line = path.read_text().splitlines()[1]
        assert line == '  "m": ' + compact + ","
        back = read_artifact(path, "m")
        assert back["n"] == 1 and back["m"].dtype == bool and np.array_equal(back["m"], m)
        for text in (json.dumps(m.astype(int).tolist()), json.dumps(m.astype(int).tolist(), indent=2),
                     "".join(spaced)):
            path.write_text('{"m": ' + text + ', "n": 1}')
            assert np.array_equal(read_artifact(path, "m")["m"], m)


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_bit_matrix_text_is_the_same_in_any_row_blocks(tmp_path, monkeypatch, n):
    """`write_artifact` writes a relation one block of rows at a time: with
    blocks of 4 rows, relations of 1, 3, 4 and 5 rows (and, with a block
    smaller than a row, one row per block) give the compact JSON text and
    read back."""
    m = np.random.default_rng(n).random((n, n)) < 0.5
    m[0, 0] = True
    want = '{\n  "m": ' + json.dumps(m.astype(int).tolist(), separators=(",", ":")) + "\n}\n"
    for block_bytes in (4 * (2 * n + 2), 1):
        monkeypatch.setattr(geometry, "STACK_BYTES", round(block_bytes / data_module.TEXT_SHARE))
        path = tmp_path / f"doc{block_bytes}.json"
        write_artifact(path, {"m": m})
        assert path.read_text() == want
        assert np.array_equal(read_artifact(path, "m")["m"], m)


def test_read_artifact_reads_what_json_reads(tmp_path):
    doc = {"a": [1.5, None, True, "x\u00e9\"y"], "b": {"c": [[0, 1]], "d": -2e-300}, "e": []}
    path = tmp_path / "doc.json"
    for spacing in ({}, {"indent": 3}, {"separators": (",", ":")}):
        path.write_text(" \n" + json.dumps(doc, **spacing) + "\n\t")
        assert read_artifact(path) == doc
    path.write_text("{ }")
    assert read_artifact(path, "m") == {}


@pytest.mark.parametrize("text, cause", [
    ("", "no '{'"),
    ("[1]", "no '{'"),
    ('{"a": 1', "no ',' or '}'"),
    ('{"a": 1,}', "no key"),
    ('{"a" 1}', "no ':'"),
    ('{"a": 1} x', "trailing data"),
    ('{"a": 1}{}', "trailing data"),
    ('{"a": [1,]}', "key 'a'"),
    ('{"a": 1, "b": tru}', "key 'b'"),
])
def test_read_artifact_rejects_malformed_documents(tmp_path, text, cause):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(DataError, match=cause):
        read_artifact(path)


def test_read_artifact_rejects_non_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(DataError, match="UTF-8"):
        read_artifact(path)
