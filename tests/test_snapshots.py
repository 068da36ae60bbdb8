import dataclasses
import itertools
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygas import (
    GridLayer,
    MassMesh,
    SnapshotError,
    make_initial_layer,
    problem_library,
    read_snapshot,
    read_snapshot_meta,
    write_snapshot,
)
from polygas import snapshots
from polygas.snapshots import CELL_HEADER, NODE_HEADER, snapshot_basename
from conftest import advance, pulse_start


def _sample_layer():
    profile, params = problem_library("smooth_pulse", cells=12)
    layer = make_initial_layer(profile, params.n)
    # salt with irrational values so round-tripping is a real test
    return dataclasses.replace(layer, u=layer.u + math.pi * 1e-3,
                               eps=layer.eps * math.e,
                               p=layer.p * math.sqrt(2.0))


def test_round_trip_is_bit_exact(tmp_path):
    layer = _sample_layer()
    paths = write_snapshot(layer, tmp_path, step=7, tau=0.0125)
    back = read_snapshot(paths["nodes"], paths["cells"])
    assert np.array_equal(back.mesh.s, layer.mesh.s)
    for field in ("r", "u", "rho", "p", "eps"):
        assert np.array_equal(getattr(back, field), getattr(layer, field)), field
    assert back.t == layer.t


def test_time_can_be_overridden_and_meta_read(tmp_path):
    layer, params = pulse_start(n=0, gamma=1.4, cells=10)
    (view,) = advance(layer, params, 0.25, 1)
    paths = write_snapshot(view.hi, tmp_path, step=1, tau=0.25)
    meta = read_snapshot_meta(paths["nodes"])
    assert meta["time"] == view.hi.t
    assert meta["step"] == 1
    assert meta["tau"] == 0.25
    assert meta["cells"] == 10
    back = read_snapshot(paths["nodes"], paths["cells"], t=99.0)
    assert back.t == 99.0


def test_a_sidecar_cell_count_must_match_the_tables(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7, tau=0.0125)
    paths["meta"].write_text('{"time": 0.5, "step": 7, "cells": 99, "tau": 0.0125}\n')
    with pytest.raises(SnapshotError) as exc:
        read_snapshot(paths["nodes"], paths["cells"])
    assert str(exc.value) == f"{paths['meta']}: sidecar says 99 cells, expected 12"
    # an explicit time reads no sidecar, and a bare sidecar read has no tables to match
    assert read_snapshot(paths["nodes"], paths["cells"], t=0.5).mesh.n_cells == 12
    assert read_snapshot_meta(paths["nodes"])["cells"] == 99


def test_write_is_deterministic(tmp_path):
    layer = _sample_layer()
    a = write_snapshot(layer, tmp_path / "a", step=3)
    b = write_snapshot(layer, tmp_path / "b", step=3)
    for key in ("nodes", "cells", "meta"):
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_basename_encodes_step_and_time():
    name = snapshot_basename(step=12, t=0.0625)
    assert "000012" in name
    assert "0.0625" in name


def test_reader_rejects_tampered_files(tmp_path):
    layer = _sample_layer()
    paths = write_snapshot(layer, tmp_path, step=0)

    bad_header = tmp_path / "bad_nodes.csv"
    text = paths["nodes"].read_text().splitlines()
    bad_header.write_text("\n".join(["i,s,radius,u"] + text[1:]) + "\n")
    with pytest.raises(SnapshotError, match="header"):
        read_snapshot(bad_header, paths["cells"])

    bad_index = tmp_path / "bad_index.csv"
    lines = text[:]
    first = lines[1].split(",")
    first[0] = "5"
    lines[1] = ",".join(first)
    bad_index.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match="index"):
        read_snapshot(bad_index, paths["cells"])

    with pytest.raises(SnapshotError):
        read_snapshot(tmp_path / "missing.csv", paths["cells"])


def test_reader_rejects_inconsistent_node_cell_pair(tmp_path):
    layer = _sample_layer()
    paths = write_snapshot(layer, tmp_path / "full", step=0)
    profile, params = problem_library("smooth_pulse", cells=8)
    small = make_initial_layer(profile, params.n)
    small_paths = write_snapshot(small, tmp_path / "small", step=0)
    with pytest.raises(SnapshotError, match="cells"):
        read_snapshot(paths["nodes"], small_paths["cells"])


def test_reader_checks_midpoints(tmp_path):
    layer = _sample_layer()
    paths = write_snapshot(layer, tmp_path, step=0)
    lines = paths["cells"].read_text().splitlines()
    row = lines[1].split(",")
    row[1] = repr(float(row[1]) + 0.125)
    lines[1] = ",".join(row)
    tampered = tmp_path / "tampered_cells.csv"
    tampered.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match="midpoint"):
        read_snapshot(paths["nodes"], tampered)


# --- exact file format ---------------------------------------------------------

def _golden_layer():
    """Three cells whose values cross every switch of float repr's output form."""
    return GridLayer(
        mesh=MassMesh([-0.0, 1e-05, 0.0001, 1.0000000000000002]),
        t=0.30000000000000004,
        r=[0.0, 0.30000000000000004, 9999999999999998.0, 1e+16],
        u=[-0.0, 5e-324, -2.2250738585072014e-308, 123456789012345678.0],
        rho=[1e+16, 0.0001, 1.7976931348623157e+308],
        p=[0.1, 1e+22, -1e-05],
        eps=[2.0 / 3.0, 1e-07, 4.9406564584124654e-322])


GOLDEN_NODES = (b"i,s,r,u\r\n"
                b"0,-0.0,0.0,-0.0\r\n"
                b"1,1e-05,0.30000000000000004,5e-324\r\n"
                b"2,0.0001,9999999999999998.0,-2.2250738585072014e-308\r\n"
                b"3,1.0000000000000002,1e+16,1.2345678901234568e+17\r\n")
GOLDEN_CELLS = (b"i,s_mid,rho,p,eps\r\n"
                b"0,5e-06,1e+16,0.1,0.6666666666666666\r\n"
                b"1,5.5e-05,0.0001,1e+22,1e-07\r\n"
                b"2,0.5000500000000001,1.7976931348623157e+308,-1e-05,4.94e-322\r\n")
GOLDEN_META = b'{"time": 0.30000000000000004, "step": 7, "cells": 3, "tau": 1e-05}\n'


def test_written_bytes_are_pinned(tmp_path):
    paths = write_snapshot(_golden_layer(), tmp_path, step=7, tau=1e-05)
    assert {key: path.name for key, path in paths.items()} == {
        "nodes": "snap_000007_t0.3_nodes.csv",
        "cells": "snap_000007_t0.3_cells.csv",
        "meta": "snap_000007_t0.3_meta.json"}
    assert paths["nodes"].read_bytes() == GOLDEN_NODES
    assert paths["cells"].read_bytes() == GOLDEN_CELLS
    assert paths["meta"].read_bytes() == GOLDEN_META


def _assert_bit_equal(a, b):
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _assert_same_layer(back, layer):
    _assert_bit_equal(back.mesh.s, layer.mesh.s)
    for field in ("r", "u", "rho", "p", "eps"):
        _assert_bit_equal(getattr(back, field), getattr(layer, field))
    _assert_bit_equal(back.t, layer.t)


def test_reader_accepts_lf_line_ends(tmp_path):
    nodes = tmp_path / "lf_nodes.csv"
    cells = tmp_path / "lf_cells.csv"
    nodes.write_bytes(GOLDEN_NODES.replace(b"\r\n", b"\n"))
    cells.write_bytes(GOLDEN_CELLS.replace(b"\r\n", b"\n"))
    _assert_same_layer(read_snapshot(nodes, cells, t=0.30000000000000004), _golden_layer())


@pytest.mark.parametrize("text, message", [
    (GOLDEN_NODES.replace(b",9999999999999998.0,-2.2250738585072014e-308", b",9999999999999998.0"),
     "{path}:4: expected 4 columns"),
    (GOLDEN_NODES.replace(b"0.30000000000000004", b"abc"),
     "{path}:3: could not convert string to float: 'abc'"),
    (GOLDEN_NODES + b"\r\n", "{path}:6: expected 4 columns"),
    (GOLDEN_NODES.replace(b"0.30000000000000004", b'"0.30000000000000004"'),
     "{path}:3: could not convert string to float: '\"0.30000000000000004\"'"),
    (GOLDEN_NODES.replace(b"0.30000000000000004", b"0.3\xff"),
     "{path}:3: could not convert string to float: '0.3\ufffd'"),
    (b"i,s,r,u\r\n", "no data rows in {path}"),
    (b"", "empty snapshot file: {path}"),
    (GOLDEN_NODES.replace(b"\r\n2,", b"\r\n\r\n2,"), "{path}:4: expected 4 columns"),
    (GOLDEN_NODES.replace(b"\r\n2,", b"\r\n   \r\n2,"), "{path}:4: expected 4 columns"),
    (GOLDEN_NODES.replace(b",5e-324\r\n", b",5e-324,\r\n"), "{path}:3: expected 4 columns"),
    (GOLDEN_NODES.replace(b"0.30000000000000004", b"0.3#1"),
     "{path}:3: could not convert string to float: '0.3#1'"),
    (b"i,s,r,u\r\n\r\n\r\n", "{path}:2: expected 4 columns"),
], ids=["short-row", "non-numeric", "trailing-blank-line", "quoted", "not-utf8", "header-only", "empty",
        "blank-line-mid-table", "spaces-only-line", "trailing-comma", "hash-in-field", "blank-lines-only"])
def test_reader_error_messages(tmp_path, text, message):
    nodes = tmp_path / "bad_nodes.csv"
    cells = tmp_path / "good_cells.csv"
    nodes.write_bytes(text)
    cells.write_bytes(GOLDEN_CELLS)
    with pytest.raises(SnapshotError) as info:
        read_snapshot(nodes, cells, t=0.0)
    assert str(info.value) == message.format(path=nodes)


def test_a_snapshot_rewritten_in_place_reads_back_its_new_values(tmp_path, table_parses):
    first = _sample_layer()
    paths = write_snapshot(first, tmp_path, step=7, tau=0.0125)
    _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), first)
    second = dataclasses.replace(first, u=first.u * 3.0, p=first.p + 1.0)
    assert write_snapshot(second, tmp_path, step=7, tau=0.0125) == paths
    _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), second)
    assert table_parses == [paths["nodes"], paths["cells"]] * 2


def test_a_corrupt_table_raises_on_every_read_naming_its_path(tmp_path, table_parses):
    bad = GOLDEN_NODES.replace(b"0.30000000000000004", b"abc")
    cells = tmp_path / "good_cells.csv"
    cells.write_bytes(GOLDEN_CELLS)
    paths = [tmp_path / "a_nodes.csv", tmp_path / "b_nodes.csv", tmp_path / "a_nodes.csv"]
    for nodes in paths:
        nodes.write_bytes(bad)
        with pytest.raises(SnapshotError) as info:
            read_snapshot(nodes, cells, t=0.0)
        assert str(info.value) == f"{nodes}:3: could not convert string to float: 'abc'"
    assert table_parses == paths
    assert not snapshots._TABLES


def test_the_reader_holds_at_most_four_tables(tmp_path, table_parses):
    layer = _sample_layer()
    written = [write_snapshot(dataclasses.replace(layer, u=layer.u + k, p=layer.p + k), tmp_path, step=k)
               for k in range(3)]
    for paths in written:
        read_snapshot(paths["nodes"], paths["cells"])
    assert len(table_parses) == 6 and len(snapshots._TABLES) == 4
    # the least recently read snapshot was dropped; the last one is still held
    for paths in (written[0], written[2]):
        read_snapshot(paths["nodes"], paths["cells"])
    assert table_parses[6:] == [written[0]["nodes"], written[0]["cells"]]
    assert len(snapshots._TABLES) == 4


def test_tables_handed_out_are_read_only(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7)
    for key, header in (("nodes", NODE_HEADER), ("cells", CELL_HEADER)):
        for _ in range(2):  # parsed, then held
            table = snapshots._read_table(paths[key], header)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(t=_FINITE, r=st.lists(_FINITE, min_size=4, max_size=4),
       u=st.lists(_FINITE, min_size=4, max_size=4),
       rho=st.lists(_FINITE, min_size=3, max_size=3),
       p=st.lists(_FINITE, min_size=3, max_size=3),
       eps=st.lists(_FINITE, min_size=3, max_size=3))
def test_any_finite_values_round_trip_bit_exact(t, r, u, rho, p, eps):
    layer = GridLayer(mesh=_golden_layer().mesh, t=t, r=r, u=u, rho=rho, p=p, eps=eps)
    with tempfile.TemporaryDirectory() as out_dir:
        paths = write_snapshot(layer, out_dir, step=1)
        _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), layer)


# --- the table parser against the row-by-row reader -----------------------------

def _row_by_row_parse(data, path, header):
    """The table parser as it was before numpy's reader took the conversion:
    str.split and float() on every field.  The oracle for the tests below."""
    lines = data.decode(errors="replace").splitlines()
    if not lines:
        raise SnapshotError(f"empty snapshot file: {path}")
    head = lines[0].split(",") if lines[0] else []
    if tuple(head) != header:
        raise SnapshotError(f"unexpected header in {path}: {head!r}, want {list(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise SnapshotError(f"no data rows in {path}")
    width = len(header)
    try:
        if set(map(len, rows)) != {width}:
            raise ValueError
        table = np.array(list(map(float, itertools.chain.from_iterable(rows))))
    except ValueError:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                raise SnapshotError(f"{path}:{lineno}: expected {width} columns") from None
            try:
                list(map(float, row))
            except ValueError as exc:
                raise SnapshotError(f"{path}:{lineno}: {exc}") from None
        raise
    table = table.reshape(len(rows), width)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise SnapshotError(f"{path}: index column must run 0..{table.shape[0] - 1}")
    return table[:, 1:]


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308])
#: ways to respell one field; "\udcff" is written as the non-UTF-8 byte 0xff
_RESPELLINGS = [lambda f: "1_0", lambda f: "١٢", lambda f: f"\xa0{f}\xa0",
                lambda f: f + "#1", lambda f: "#" + f, lambda f: f'"{f}"', lambda f: "nan",
                lambda f: "-nan", lambda f: "inf", lambda f: "-inf", lambda f: f + "\udcff"]


def _table_variants(header, rows, eol):
    """A table's bytes, then those of every change of one field or line: a
    field dropped, added or respelled, or a blank line inserted."""
    def table(lines):
        return (eol.join([",".join(header), *lines]) + eol).encode(errors="surrogateescape")
    lines = [",".join(row) for row in rows]
    yield table(lines)
    for r, row in enumerate(rows):
        for c, field in enumerate(row):
            for new in ([], [field, "0.5"], *([respell(field)] for respell in _RESPELLINGS)):
                yield table(lines[:r] + [",".join(row[:c] + new + row[c + 1:])] + lines[r + 1:])
    for k in range(len(lines) + 1):
        yield table(lines[:k] + [""] + lines[k:])


@st.composite
def table_bytes(draw):
    """A table of finite values in repr form (subnormals, signed zeros and the
    largest doubles among them), LF or CRLF, as written or changed in one
    field or line."""
    header = draw(st.sampled_from([NODE_HEADER, CELL_HEADER]))
    values = st.lists(st.one_of(_FINITE, _EDGE_VALUES), min_size=len(header) - 1,
                      max_size=len(header) - 1)
    rows = [[str(i), *map(repr, draw(values))] for i in range(draw(st.integers(1, 6)))]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return header, draw(st.sampled_from(list(_table_variants(header, rows, eol))))


def _parse_outcome(parse, data, header):
    """The parsed table's bits, or the SnapshotError message."""
    try:
        return parse(data, "t_nodes.csv", header).view(np.int64).tolist()
    except SnapshotError as exc:
        return str(exc)


def _assert_parses_as_the_row_by_row_reader(data, header):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _parse_outcome(snapshots._parse_table, data, header)
    assert got == _parse_outcome(_row_by_row_parse, data, header), data


@settings(max_examples=600, deadline=None)
@given(table=table_bytes())
def test_table_parser_matches_the_row_by_row_reader(table):
    _assert_parses_as_the_row_by_row_reader(*table[::-1])


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_every_one_field_change_of_the_golden_tables_parses_as_the_row_by_row_reader(eol):
    for golden, header in ((GOLDEN_NODES, NODE_HEADER), (GOLDEN_CELLS, CELL_HEADER)):
        rows = [line.split(",") for line in golden.decode().splitlines()[1:]]
        for data in _table_variants(header, rows, eol):
            _assert_parses_as_the_row_by_row_reader(data, header)


def test_spellings_only_float_accepts_still_read(tmp_path):
    nodes = tmp_path / "odd_nodes.csv"
    cells = tmp_path / "odd_cells.csv"
    nodes.write_bytes(GOLDEN_NODES.replace(b"0.30000000000000004", b"1_0"))
    cells.write_bytes(GOLDEN_CELLS.replace(b"1e+22", "١٢".encode()))
    layer = read_snapshot(nodes, cells, t=0.0)
    assert layer.r[1] == 10.0 and layer.p[1] == 12.0
