import builtins
import dataclasses
import itertools
import math
import sys
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from conftest import advance, forget_snapshots, pulse_start


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


@pytest.mark.parametrize("bad", ("nan", "inf", "-inf"))
def test_reader_rejects_non_finite_midpoints(tmp_path, bad):
    paths = write_snapshot(_sample_layer(), tmp_path, step=0)
    text = paths["cells"].read_bytes().decode()
    first = text.split("\r\n")[1].split(",")[1]
    paths["cells"].write_text(text.replace(f"0,{first},", f"0,{bad},", 1), newline="")
    with pytest.raises(SnapshotError) as info:
        read_snapshot(paths["nodes"], paths["cells"])
    assert str(info.value) == f"{paths['cells']}: cell midpoints disagree with the nodal mesh"


def test_missing_tables_are_not_found_and_a_missing_sidecar_is_none(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7, tau=0.0125)
    through_a_file = paths["cells"] / "snap_nodes.csv"
    for missing in (tmp_path / "missing_nodes.csv", through_a_file):
        with pytest.raises(SnapshotError) as info:
            read_snapshot(missing, paths["cells"])
        assert str(info.value) == f"snapshot file not found: {missing}"
    assert read_snapshot_meta(through_a_file) is None
    paths["meta"].unlink()
    assert read_snapshot_meta(paths["nodes"]) is None
    assert read_snapshot(paths["nodes"], paths["cells"]).t == 0.0


def test_a_table_path_naming_a_directory_is_a_snapshot_error(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7, tau=0.0125)
    folder = tmp_path / "folder_nodes.csv"
    folder.mkdir()
    with pytest.raises(SnapshotError) as info:
        read_snapshot(folder, paths["cells"])
    assert str(info.value) == f"snapshot file is a directory: {folder}"


def test_a_sidecar_path_naming_a_directory_is_a_snapshot_error(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7, tau=0.0125)
    paths["meta"].unlink()
    paths["meta"].mkdir()
    for read in (lambda: read_snapshot_meta(paths["nodes"]),
                 lambda: read_snapshot(paths["nodes"], paths["cells"])):
        with pytest.raises(SnapshotError) as info:
            read()
        assert str(info.value) == f"snapshot file is a directory: {paths['meta']}"
    # an explicit time reads no sidecar
    assert read_snapshot(paths["nodes"], paths["cells"], t=0.5).t == 0.5


def test_a_file_not_named_like_a_nodes_table_has_no_sidecar(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7, tau=0.0125)
    assert paths["meta"].is_file() and read_snapshot_meta(paths["cells"]) is None


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
    (GOLDEN_NODES.replace(b"0.30000000000000004", b"nan"), "{path}:3: non-finite value 'nan'"),
    (GOLDEN_NODES.replace(b",1e+16,", b",-inf,"), "{path}:5: non-finite value '-inf'"),
    (GOLDEN_NODES.replace(b",1.2345678901234568e+17", b",1e999"), "{path}:5: non-finite value '1e999'"),
    (GOLDEN_NODES.replace(b"\r\n3,1.0000000000000002,", b"\r\n3,0.0001,"),
     "{path}: mass nodes must be strictly increasing; violated at interval 2"),
    (GOLDEN_NODES.replace(b"\r\n0,-0.0,", b"\r\n0,nan,"), "{path}: mass nodes must be finite"),
], ids=["short-row", "non-numeric", "trailing-blank-line", "quoted", "not-utf8", "header-only", "empty",
        "blank-line-mid-table", "spaces-only-line", "trailing-comma", "hash-in-field", "blank-lines-only",
        "nan-value", "inf-value", "overflowing-value", "nodes-not-increasing", "non-finite-node"])
def test_reader_error_messages(tmp_path, text, message):
    nodes = tmp_path / "bad_nodes.csv"
    cells = tmp_path / "good_cells.csv"
    nodes.write_bytes(text)
    cells.write_bytes(GOLDEN_CELLS)
    with pytest.raises(SnapshotError) as info:
        read_snapshot(nodes, cells, t=0.0)
    assert str(info.value) == message.format(path=nodes)


def test_a_snapshot_rewritten_in_place_reads_back_its_new_values(tmp_path, snapshot_reads):
    first = _sample_layer()
    paths = write_snapshot(first, tmp_path, step=7, tau=0.0125)
    _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), first)
    second = dataclasses.replace(first, u=first.u * 3.0, p=first.p + 1.0)
    assert write_snapshot(second, tmp_path, step=7, tau=0.0125) == paths
    _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), second)
    tables = [str(paths["nodes"]), str(paths["cells"])]
    assert snapshot_reads.tables == tables * 2
    # a sidecar is decoded on every read
    assert snapshot_reads.sidecars == [str(paths["meta"])] * 2
    paths["meta"].write_text('{"time": 0.5, "step": 8, "cells": 12}\n')
    _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), dataclasses.replace(second, t=0.5))
    assert read_snapshot_meta(paths["nodes"])["step"] == 8
    assert snapshot_reads.sidecars == [str(paths["meta"])] * 4
    assert snapshot_reads.tables == tables * 2
    assert snapshot_reads.layers == [first.t, first.t, 0.5]


def test_a_corrupt_table_raises_on_every_read_naming_its_path(tmp_path, snapshot_reads):
    bad = GOLDEN_NODES.replace(b"0.30000000000000004", b"abc")
    cells = tmp_path / "good_cells.csv"
    cells.write_bytes(GOLDEN_CELLS)
    paths = [tmp_path / "a_nodes.csv", tmp_path / "b_nodes.csv", tmp_path / "a_nodes.csv"]
    for nodes in paths:
        nodes.write_bytes(bad)
        with pytest.raises(SnapshotError) as info:
            read_snapshot(nodes, cells, t=0.0)
        assert str(info.value) == f"{nodes}:3: could not convert string to float: 'abc'"
    assert snapshot_reads.tables == list(map(str, paths))
    assert snapshots._HELD is None


def test_a_corrupt_sidecar_raises_on_every_read_naming_its_path(tmp_path, snapshot_reads):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7, tau=0.0125)
    paths["meta"].write_text('{"time": 0.5, "step": 7, "cells": 12, "tau": "x"}\n')
    for _ in range(2):
        with pytest.raises(SnapshotError) as info:
            read_snapshot(paths["nodes"], paths["cells"])
        assert str(info.value) == f"{paths['meta']}: 'tau' must be a finite float, got 'x'"
    assert snapshot_reads.sidecars == [str(paths["meta"])] * 2
    assert snapshot_reads.tables == [str(paths["nodes"]), str(paths["cells"])]


def test_the_reader_holds_at_most_one_snapshot(tmp_path, snapshot_reads):
    layer = _sample_layer()
    written = [write_snapshot(dataclasses.replace(layer, u=layer.u + k, p=layer.p + k), tmp_path, step=k)
               for k in range(3)]
    for paths in written:
        read_snapshot(paths["nodes"], paths["cells"])
    assert len(snapshot_reads.tables) == 6
    assert snapshots._HELD.nodes.data == written[2]["nodes"].read_bytes()
    # the last snapshot read is held; an earlier one is parsed again, and then held
    for paths in (written[2], written[0], written[0]):
        read_snapshot(paths["nodes"], paths["cells"])
    assert snapshot_reads.tables[6:] == [str(written[0]["nodes"]), str(written[0]["cells"])]
    assert snapshots._HELD.cells.data == written[0]["cells"].read_bytes()


def test_arrays_handed_out_are_read_only(tmp_path):
    paths = write_snapshot(_sample_layer(), tmp_path, step=7)
    nodes, cells = str(paths["nodes"]), str(paths["cells"])
    for t in (None, None, 0.5):  # parsed, then held, then built at another time
        layer = read_snapshot(nodes, cells, t=t)
        held = snapshots._HELD
        arrays = [held.nodes.rows, held.cells.rows, layer.mesh.s] + [getattr(layer, f) for f in ("r", "u", "rho", "p", "eps")]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


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


# --- incremental spelling --------------------------------------------------------

def test_a_rewrite_formats_only_the_values_whose_bits_changed(tmp_path, fresh_spellings, monkeypatch):
    spelled = []

    def counted(x):
        spelled.append(x)
        return builtins.repr(x)
    monkeypatch.setattr(snapshots, "repr", counted, raising=False)
    layer = _golden_layer()
    write_snapshot(layer, tmp_path, step=0)
    assert len(spelled) == 2 * 4 + 3 * 3
    spelled.clear()
    p, u = layer.p.copy(), layer.u.copy()
    p[1] = 5.0
    u[0] = 0.0  # was -0.0: equal as a value, but its bits and its spelling differ
    paths = write_snapshot(dataclasses.replace(layer, p=p, u=u), tmp_path, step=1)
    assert list(map(repr, spelled)) == ["0.0", "5.0"]
    assert paths["nodes"].read_bytes().splitlines()[1] == b"0,-0.0,0.0,0.0"


_FIELDS = ("r", "u", "rho", "p", "eps")
#: finite float64 values at the edges of repr's forms: signed zeros,
#: subnormals, the smallest normal and the largest finite value
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
          sys.float_info.max, -sys.float_info.max)
_VALUE = st.one_of(st.sampled_from(_EDGES), _FINITE)


def _base_layer(n_cells):
    mesh = MassMesh(np.linspace(0.0, 1.0, n_cells + 1))
    nodes, cells = np.linspace(0.5, 1.5, n_cells + 1), np.linspace(2.0, 3.0, n_cells)
    return GridLayer(mesh=mesh, t=0.0, r=nodes, u=-nodes, rho=cells, p=cells / 3, eps=cells / 7)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(writes=st.lists(st.tuples(st.sampled_from((5, 3)), st.lists(
    st.tuples(st.sampled_from(_FIELDS), st.integers(0, 5), _VALUE), max_size=8)),
    min_size=2, max_size=8))
def test_incremental_spelling_matches_a_fresh_write(fresh_spellings, writes):
    """Layers on two meshes, written interleaved into one directory, each with
    a few entries flipped, spell exactly as a write from an empty cache does."""
    fresh_spellings.clear()
    layers = {n_cells: _base_layer(n_cells) for n_cells in (5, 3)}
    with tempfile.TemporaryDirectory() as out_dir, tempfile.TemporaryDirectory() as fresh_dir:
        for k, (n_cells, flips) in enumerate(writes):
            fields = {name: getattr(layers[n_cells], name).copy() for name in _FIELDS}
            for name, i, value in flips:
                fields[name][i % fields[name].size] = value
            layer = layers[n_cells] = dataclasses.replace(layers[n_cells], t=float(k), **fields)
            paths = write_snapshot(layer, out_dir, step=k)
            with mock.patch.dict(snapshots._SPELLED, clear=True):
                fresh = write_snapshot(layer, fresh_dir, step=k)
            for key in ("nodes", "cells"):
                assert paths[key].read_bytes() == fresh[key].read_bytes()
            _assert_same_layer(read_snapshot(paths["nodes"], paths["cells"]), layer)


def test_writers_in_threads_each_spell_their_own_layer(tmp_path, fresh_spellings):
    """Threads share the column spellings; every file still spells its own
    layer as a write from an empty cache does."""
    base = _base_layer(40)
    layers = [dataclasses.replace(base, p=base.p + k * 1e-3 * (np.arange(40) % 3 == 0))
              for k in range(4)]
    expected = []
    for k, layer in enumerate(layers):
        with mock.patch.dict(snapshots._SPELLED, clear=True):
            paths = write_snapshot(layer, tmp_path / "fresh", step=k)
        expected.append(paths["cells"].read_bytes())
    wrong = []

    def writer(k):
        for j in range(60):
            m = (k + j) % len(layers)  # alternate so each write patches another thread's
            paths = write_snapshot(layers[m], tmp_path / f"thread{k}", step=m)
            if paths["cells"].read_bytes() != expected[m]:
                wrong.append((k, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(len(layers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_readers_in_threads_each_get_their_own_layer(tmp_path):
    """Threads share the held snapshot; every read still gives its own
    snapshot's layer bit for bit."""
    forget_snapshots()
    base = _base_layer(40)
    # each layer changes its own quarter of the lines, so a row held from
    # another snapshot than the one compared with is a wrong row
    layers = [dataclasses.replace(base, t=float(k), u=base.u + 1e-3 * (np.arange(41) % 4 == k),
                                  p=base.p + 1e-3 * (np.arange(40) % 4 == k))
              for k in range(4)]
    written = [write_snapshot(layer, tmp_path, step=k) for k, layer in enumerate(layers)]
    wrong = []

    def reader(k):
        for j in range(60):
            m = (k + j) % len(layers)  # alternate so each read follows another thread's
            try:
                _assert_same_layer(read_snapshot(written[m]["nodes"], written[m]["cells"]), layers[m])
            except AssertionError:
                wrong.append((k, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(len(layers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# --- the table parser against the row-by-row reader -----------------------------

def _row_by_row_parse(data, path, header):
    """The table parser as it was before numpy's reader took the conversion:
    str.split and float() on every field, and a value column (after the mesh
    column) finite.  The oracle for the tests below."""
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
    for lineno, row in enumerate(rows, start=2):
        for field in row[2:]:
            if not math.isfinite(float(field)):
                raise SnapshotError(f"{path}:{lineno}: non-finite value {field!r}")
    return table[:, 1:]


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308])
#: ways to respell one field; "\udcff" is written as the non-UTF-8 byte 0xff
_RESPELLINGS = [lambda f: "1_0", lambda f: "١٢", lambda f: f"\xa0{f}\xa0",
                lambda f: f + "#1", lambda f: "#" + f, lambda f: f'"{f}"', lambda f: "nan",
                lambda f: "-nan", lambda f: "inf", lambda f: "-inf", lambda f: f + "\udcff"]


def _table_variants(header, rows, eol):
    """A table's bytes, then those of every change of one field or line: a
    field dropped, added or respelled, a blank line inserted, or a line
    blanked."""
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
        yield table(lines[:k] + [""] + lines[k + 1:])


@st.composite
def table_bytes(draw):
    """The header, a table of finite values in repr form (subnormals, signed
    zeros and the largest doubles among them), LF or CRLF, as written, and
    that table as written or changed in one field or line."""
    header = draw(st.sampled_from([NODE_HEADER, CELL_HEADER]))
    values = st.lists(st.one_of(_FINITE, _EDGE_VALUES), min_size=len(header) - 1,
                      max_size=len(header) - 1)
    rows = [[str(i), *map(repr, draw(values))] for i in range(draw(st.integers(1, 6)))]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    variants = list(_table_variants(header, rows, eol))
    return header, variants[0], draw(st.sampled_from(variants))


def _parsed(held):
    """_parse_table against the held table, giving the columns after the
    index, as the row-by-row reader does."""
    return lambda data, path, header: snapshots._parse_table(data, path, header, held).rows[:, 1:]


def _parse_outcome(parse, data, header):
    """The parsed table's bits, or the SnapshotError message."""
    try:
        return parse(data, "t_nodes.csv", header).view(np.int64).tolist()
    except SnapshotError as exc:
        return str(exc)


def _assert_parses_as_the_row_by_row_reader(data, header, base):
    """Parsed cold, and right after the unchanged base table is held."""
    want = _parse_outcome(_row_by_row_parse, data, header)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _parse_outcome(_parsed(None), data, header) == want, data
        held = snapshots._parse_table(base, "base_nodes.csv", header, None)
        assert _parse_outcome(_parsed(held), data, header) == want, data


@settings(max_examples=600, deadline=None)
@given(table=table_bytes())
def test_table_parser_matches_the_row_by_row_reader(table):
    header, base, data = table
    _assert_parses_as_the_row_by_row_reader(data, header, base)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_every_one_field_change_of_the_golden_tables_parses_as_the_row_by_row_reader(eol):
    for golden, header in ((GOLDEN_NODES, NODE_HEADER), (GOLDEN_CELLS, CELL_HEADER)):
        rows = [line.split(",") for line in golden.decode().splitlines()[1:]]
        variants = list(_table_variants(header, rows, eol))
        for data in variants:
            _assert_parses_as_the_row_by_row_reader(data, header, variants[0])


# --- converting only the lines that changed -------------------------------------

def _cells_bytes(tmp_path, layer, name):
    return write_snapshot(layer, tmp_path / name, step=0)["cells"].read_bytes()


def _with_p_changed(layer, rows):
    p = layer.p.copy()
    p[rows] += 1.0
    return dataclasses.replace(layer, p=p)


@pytest.fixture
def converted(monkeypatch):
    """The number of lines of every np.loadtxt call."""
    counts = []

    def loadtxt(lines, *args, _real=np.loadtxt, **kwargs):
        counts.append(len(lines))
        return _real(lines, *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return counts


@pytest.mark.parametrize("k, lines", [(0, 0), (1, 1), (24, 24), (42, 42), (350, 350), (351, 400), (400, 400)])
def test_a_table_converts_only_the_lines_that_differ_from_the_held_one(tmp_path, converted, k, lines):
    """Up to 7 in 8 changed lines convert alone; beyond that, every line."""
    base = _base_layer(400)
    rows = np.random.default_rng(k).choice(400, k, replace=False)
    data = _cells_bytes(tmp_path, _with_p_changed(base, rows), "new")
    held = snapshots._parse_table(_cells_bytes(tmp_path, base, "base"), "base_cells.csv", CELL_HEADER, None)
    converted.clear()
    got = snapshots._parse_table(data, "new_cells.csv", CELL_HEADER, held)
    assert converted == ([lines] if lines else [])
    _assert_bit_equal(got.rows, snapshots._parse_table(data, "new_cells.csv", CELL_HEADER, None).rows)


def test_a_table_of_another_length_converts_every_line(tmp_path, converted):
    forget_snapshots()
    base = _base_layer(400)
    paths = write_snapshot(base, tmp_path / "base", step=0)
    read_snapshot(paths["nodes"], paths["cells"], t=0.0)
    shorter = dataclasses.replace(base, rho=base.rho[:399], p=base.p[:399], eps=base.eps[:399],
                                  mesh=MassMesh(base.mesh.s[:400]), r=base.r[:400], u=base.u[:400])
    paths = write_snapshot(shorter, tmp_path / "short", step=0)
    converted.clear()
    # 400 nodes lines against the held 401, and 399 cells lines against the held 400
    read_snapshot(paths["nodes"], paths["cells"], t=0.0)
    assert converted == [400, 399]


@pytest.mark.parametrize("bad, message", [
    (b"abc", "{path}:12: could not convert string to float: 'abc'"),
    (b"nan", "{path}:12: non-finite value 'nan'"),
    (None, "{path}: index column must run 0..399"),
], ids=["non-numeric", "non-finite", "bad-index"])
def test_a_failed_read_leaves_the_held_snapshot_as_it_was(tmp_path, converted, bad, message):
    forget_snapshots()
    base = _base_layer(400)
    paths = write_snapshot(base, tmp_path / "base", step=0)
    read_snapshot(paths["nodes"], paths["cells"], t=0.0)
    kept = snapshots._HELD
    lines = paths["cells"].read_bytes().split(b"\r\n")
    row = lines[11].split(b",")  # line 12 of the file, row 10
    if bad is None:
        row[0] = b"11"
    else:
        row[3] = bad
    lines[11] = b",".join(row)
    bad_cells = tmp_path / "bad_cells.csv"
    bad_cells.write_bytes(b"\r\n".join(lines))
    with pytest.raises(SnapshotError) as info:
        read_snapshot(paths["nodes"], bad_cells, t=0.0)
    assert str(info.value) == message.format(path=bad_cells)
    assert snapshots._HELD is kept
    converted.clear()
    good = write_snapshot(_with_p_changed(base, [3, 7]), tmp_path / "good", step=0)
    read_snapshot(good["nodes"], good["cells"], t=0.0)  # the same nodes table: held as it is
    assert converted == [2]


def test_spellings_only_float_accepts_still_read(tmp_path):
    nodes = tmp_path / "odd_nodes.csv"
    cells = tmp_path / "odd_cells.csv"
    nodes.write_bytes(GOLDEN_NODES.replace(b"0.30000000000000004", b"1_0"))
    cells.write_bytes(GOLDEN_CELLS.replace(b"1e+22", "١٢".encode()))
    layer = read_snapshot(nodes, cells, t=0.0)
    assert layer.r[1] == 10.0 and layer.p[1] == 12.0
