import dataclasses
import math

import numpy as np
import pytest

from polygas import (
    SnapshotError,
    make_initial_layer,
    problem_library,
    read_snapshot,
    read_snapshot_meta,
    write_snapshot,
)
from polygas.snapshots import snapshot_basename
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
