"""Layer snapshots as plain CSV plus a JSON sidecar.

Two files per layer: nodal (i, s, r, u) and cell (i, s_mid, rho, p, eps)
tables, with floats written in shortest round-trip form so reading a
snapshot back reproduces every value bit for bit.  The sidecar records the
time stamp and step index.  The CSVs are directly plottable (e.g. gnuplot
with `set datafile separator ','`).
"""

import csv
import json
from pathlib import Path

import numpy as np

from .mesh import MassMesh
from .state import GridLayer


class SnapshotError(ValueError):
    """Snapshot files missing, malformed, or mutually inconsistent."""


NODE_HEADER = ("i", "s", "r", "u")
CELL_HEADER = ("i", "s_mid", "rho", "p", "eps")


def _fmt(x) -> str:
    return repr(float(x))


def snapshot_basename(step: int, t: float) -> str:
    return f"snap_{step:06d}_t{t:.9g}"


def write_snapshot(layer: GridLayer, out_dir, step: int,
                   tau: float | None = None) -> dict[str, Path]:
    """Write one layer; returns the paths keyed by 'nodes', 'cells', 'meta'."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = snapshot_basename(step, layer.t)
    paths = {
        "nodes": out_dir / f"{base}_nodes.csv",
        "cells": out_dir / f"{base}_cells.csv",
        "meta": out_dir / f"{base}_meta.json",
    }
    s = layer.mesh.s
    with open(paths["nodes"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NODE_HEADER)
        for i in range(layer.mesh.n_nodes):
            writer.writerow((i, _fmt(s[i]), _fmt(layer.r[i]), _fmt(layer.u[i])))
    mid = layer.mesh.midpoints
    with open(paths["cells"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CELL_HEADER)
        for i in range(layer.mesh.n_cells):
            writer.writerow((i, _fmt(mid[i]), _fmt(layer.rho[i]),
                             _fmt(layer.p[i]), _fmt(layer.eps[i])))
    meta = {"time": layer.t, "step": step, "cells": layer.mesh.n_cells}
    if tau is not None:
        meta["tau"] = tau
    with open(paths["meta"], "w") as fh:
        json.dump(meta, fh)
        fh.write("\n")
    return paths


def _read_table(path, header: tuple[str, ...]) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"snapshot file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader)
        except StopIteration:
            raise SnapshotError(f"empty snapshot file: {path}") from None
        if tuple(head) != header:
            raise SnapshotError(f"unexpected header in {path}: {head!r}, want {list(header)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SnapshotError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise SnapshotError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise SnapshotError(f"no data rows in {path}")
    table = np.asarray(rows)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise SnapshotError(f"{path}: index column must run 0..{table.shape[0] - 1}")
    return table[:, 1:]


def read_snapshot(nodes_path, cells_path, t: float | None = None) -> GridLayer:
    """Rebuild a layer from its two CSV files.

    The time stamp comes from the explicit argument if given, else from the
    sidecar _meta.json next to the nodal file, else defaults to 0.
    """
    nodes = _read_table(nodes_path, NODE_HEADER)
    cells = _read_table(cells_path, CELL_HEADER)
    if cells.shape[0] != nodes.shape[0] - 1:
        raise SnapshotError(
            f"{cells_path}: {cells.shape[0]} cells do not match {nodes.shape[0]} nodes")
    mesh = MassMesh(nodes[:, 0])
    if not np.allclose(cells[:, 0], mesh.midpoints, rtol=0.0, atol=1e-12 * (1 + np.abs(mesh.midpoints)).max()):
        raise SnapshotError(f"{cells_path}: cell midpoints disagree with the nodal mesh")
    if t is None:
        t = float((read_snapshot_meta(nodes_path) or {}).get("time", 0.0))
    return GridLayer(mesh=mesh, t=t, r=nodes[:, 1], u=nodes[:, 2],
                     rho=cells[:, 1], p=cells[:, 2], eps=cells[:, 3])


def read_snapshot_meta(nodes_path) -> dict | None:
    """Sidecar metadata for a nodal snapshot file, or None if absent."""
    path = Path(str(nodes_path).replace("_nodes.csv", "_meta.json"))
    if not path.exists() or path == Path(nodes_path):
        return None
    with open(path) as fh:
        return json.load(fh)
