"""Layer snapshots as plain CSV plus a JSON sidecar.

Two files per layer: nodal (i, s, r, u) and cell (i, s_mid, rho, p, eps)
tables, with floats written in shortest round-trip form so reading a
snapshot back reproduces every value bit for bit.  Fields are unquoted and
lines end in CRLF; the reader also accepts LF.  The sidecar records the
time stamp and step index.  The CSVs are directly plottable (e.g. gnuplot
with `set datafile separator ','`).

Tables are converted by numpy's C reader, which rounds as float() does; a
row-by-row walk with float() names a bad line and reads the spellings only
float() accepts.  The reader keeps the last few tables it parsed, keyed by
their exact bytes, so a file rewritten in place is always parsed afresh.
"""

import collections
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .mesh import MassMesh
from .state import GridLayer


class SnapshotError(ValueError):
    """Snapshot files missing, malformed, or mutually inconsistent."""


NODE_HEADER = ("i", "s", "r", "u")
CELL_HEADER = ("i", "s_mid", "rho", "p", "eps")


@functools.lru_cache(maxsize=4)
def _mesh_columns(s_bytes: bytes) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The leading "i,s" and "i,s_mid" fields of every row, keyed by the mesh's node bytes."""
    mesh = MassMesh(np.frombuffer(s_bytes))
    return tuple(tuple(map("{},{!r}".format, itertools.count(), x.tolist())) for x in (mesh.s, mesh.midpoints))


def _write_table(path: Path, header: tuple[str, ...], leading, *fields: np.ndarray) -> None:
    rows = map(",".join, zip(leading, *(map(repr, f.tolist()) for f in fields)))
    path.write_text(",".join(header) + "\r\n" + "\r\n".join(rows) + "\r\n", newline="")


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
    nodes, cells = _mesh_columns(layer.mesh.s.tobytes())
    _write_table(paths["nodes"], NODE_HEADER, nodes, layer.r, layer.u)
    _write_table(paths["cells"], CELL_HEADER, cells, layer.rho, layer.p, layer.eps)
    meta = {"time": layer.t, "step": step, "cells": layer.mesh.n_cells}
    if tau is not None:
        meta["tau"] = tau
    paths["meta"].write_text(json.dumps(meta) + "\n")
    return paths


#: parsed tables by (file bytes, header), least recently read first; four is
#: the two tables of each of the last two snapshots, so a series audit of
#: consecutive pairs parses the snapshot the pairs share once
_TABLES: collections.OrderedDict[tuple[bytes, tuple[str, ...]], np.ndarray] = collections.OrderedDict()
_TABLES_HELD = 4


def _read_table(path, header: tuple[str, ...]) -> np.ndarray:
    """The table's value columns, read-only; a table whose exact bytes were
    among the last _TABLES_HELD read is not parsed again."""
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"snapshot file not found: {path}")
    data = path.read_bytes()
    key = (data, header)
    table = _TABLES.get(key)
    if table is None:
        table = _parse_table(data, path, header)
        table.setflags(write=False)
        _TABLES[key] = table
        if len(_TABLES) > _TABLES_HELD:
            _TABLES.popitem(last=False)
    else:
        _TABLES.move_to_end(key)
    return table


def _parse_table(data: bytes, path: Path, header: tuple[str, ...]) -> np.ndarray:
    lines = data.decode(errors="replace").splitlines()  # U+FFFD parses as nothing
    if not lines:
        raise SnapshotError(f"empty snapshot file: {path}")
    head = lines[0].split(",") if lines[0] else []
    if tuple(head) != header:
        raise SnapshotError(f"unexpected header in {path}: {head!r}, want {list(header)}")
    body = lines[1:]
    if not body:
        raise SnapshotError(f"no data rows in {path}")
    width = len(header)
    try:
        # numpy's C reader rounds as float() does, but skips blank lines (and
        # warns when none are left): the first line and the shape are checked
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body[0] else None
    except ValueError:
        table = None
    if table is None or table.shape != (len(body), width):
        # The row walk names the first bad line, and reads what only float()
        # accepts (1_000, non-ASCII digits).
        rows = []
        for lineno, line in enumerate(body, start=2):
            row = line.split(",")
            if len(row) != width:
                raise SnapshotError(f"{path}:{lineno}: expected {width} columns")
            try:
                rows.append(list(map(float, row)))
            except ValueError as exc:
                raise SnapshotError(f"{path}:{lineno}: {exc}") from None
        table = np.array(rows)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise SnapshotError(f"{path}: index column must run 0..{table.shape[0] - 1}")
    return table[:, 1:]


def read_snapshot(nodes_path, cells_path, t: float | None = None) -> GridLayer:
    """Rebuild a layer from its two CSV files.

    The time stamp comes from the explicit argument if given, else from the
    sidecar _meta.json next to the nodal file, else defaults to 0.  A
    sidecar read here must agree with the tables' cell count.
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
        t = float((read_snapshot_meta(nodes_path, mesh.n_cells) or {}).get("time", 0.0))
    return GridLayer(mesh=mesh, t=t, r=nodes[:, 1], u=nodes[:, 2],
                     rho=cells[:, 1], p=cells[:, 2], eps=cells[:, 3])


def read_snapshot_meta(nodes_path, n_cells: int | None = None) -> dict | None:
    """Sidecar metadata for a nodal snapshot file, or None if absent; a
    sidecar whose 'cells' is not n_cells (when given) is a SnapshotError.

    The sidecar of `<base>_nodes.csv` is `<base>_meta.json` in the same
    directory; a file whose name does not end in `_nodes.csv` has none."""
    nodes_path = Path(nodes_path)
    stem = nodes_path.name.removesuffix("_nodes.csv")
    path = nodes_path.with_name(stem + "_meta.json")
    if stem == nodes_path.name or not path.exists():
        return None
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise SnapshotError(f"{path}: not a JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise SnapshotError(f"{path}: sidecar must hold a JSON object, got {type(meta).__name__}")
    for key, kinds in (("time", (int, float)), ("tau", (int, float)),
                       ("step", (int,)), ("cells", (int,))):
        if key in meta and not (type(meta[key]) in kinds and abs(meta[key]) <= sys.float_info.max):
            raise SnapshotError(f"{path}: '{key}' must be a finite {kinds[-1].__name__}, got {meta[key]!r}")
    if n_cells is not None and meta.get("cells", n_cells) != n_cells:
        raise SnapshotError(f"{path}: sidecar says {meta['cells']} cells, expected {n_cells}")
    return meta
