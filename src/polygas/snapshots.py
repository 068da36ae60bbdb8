"""Layer snapshots as plain CSV plus a JSON sidecar.

Two files per layer: nodal (i, s, r, u) and cell (i, s_mid, rho, p, eps)
tables, with floats written in shortest round-trip form so reading a
snapshot back reproduces every value bit for bit.  A value whose bits match
the previous write of its column is not formatted again.  Fields are
unquoted and lines end in CRLF; the reader also accepts LF.  The sidecar
records the time stamp and step index.  The CSVs are directly plottable
(e.g. gnuplot with `set datafile separator ','`).

Tables are converted by numpy's C reader, which rounds as float() does; a
row-by-row walk with float() names a bad line and reads the spellings only
float() accepts.  The reader keeps one memory, the last snapshot it read: a
read whose two tables' bytes equal its own returns it, and any other read
converts only the lines whose text differs from its table of that kind, as
the writer spells only the values whose bits changed, and keeps its mesh
where the node column's bytes match.  A file rewritten in place is thus read
afresh, every check runs on every new table, and an error is never kept.
"""

import collections
import functools
import itertools
import json
import operator
import os
import sys
from pathlib import Path

import numpy as np

from .mesh import MassMesh, MeshError
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


#: the last column written under each (header, column name): its bits and
#: its spelled values, so the next write of that column formats only the
#: values whose bits changed (bits, not values: -0.0 == 0.0 spells differently).
#: A held list is never changed, so writers in threads need no lock.
_SPELLED: dict[tuple[tuple[str, ...], str], tuple[np.ndarray, list[str]]] = {}


def _spelled(key: tuple[tuple[str, ...], str], f: np.ndarray) -> list[str]:
    """repr of every value of f, reusing the last spelling of its column where the bits match."""
    bits = f.view(np.uint64)
    held = _SPELLED.get(key)
    if held is None or held[0].shape != bits.shape:
        spelled = list(map(repr, f.tolist()))
    else:
        changed = np.flatnonzero(bits != held[0])
        spelled = held[1].copy()
        for i, x in zip(changed.tolist(), f[changed].tolist()):
            spelled[i] = repr(x)
    _SPELLED[key] = (bits.copy(), spelled)
    return spelled


def _write_table(path: Path, header: tuple[str, ...], leading, *fields: np.ndarray) -> None:
    columns = (_spelled((header, name), f) for name, f in zip(header[2:], fields))
    rows = map(",".join, zip(leading, *columns))
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


def _read_file(path: str) -> bytes | None:
    """The file's bytes, or None where there is no file; a directory is a SnapshotError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (FileNotFoundError, NotADirectoryError):
        return None
    except IsADirectoryError:
        raise SnapshotError(f"snapshot file is a directory: {path}") from None


#: a checked table: its bytes, its body lines and its read-only rows, index column first
_Table = collections.namedtuple("_Table", "data body rows")


class _Snapshot:
    """One snapshot's checked tables, its mesh and the layer last read from them."""
    layer = None

    def __init__(self, mesh: MassMesh, nodes: _Table, cells: _Table):
        self.mesh, self.nodes, self.cells = mesh, nodes, cells

    def at(self, t: float) -> GridLayer:
        """The layer at time t, built afresh only for another t than the last
        (by repr, so -0.0 is not 0.0)."""
        layer = self.layer
        if layer is None or repr(layer.t) != repr(t):
            n, c = self.nodes.rows, self.cells.rows
            layer = self.layer = GridLayer(mesh=self.mesh, t=t, r=n[:, 2], u=n[:, 3],
                                           rho=c[:, 2], p=c[:, 3], eps=c[:, 4])
        return layer


#: the last snapshot read (read_snapshot).  It is replaced whole, and only its
#: layer ever changes, so readers in threads need no lock.
_HELD: _Snapshot | None = None


def _convert(lines: list[str], width: int) -> np.ndarray | None:
    """The lines converted by numpy's C reader, or None where it fails.  It
    skips blank lines (and warns when none are left), so the first line and
    the shape are checked: a blank line anywhere is None."""
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if lines[0] else None
    except ValueError:
        return None
    return table if table is not None and table.shape == (len(lines), width) else None


def _parse_table(data: bytes | None, path: str, header: tuple[str, ...],
                 held: _Table | None) -> _Table:
    """The checked table in data; every value but the mesh column's (checked
    as a mesh) must be finite.  None is a missing file.  held, the last table
    of this header or None, gives the rows of the lines whose text is its own."""
    if data is None:
        raise SnapshotError(f"snapshot file not found: {path}")
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
    held_body, table = (held.body, held.rows) if held is not None else ((), None)
    changed = range(len(body))
    if len(held_body) == len(body):
        changed = list(itertools.compress(changed, map(operator.ne, body, held_body)))
    if 8 * len(changed) > 7 * len(body):  # then picking out the lines costs more than it saves
        table = _convert(body, width)
    elif changed:  # a line's text gives its row, so only changed lines convert
        fresh = _convert([body[i] for i in changed], width)
        if fresh is not None:
            table = table.copy()
            table[changed] = fresh
        else:
            table = None
    if table is None:
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
    finite = np.isfinite(table[:, 2:])
    if not finite.all():
        row, col = np.argwhere(~finite)[0].tolist()
        raise SnapshotError(f"{path}:{row + 2}: non-finite value {body[row].split(',')[col + 2]!r}")
    table.setflags(write=False)
    return _Table(data, body, table)


def read_snapshot(nodes_path, cells_path, t: float | None = None) -> GridLayer:
    """Rebuild a layer from its two CSV files.

    The time stamp comes from the explicit argument if given, else from the
    sidecar _meta.json next to the nodal file, else defaults to 0.  A
    sidecar read here must agree with the tables' cell count.
    """
    global _HELD
    nodes_path, cells_path = os.fspath(nodes_path), os.fspath(cells_path)
    nodes_data, cells_data, held = _read_file(nodes_path), _read_file(cells_path), _HELD
    # the held snapshot where both tables' bytes are its own, else the one
    # parsed and checked against it, held in its place once every check passed
    if held is None or nodes_data != held.nodes.data or cells_data != held.cells.data:
        nodes = _parse_table(nodes_data, nodes_path, NODE_HEADER, held and held.nodes)
        cells = _parse_table(cells_data, cells_path, CELL_HEADER, held and held.cells)
        if cells.rows.shape[0] != nodes.rows.shape[0] - 1:
            raise SnapshotError(
                f"{cells_path}: {cells.rows.shape[0]} cells do not match {nodes.rows.shape[0]} nodes")
        s = nodes.rows[:, 1]
        try:  # bytes, not values: a -0.0 node is another mesh
            mesh = held.mesh if held and held.mesh.s.tobytes() == s.tobytes() else MassMesh(s)
        except MeshError as exc:
            raise SnapshotError(f"{nodes_path}: {exc}") from None
        mid = mesh.midpoints
        if not (np.abs(cells.rows[:, 1] - mid) <= 1e-12 * (1 + np.abs(mid).max())).all():
            raise SnapshotError(f"{cells_path}: cell midpoints disagree with the nodal mesh")
        _HELD = held = _Snapshot(mesh, nodes, cells)
    if t is None:
        t = float((read_snapshot_meta(nodes_path, held.mesh.n_cells) or {}).get("time", 0.0))
    return held.at(t)


def read_snapshot_meta(nodes_path, n_cells: int | None = None) -> dict | None:
    """Sidecar metadata for a nodal snapshot file, or None if absent; a
    sidecar whose 'cells' is not n_cells (when given) is a SnapshotError.

    The sidecar of `<base>_nodes.csv` is `<base>_meta.json` in the same
    directory; a file whose name does not end in `_nodes.csv` has none."""
    nodes_path = os.fspath(nodes_path)
    if not nodes_path.endswith("_nodes.csv"):
        return None
    path = _sidecar_path(nodes_path)
    data = _read_file(path)
    if data is None:
        return None
    meta = _sidecar(path, data)
    if n_cells is not None:
        _check_cells(meta, nodes_path, n_cells)
    return meta


def _sidecar_path(nodes_path: str) -> str:
    return nodes_path.removesuffix("_nodes.csv") + "_meta.json"


def _check_cells(meta: dict, nodes_path: str, n_cells: int) -> None:
    """A sidecar's 'cells', where it has one, must be its tables' n_cells."""
    if meta.get("cells", n_cells) != n_cells:
        raise SnapshotError(f"{_sidecar_path(nodes_path)}: sidecar says {meta['cells']} cells, "
                            f"expected {n_cells}")


def _sidecar(path: str, data: bytes) -> dict:
    """The checked sidecar decoded from these bytes."""
    try:
        meta = json.loads(data.decode())
    except ValueError as exc:
        raise SnapshotError(f"{path}: not a JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise SnapshotError(f"{path}: sidecar must hold a JSON object, got {type(meta).__name__}")
    for key, kinds in (("time", (int, float)), ("tau", (int, float)),
                       ("step", (int,)), ("cells", (int,))):
        if key in meta and not (type(meta[key]) in kinds and abs(meta[key]) <= sys.float_info.max):
            raise SnapshotError(f"{path}: '{key}' must be a finite {kinds[-1].__name__}, got {meta[key]!r}")
    return meta
