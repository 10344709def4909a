"""Flat grid files (read) and simulation checkpoints (written and read).

Both start with a text header, then hold raw little-endian float64 blocks,
each in rows of y with x fastest:

    # chemofluid grid 1              # chemofluid state 2
    nx ny                            nx ny
    xlo xhi ylo yhi                  xlo xhi ylo yhi
    <one block, nx by ny>            t
                                     <blocks n, c, u, v, p>

A grid file holds one scalar sampled on a regular grid over the bounding box;
read_grid also accepts a text body of ny rows of nx values, since grid files
come from outside the program. A checkpoint holds a full simulation state on
the geometry's stored window, and its box is the box that window covers
(GridGeometry.window_box); docs/csv_schema.md lists its block shapes. The
checkpoint write is atomic.
"""

from __future__ import annotations

import os

import numpy as np

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import GridGeometry
from chemofluid.solver import SimState

GRID_MAGIC = "# chemofluid grid 1"
STATE_MAGIC = "# chemofluid state 2"


class FormatError(ValueError):
    """Malformed grid or checkpoint file."""


def _write(path, magic: str, shape, bbox, blocks, *header_lines):
    """Atomically write the header (magic, dims, bbox, header_lines), then each
    block (indexed x-first) as raw little-endian float64, rows of y, x fastest."""
    nx, ny = shape
    header = [magic, f"{nx} {ny}", " ".join("%.17g" % b for b in bbox), *header_lines]
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for block in blocks:
            fh.write(np.asarray(block, dtype="<f8").T.tobytes())
    os.replace(tmp, path)


def _read_header(fh, path, magic: str):
    """(nx, ny, bbox) of a binary-mode file: FormatError unless its first line is
    magic, its dims two positive ints and its bbox four numbers."""
    first, dims, bbox_text = (fh.readline().decode(errors="replace").strip() for _ in range(3))
    if first != magic:
        raise FormatError(f"{path}: expected header {magic!r}, found {first!r}")
    try:
        nx, ny = (int(v) for v in dims.split())
    except ValueError:
        nx = ny = 0
    if min(nx, ny) <= 0:
        raise FormatError(f"{path}: dims must be two positive integers, found {dims!r}")
    try:
        bbox = tuple(float(v) for v in bbox_text.split())
    except ValueError:
        bbox = ()
    if len(bbox) != 4:
        raise FormatError(f"{path}: bbox must be 4 numbers, found {bbox_text!r}")
    return nx, ny, bbox


def _text_values(raw: bytes):
    """The whitespace-separated numbers of raw as a float array, or None."""
    try:
        return np.array(raw.decode("ascii").split(), dtype=float)
    except (UnicodeDecodeError, ValueError):
        return None


def read_grid(path):
    """Returns (values, bbox); values[i, j] indexed x-first.

    Raises FormatError for a malformed header or a body that is neither nx*ny
    text values nor 8*nx*ny raw bytes.
    """
    with open(path, "rb") as fh:
        nx, ny, bbox = _read_header(fh, path, GRID_MAGIC)
        rest = fh.read()
    rows = _text_values(rest)
    if rows is None or rows.size != nx * ny:
        if len(rest) != 8 * nx * ny:
            raise FormatError(f"{path}: expected {nx * ny} text values or {8 * nx * ny} "
                              f"binary bytes, found {len(rest)} bytes")
        rows = np.frombuffer(rest, dtype="<f8")
    return rows.reshape(ny, nx).T.copy(), bbox


def save_state(path, state: SimState):
    g = state.n.geom
    blocks = (state.n.data, state.c.data, state.u.u, state.u.v, state.p.data)
    _write(path, STATE_MAGIC, (g.nx, g.ny), g.window_box, blocks, "%.17e" % state.t)


def load_state(path, geom: GridGeometry) -> SimState:
    """The checkpoint at path on geom; FormatError for a malformed or foreign file."""
    with open(path, "rb") as fh:
        nx, ny, bbox = _read_header(fh, path, STATE_MAGIC)
        t_line = fh.readline()
        body = fh.read()
    if (nx, ny) != (geom.nx, geom.ny):
        raise FormatError(f"{path}: grid {nx}x{ny} does not match geometry "
                          f"{geom.nx}x{geom.ny}")
    if not all(abs(a - b) <= 1e-12 for a, b in zip(bbox, geom.window_box)):
        raise FormatError(f"{path}: box {bbox} does not match the geometry's window "
                          f"{geom.window_box}")
    t = _text_values(t_line)
    if t is None or t.size != 1 or not np.isfinite(t[0]) or t[0] < 0.0:
        raise FormatError(f"{path}: time must be one finite number >= 0, found {t_line[:40]!r}")
    shapes = [(nx, ny), (nx, ny), (nx + 1, ny), (nx, ny + 1), (nx, ny)]
    ends = np.cumsum([a * b for a, b in shapes])
    if len(body) != 8 * ends[-1]:
        raise FormatError(f"{path}: expected {8 * ends[-1]} bytes of float64 blocks, "
                          f"found {len(body)}")
    flat = np.frombuffer(body, dtype="<f8")
    n, c, uu, vv, p = (flat[end - a * b:end].reshape(b, a).T.copy()
                       for (a, b), end in zip(shapes, ends))
    return SimState(ScalarField(geom, n), ScalarField(geom, c),
                    VectorField(geom, uu, vv), ScalarField(geom, p), float(t[0]))
