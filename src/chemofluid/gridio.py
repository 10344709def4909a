"""Flat grid file format and simulation checkpoints.

A grid file holds one scalar block sampled on a regular grid over a bounding
box. Text layout:

    # chemofluid grid 1
    nx ny
    xlo xhi ylo yhi
    <ny rows, each with nx values, x fastest within a row>

The binary variant replaces the value rows with raw little-endian float64 in
the same order. Checkpoints serialize a full simulation state (grid header,
time, then blocks n, c, u, v, p).
"""

from __future__ import annotations

import os

import numpy as np

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import GridGeometry
from chemofluid.solver import SimState

GRID_MAGIC = "# chemofluid grid 1"
STATE_MAGIC = "# chemofluid state 1"


class FormatError(ValueError):
    """Malformed grid or checkpoint file."""


def _values_to_rows(values: np.ndarray) -> np.ndarray:
    # values[i, j] with i the x index; file rows iterate y, x fastest
    return values.T


def write_grid(path, values: np.ndarray, bbox, binary: bool = False):
    values = np.asarray(values, dtype=float)
    nx, ny = values.shape
    header = f"{GRID_MAGIC}\n{nx} {ny}\n" + " ".join("%.17g" % b for b in bbox) + "\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode())
            fh.write(_values_to_rows(values).astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header)
            for row in _values_to_rows(values):
                fh.write(" ".join("%.17e" % v for v in row) + "\n")


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
    lines = [STATE_MAGIC,
             f"{g.nx} {g.ny}",
             " ".join("%.17g" % b for b in g.bbox),
             "%.17e" % state.t]
    for block in (state.n.data, state.c.data, state.u.u, state.u.v, state.p.data):
        for row in block.T:
            lines.append(" ".join("%.17e" % v for v in row))
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_state(path, geom: GridGeometry) -> SimState:
    """The checkpoint at path on geom; FormatError for a malformed or foreign file."""
    with open(path, "rb") as fh:
        nx, ny, bbox = _read_header(fh, path, STATE_MAGIC)
        t_line = fh.readline()
        flat = _text_values(fh.read())
    if (nx, ny) != (geom.nx, geom.ny):
        raise FormatError(f"{path}: grid {nx}x{ny} does not match geometry "
                          f"{geom.nx}x{geom.ny}")
    if not all(abs(a - b) <= 1e-12 for a, b in zip(bbox, geom.bbox)):
        raise FormatError(f"{path}: bounding box mismatch")
    t = _text_values(t_line)
    if t is None or t.size != 1:
        raise FormatError(f"{path}: time must be one number, found {t_line[:40]!r}")
    sizes = [nx * ny, nx * ny, (nx + 1) * ny, nx * (ny + 1), nx * ny]
    if flat is None or flat.size != sum(sizes):
        raise FormatError(f"{path}: expected {sum(sizes)} numeric values")
    blocks = []
    off = 0
    for size, shape in zip(sizes, [(nx, ny), (nx, ny), (nx + 1, ny), (nx, ny + 1), (nx, ny)]):
        blocks.append(flat[off:off + size].reshape(shape[1], shape[0]).T.copy())
        off += size
    n, c, uu, vv, p = blocks
    return SimState(ScalarField(geom, n), ScalarField(geom, c),
                    VectorField(geom, uu, vv), ScalarField(geom, p), float(t[0]))
