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


def read_grid(path):
    """Returns (values, bbox); values[i, j] indexed x-first.

    Raises FormatError for a malformed header (dims that are not two positive
    ints, a bbox that is not four numbers) or a body that is neither nx*ny
    text values nor 8*nx*ny raw bytes.
    """
    with open(path, "rb") as fh:
        magic, dims, bbox_text = (fh.readline().decode(errors="replace").strip() for _ in range(3))
        rest = fh.read()
    if magic != GRID_MAGIC:
        raise FormatError(f"{path}: not a grid file (header {magic!r})")
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
    try:
        rows = np.array(rest.decode("ascii").split(), dtype=float)
    except (UnicodeDecodeError, ValueError):
        rows = None
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
    with open(path) as fh:
        if fh.readline().strip() != STATE_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        nx, ny = (int(v) for v in fh.readline().split())
        if (nx, ny) != (geom.nx, geom.ny):
            raise FormatError(f"{path}: grid {nx}x{ny} does not match geometry "
                              f"{geom.nx}x{geom.ny}")
        bbox = tuple(float(v) for v in fh.readline().split())
        if any(abs(a - b) > 1e-12 for a, b in zip(bbox, geom.bbox)):
            raise FormatError(f"{path}: bounding box mismatch")
        t = float(fh.readline())
        flat = np.array(fh.read().split(), dtype=float)
    sizes = [nx * ny, nx * ny, (nx + 1) * ny, nx * (ny + 1), nx * ny]
    if flat.size != sum(sizes):
        raise FormatError(f"{path}: expected {sum(sizes)} values, found {flat.size}")
    blocks = []
    off = 0
    for size, shape in zip(sizes, [(nx, ny), (nx, ny), (nx + 1, ny), (nx, ny + 1), (nx, ny)]):
        blocks.append(flat[off:off + size].reshape(shape[1], shape[0]).T.copy())
        off += size
    n, c, uu, vv, p = blocks
    return SimState(ScalarField(geom, n), ScalarField(geom, c),
                    VectorField(geom, uu, vv), ScalarField(geom, p), t)
