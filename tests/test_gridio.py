import numpy as np
import pytest

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import LevelSetDomain, classify_cells
from chemofluid.gridio import FormatError, load_state, read_grid, save_state
from chemofluid.solver import SimState

from conftest import write_grid


def test_grid_roundtrip_text(tmp_path):
    # a hand-written text body: ny rows of nx values, x fastest
    path = tmp_path / "g.txt"
    path.write_text("# chemofluid grid 1\n3 2\n-1 1 -2 2\n0.5 1 -2.25\n3e-3 4 5\n")
    loaded, bbox = read_grid(path)
    assert bbox == (-1.0, 1.0, -2.0, 2.0)
    assert np.array_equal(loaded, [[0.5, 3e-3], [1.0, 4.0], [-2.25, 5.0]])


def test_grid_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((6, 9))
    path = tmp_path / "g.bin"
    write_grid(path, vals, (0.0, 1.0, 0.0, 1.0))
    raw = path.read_bytes()
    assert raw.endswith(vals.T.astype("<f8").tobytes())   # rows of y, x fastest
    loaded, bbox = read_grid(path)
    assert bbox == (0.0, 1.0, 0.0, 1.0)
    assert np.array_equal(loaded, vals)


def test_grid_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a grid\n1 1\n0 1 0 1\n0.0\n")
    with pytest.raises(FormatError):
        read_grid(path)


MALFORMED_GRIDS = {
    # "1.0 2.0\n" is 8 bytes, one raw float64, still not 3x3 values
    "short_text": b"# chemofluid grid 1\n3 3\n0 1 0 1\n1.0 2.0\n",
    "short_text_odd_bytes": b"# chemofluid grid 1\n4 4\n0 1 0 1\n1 2 3\n",
    "short_binary": b"# chemofluid grid 1\n2 2\n0 1 0 1\n" + np.zeros(3, "<f8").tobytes(),
    "no_magic": b"hello\n2 2\n0 1 0 1\n1 2 3 4\n",
    "one_dim": b"# chemofluid grid 1\n2\n0 1 0 1\n1 2 3 4\n",
    "three_dims": b"# chemofluid grid 1\n2 2 2\n0 1 0 1\n1 2 3 4\n",
    "float_dims": b"# chemofluid grid 1\n2.5 2\n0 1 0 1\n1 2 3 4 5\n",
    "zero_dim": b"# chemofluid grid 1\n0 2\n0 1 0 1\n\n",
    "negative_dims": b"# chemofluid grid 1\n-2 -2\n0 1 0 1\n1 2 3 4\n",
    "bbox_text": b"# chemofluid grid 1\n2 2\n0 1 zero 1\n1 2 3 4\n",
    "bbox_short": b"# chemofluid grid 1\n2 2\n0 1 0\n1 2 3 4\n",
    "empty": b"",
}


def test_grid_truncated(tmp_path):
    for name, body in MALFORMED_GRIDS.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(body)
        with pytest.raises(FormatError):
            read_grid(path)


def test_state_roundtrip(tmp_path, disk64):
    rng = np.random.default_rng(2)
    st = SimState(
        ScalarField(disk64, np.where(disk64.active, rng.random((disk64.nx, disk64.ny)), 0.0)),
        ScalarField(disk64, np.where(disk64.active, rng.random((disk64.nx, disk64.ny)), 0.0)),
        VectorField.from_stream(disk64, lambda x, y: np.sin(x) * np.cos(y)),
        ScalarField(disk64, rng.standard_normal((disk64.nx, disk64.ny))),
        t=1.2345,
    )
    path = tmp_path / "state.bin"
    save_state(path, st)
    back = load_state(path, disk64)
    assert back.t == st.t
    assert np.array_equal(back.n.data, st.n.data)
    assert np.array_equal(back.c.data, st.c.data)
    assert np.array_equal(back.u.u, st.u.u)
    assert np.array_equal(back.u.v, st.u.v)
    assert np.array_equal(back.p.data, st.p.data)


def test_state_grid_mismatch(tmp_path, disk64, star64):
    st = SimState(ScalarField.zeros(disk64), ScalarField.zeros(disk64),
                  VectorField.zeros(disk64), ScalarField.zeros(disk64), 0.0)
    path = tmp_path / "state.bin"
    save_state(path, st)
    with pytest.raises(FormatError):
        load_state(path, star64)


# 32x32 disk: n, c, p on 32*32 cells, u on 33*32 and v on 32*33 faces
STATE_VALUES = 3 * 32 * 32 + 2 * 33 * 32

# each edits [magic, dims, bbox, time, body] of a valid checkpoint; the file is
# the list joined by newlines, so the body follows the time line's newline
MALFORMED_STATES = {
    "no_magic": lambda ls: [b"# chemofluid grid 1"] + ls[1:],
    "version_1": lambda ls: [b"# chemofluid state 1"] + ls[1:4]
                            + [b"0.00000000000000000e+00 " * STATE_VALUES],
    "one_dim": lambda ls: [ls[0], ls[1].split()[0]] + ls[2:],
    "float_dims": lambda ls: [ls[0], b"32.5 32"] + ls[2:],
    "text_dims": lambda ls: [ls[0], b"nx ny"] + ls[2:],
    "negative_dims": lambda ls: [ls[0], b"-32 -32"] + ls[2:],
    "bbox_three_numbers": lambda ls: ls[:2] + [b" ".join(ls[2].split()[:3])] + ls[3:],
    "bbox_text": lambda ls: ls[:2] + [b"-1.2 1.2 low 1.2"] + ls[3:],
    "bbox_nan": lambda ls: ls[:2] + [b"nan nan nan nan"] + ls[3:],
    # the same window one cell (h = 2.4 / 32) further right: another part of the grid
    "box_shifted_one_cell": lambda ls: ls[:2] + [b" ".join(
        b"%.17g" % (float(v) + (2.4 / 32 if k < 2 else 0.0))
        for k, v in enumerate(ls[2].split()))] + ls[3:],
    "time_text": lambda ls: ls[:3] + [b"soon"] + ls[4:],
    "time_two_numbers": lambda ls: ls[:3] + [b"0.0 1.0"] + ls[4:],
    "time_nan": lambda ls: ls[:3] + [b"nan"] + ls[4:],
    "time_inf": lambda ls: ls[:3] + [b"inf"] + ls[4:],
    "time_negative": lambda ls: ls[:3] + [b"-1.0"] + ls[4:],
    "time_missing": lambda ls: ls[:3] + ls[4:],
    "body_text": lambda ls: ls[:4] + [b"0.00000000000000000e+00 " * STATE_VALUES],
    "body_short": lambda ls: ls[:4] + [ls[4][:-8]],
    "body_long": lambda ls: ls[:4] + [ls[4] + bytes(8)],
    "body_binary": lambda ls: ls[:4] + [np.zeros(STATE_VALUES, "<f4").tobytes()],
    "binary_bytes": lambda ls: [bytes(range(256))],
    "empty": lambda ls: [],
}


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A 32x32 disk grid and the header lines plus body of a valid checkpoint on it."""
    g = classify_cells(LevelSetDomain.disk(1.0), 2.4 / 32)
    assert (g.nx, g.ny) == (32, 32)
    st = SimState(ScalarField.full(g, 1.0), ScalarField.full(g, 0.5),
                  VectorField.zeros(g), ScalarField.zeros(g), 0.25)
    path = tmp_path_factory.mktemp("ckpt") / "state.bin"
    save_state(path, st)
    assert load_state(path, g).t == 0.25
    parts = path.read_bytes().split(b"\n", 4)
    assert len(parts[4]) == 8 * STATE_VALUES
    return g, parts


@pytest.mark.parametrize("name", list(MALFORMED_STATES))
def test_state_malformed(tmp_path, small_checkpoint, name):
    g, parts = small_checkpoint
    path = tmp_path / f"{name}.bin"
    path.write_bytes(b"\n".join(MALFORMED_STATES[name](parts)))
    with pytest.raises(FormatError):
        load_state(path, g)
