import numpy as np
import pytest

from chemofluid.fields import ScalarField, VectorField
from chemofluid.gridio import FormatError, load_state, read_grid, save_state, write_grid
from chemofluid.solver import SimState


def test_grid_roundtrip_text(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((7, 5))
    path = tmp_path / "g.txt"
    write_grid(path, vals, (-1.0, 1.0, -2.0, 2.0))
    loaded, bbox = read_grid(path)
    assert bbox == (-1.0, 1.0, -2.0, 2.0)
    assert np.array_equal(loaded, vals)


def test_grid_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((6, 9))
    path = tmp_path / "g.bin"
    write_grid(path, vals, (0.0, 1.0, 0.0, 1.0), binary=True)
    loaded, _ = read_grid(path)
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
        ScalarField.zeros(disk64),
        t=1.2345,
    )
    path = tmp_path / "state.txt"
    save_state(path, st)
    back = load_state(path, disk64)
    assert back.t == st.t
    assert np.array_equal(back.n.data, st.n.data)
    assert np.array_equal(back.c.data, st.c.data)
    assert np.array_equal(back.u.u, st.u.u)
    assert np.array_equal(back.u.v, st.u.v)


def test_state_grid_mismatch(tmp_path, disk64, star64):
    st = SimState(ScalarField.zeros(disk64), ScalarField.zeros(disk64),
                  VectorField.zeros(disk64), ScalarField.zeros(disk64), 0.0)
    path = tmp_path / "state.txt"
    save_state(path, st)
    with pytest.raises(FormatError):
        load_state(path, star64)
