import functools
import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _csv_rows import write_rows
from purcell_cool import cli, hamiltonian
from purcell_cool.config import parse_config

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
B = cli.BLOCK_ROWS
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
           2.2250738585072009e-308, 1.0, 0.1]
ELEMENTS = {
    np.float64: st.floats() | st.sampled_from(SPECIAL),
    np.int64: st.integers(-(2**63), 2**63 - 1),
    np.uint64: st.integers(2**63, 2**64 - 1),  # past int64
    np.bool_: st.booleans(),
    object: st.text(max_size=6),
}


def _writer(directory, digests=None):
    """The writer cli.run hands a subcommand, into directory."""
    return functools.partial(cli._write_output, Path(directory),
                             {} if digests is None else digests)


@st.composite
def _column(draw, n):
    """n entries of one dtype drawn from a small pool in runs of 1 to 40,
    as an array or, for numbers, as a list of Python scalars."""
    dtype = draw(st.sampled_from(list(ELEMENTS)))
    pool = np.array(draw(st.lists(ELEMENTS[dtype], min_size=1, max_size=6)), dtype=dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = np.repeat(rng.integers(len(pool), size=n), rng.integers(1, 41, size=n))[:n]
    column = pool[picks]
    if dtype is not object and draw(st.booleans()):
        return column.tolist()
    return column


@st.composite
def _tables(draw):
    """Columns of one length, block edges included; a column may be given
    more than once."""
    n = draw(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]) | st.integers(0, 40))
    columns = draw(st.lists(_column(n), min_size=1, max_size=4))
    order = draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, max_size=6))
    return [columns[i] for i in order]


@settings(max_examples=120, deadline=None)
@given(columns=_tables())
@example(columns=[np.array([0.0, -0.0, -0.0, 0.0, math.nan, -math.nan, 5e-324, 5e-324])])
@example(columns=[np.zeros(B + 1), np.arange(B + 1)] * 2)
@example(columns=[np.array(["a", "b,c", ""], dtype=object), [True, False, True]])
def test_block_writer_bytes_equal_the_row_writer(columns):
    header = [f"c{k}" for k in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        digests = {}
        cli._write_csv(_writer(tmp, digests), got.name, header, *columns)
        write_rows(want, header, *columns)
        assert got.read_bytes() == want.read_bytes()
        assert digests == {got.name: hashlib.sha256(want.read_bytes()).hexdigest()}


@pytest.mark.parametrize("columns", [
    ([1.0, 2.0], [1.0]),
    (np.zeros(B + 1), np.zeros(B)),  # unequal only past the first block
    ([], [0]),
])
def test_columns_of_unequal_length_are_refused_before_the_file_is_made(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal lengths"):
        cli._write_csv(_writer(tmp_path), path.name, ["a", "b"], *columns)
    assert not path.exists()


def _spectrum_columns():
    """spectrum.csv's columns at --b0-step 1e-4 on the demo config: 12,618 rows."""
    cfg = parse_config(DEMO)
    grid = np.linspace(0.0, 0.07, 701)
    spec = hamiltonian.spectrum_vs_field(cfg.spin_system, grid, cfg.resonator.omega0)
    return (spec.b0, *spec.lower.T, *spec.upper.T, spec.frequency,
            spec.sx_element, spec.sx_element)


def test_a_column_given_twice_is_formatted_once(tmp_path, monkeypatch):
    columns = _spectrum_columns()
    calls = []

    def counted(values):
        calls.append(len(values))
        return texts(values)

    texts = cli._texts
    monkeypatch.setattr(cli, "_texts", counted)
    cli._write_csv(_writer(tmp_path), "spectrum.csv", [str(k) for k in range(8)], *columns)
    # 7 distinct columns, each once per block
    assert len(calls) == 7 * math.ceil(len(columns[0]) / B)
    assert sum(calls) == 7 * len(columns[0])


def test_writing_spectrum_csv_peaks_below_2_mb(tmp_path):
    # a block at a time: the whole table's text would take 3 MB or more
    columns = _spectrum_columns()
    assert len(columns[0]) == 12_618
    path = tmp_path / "spectrum.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_csv(_writer(tmp_path), path.name, [str(k) for k in range(8)], *columns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_000_000
    assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"
