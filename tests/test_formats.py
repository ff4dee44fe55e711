"""The %-template writers print exactly what the per-value writers print.

Each property builds values of the kinds the artifacts hold (Python and
numpy floats and integers, strings, and booleans in JSON), mixed with the
special values that stress 17-digit printing, and compares the template
writer's output byte for byte with the per-value oracle in
``tests/oracles.py``.  Both refuse inf and NaN in JSON.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgp_search import GridDomain, SampleLog, inference
from mfgp_search.formats import dump_json, fmt, write_csv, write_grid_csv, write_pgm
from mfgp_search.inference import _chain_terms, diagnostics_lines

from conftest import random_mixed_log
from oracles import (
    per_value_csv,
    per_value_grid_csv,
    per_value_json,
    reference_fmt,
    sample_log_lines,
)

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e17, 2.0**53 + 2, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
INTS = st.one_of(
    st.sampled_from([0, -1, 2**53 + 1, -(2**63), 2**64 + 3]), st.integers(-(2**70), 2**70)
)
INT64 = st.integers(-(2**63), 2**63 - 1).map(np.int64)
# Printable ASCII, '%' and ',' included: CSV strings pass through unquoted.
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
CSV_KINDS = {
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "float and np.float64": st.one_of(FLOATS, FLOATS.map(np.float64)),
    "int": INTS,
    "np.int64": INT64,
    "int and np.int64": st.one_of(INTS, INT64),
    "str": TEXT,
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


class TestCsv:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_value_writer(self, out_dir, data):
        width = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 25))
        kinds = data.draw(
            st.lists(st.sampled_from(sorted(CSV_KINDS)), min_size=width, max_size=width)
        )
        columns = [data.draw(st.lists(CSV_KINDS[k], min_size=n, max_size=n)) for k in kinds]
        header = [f"c{i}%d" for i in range(width)]
        rows = list(zip(*columns))
        path = out_dir / "table.csv"
        write_csv(path, header, iter(rows))
        assert path.read_bytes() == per_value_csv(header, rows).encode()

    @pytest.mark.parametrize(
        "column",
        [
            [1.5, 2], [2, 1.5], [np.int64(7), 0.5], [2**60 + 1, np.float64(2.5)], [1, "a"],
            [True, 1], [True, False], [np.True_, np.False_],
        ],
    )
    def test_mixed_column_raises(self, out_dir, column):
        # A float in an integer column would print truncated through %d, and
        # no artifact holds a bool column.
        path = out_dir / "mixed.csv"
        path.unlink(missing_ok=True)
        with pytest.raises(TypeError):
            write_csv(path, ["v", "w"], [(v, 0) for v in column])
        assert not path.exists()

    @pytest.mark.parametrize("value", [None, 1 + 2j, np.complex128(1.0), [1.0]])
    def test_non_number_raises_like_fmt(self, out_dir, value):
        with pytest.raises(TypeError):
            fmt(value)
        with pytest.raises(TypeError):
            write_csv(out_dir / "bad.csv", ["v"], [(value,)])

    def test_row_width_must_match_header(self, out_dir):
        with pytest.raises(ValueError):
            write_csv(out_dir / "ragged.csv", ["a", "b"], [(1, 2), (3,)])


class TestGridCsv:
    @settings(max_examples=60, deadline=None)
    @given(
        resolution=st.integers(1, 6),
        dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int32]),
        data=st.data(),
    )
    def test_matches_per_value_writer(self, out_dir, resolution, dtype, data):
        domain = GridDomain(-3.0, 17.5, 0.25, 9.0, resolution)
        n = domain.n_cells
        if dtype in (np.float64, np.float32):
            with np.errstate(over="ignore"):  # float32 overflows to inf
                values = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=dtype)
        else:
            info = np.iinfo(dtype)
            ints = st.integers(int(info.min), int(info.max))
            values = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=dtype)
        columns = {"value": values}
        if data.draw(st.booleans(), label="occupancy columns"):
            # string, int and float columns side by side, as occupancy.csv holds them
            columns["label"] = data.draw(st.lists(TEXT, min_size=n, max_size=n))
            columns["epoch"] = np.array(data.draw(st.lists(INT64, min_size=n, max_size=n)))
            columns["time"] = data.draw(st.lists(FLOATS, min_size=n, max_size=n))
        path = out_dir / "grid.csv"
        write_grid_csv(path, domain, **columns)
        assert path.read_bytes() == per_value_grid_csv(domain, **columns).encode()

    def test_one_value_per_cell(self, out_dir):
        domain = GridDomain(0.0, 4.0, 0.0, 4.0, 4)
        with pytest.raises(ValueError, match="column 'time' must hold one value per cell"):
            write_grid_csv(out_dir / "short.csv", domain, value=np.zeros(16), time=np.zeros(15))
        with pytest.raises(ValueError, match="one value per cell"):
            write_pgm(out_dir / "short.pgm", domain, np.zeros(15))
        with pytest.raises(ValueError, match="one value per cell"):
            write_pgm(out_dir / "square.pgm", domain, np.zeros((4, 4)))
        assert not any((out_dir / f).exists() for f in ("short.csv", "short.pgm", "square.pgm"))


FINITE = FLOATS.filter(np.isfinite)


def json_values(floats):
    """JSON documents of the shapes the reports hold, with floats from ``floats``."""
    scalars = st.one_of(
        st.none(), st.booleans(), floats, floats.map(np.float64), INTS, INT64, st.text(max_size=6)
    )
    leaves = st.one_of(
        scalars,
        st.lists(floats, max_size=6),
        st.lists(st.one_of(INTS, INT64), max_size=6),
        st.lists(floats, max_size=6).map(np.array),
        # Strings with quotes, backslashes, control and non-ASCII characters.
        st.lists(st.text(max_size=6), max_size=4),
        st.lists(st.one_of(floats, INTS, st.booleans(), st.none()), max_size=5),
        # Pairs like the report's decay curve, pairs whose first column mixes
        # integers and floats, and ragged rows.
        st.lists(st.tuples(INTS, floats).map(list), min_size=1, max_size=6),
        st.lists(st.tuples(st.one_of(INTS, floats), INT64).map(list), min_size=1, max_size=6),
        st.lists(st.lists(floats, max_size=3), max_size=4),
        st.integers(1, 4).map(lambda n: np.arange(2.0 * n).reshape(n, 2) / 3.0),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
        ),
        max_leaves=20,
    )


def _json_or_refusal(write, obj):
    try:
        return write(obj)
    except ValueError:
        return "refused"


class TestJson:
    @settings(max_examples=300, deadline=None)
    @given(obj=json_values(FINITE))
    def test_matches_per_value_writer(self, obj):
        text = dump_json(obj)
        assert text == per_value_json(obj) + "\n"
        json.loads(text)

    @settings(max_examples=200, deadline=None)
    @given(obj=json_values(FLOATS))
    def test_refuses_what_the_per_value_writer_refuses(self, obj):
        # an inf or NaN anywhere in obj is refused on every path
        assert _json_or_refusal(dump_json, obj) == _json_or_refusal(
            lambda o: per_value_json(o) + "\n", obj
        )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, np.float64(np.inf), np.float32(np.nan)])
    @pytest.mark.parametrize(
        "place",
        [
            lambda x: x,  # a scalar, printed by fmt
            lambda x: {"clock_total": x},
            lambda x: [0.5, x, 2.0],  # a %.17g list template
            lambda x: np.array([0.5, x]),
            lambda x: [[1, 0.5], [2, x]],  # a row template
            lambda x: [1, "a", x],  # a mixed list, printed value by value
        ],
        ids=["scalar", "dict", "list", "array", "rows", "mixed"],
    )
    def test_non_finite_floats_refused(self, bad, place):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json(place(bad))

    def test_override_strings_stay_quoted(self):
        obj = {"overrides": ["bench.seeds=6", 'a"b', "50%"], "n": [1, 2]}
        assert dump_json(obj) == per_value_json(obj) + "\n"
        assert '"bench.seeds=6"' in dump_json(obj)

    @pytest.mark.parametrize("value", [1 + 2j, object(), {1.0}])
    def test_unknown_types_raise(self, value):
        with pytest.raises(TypeError):
            dump_json({"x": [value]})


class TestSampleLog:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lines_match_f_strings(self, desk_domain, desk_model, data):
        n = data.draw(st.integers(0, 12))
        cells = data.draw(st.lists(st.integers(0, desk_domain.n_cells - 1), min_size=n, max_size=n))
        levels = sorted(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
        log = SampleLog(desk_domain)
        for c, m in zip(cells, levels):
            log.append(c, 0.0, m)
        terms = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
        var_before = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
        with mock.patch.object(inference, "_chain_terms", return_value=(terms, var_before)):
            lines = diagnostics_lines(log, desk_model)
        assert lines == sample_log_lines(log.locations(), log.fidelities(), var_before, terms)

    def test_mission_log_lines(self, desk_domain, desk_model):
        log = random_mixed_log(desk_domain, desk_model, np.random.default_rng(3), 40)
        terms, var_before = _chain_terms(log, desk_model)
        expected = sample_log_lines(log.locations(), log.fidelities(), var_before, terms)
        assert diagnostics_lines(log, desk_model) == expected


@given(value=st.one_of(FLOATS, FLOATS.map(np.float64), INTS, INT64, st.booleans()))
def test_reference_fmt_is_fmt(value):
    assert fmt(value) == reference_fmt(value)
