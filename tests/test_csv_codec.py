"""The CSV readers (the sample and the artifact readers): error paths and
round trips.

Every reader raises ``ParseError`` naming the 1-based physical line (the
header is line 1, blank lines count) for a bad header, a wrong field count
and a malformed number.  Every reader splits fields as the ``csv`` module
does, so CRLF line ends and quoted fields read like plain ones, takes the
header's columns in any order and case, and skips a row whose fields are all
blank.  A blank ``t`` field is an error everywhere except in the experiment
reader, where it marks the cure-rate row.

The reader's bulk path and its per-row reader must agree on every text, and
the column writer must write what the row writer it replaced wrote.
"""

import math
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau import data
from curetau.cli import read_experiment_csv
from curetau.data import _csv_text
from curetau.errors import ParseError
from curetau.stepfun import read_curve_csv
from curetau.tau import read_tau_csv

EXPERIMENT_HEADER = "t,truth,a,b,c,d,e"
EXPERIMENT_ROW = "0.5,0.7,0.01,0.02,0.03,0.95,0.08"

READERS = {
    "sample": (ct.parse_csv, "time,status,arm", "0.5,1,0", "1.5,0,1"),
    "curve": (read_curve_csv, "t,value", "0.0,1.0", "0.5,0.8"),
    "tau": (read_tau_csv, "t,value", "0.25,0.1", "0.5,0.2"),
    "experiment": (read_experiment_csv, EXPERIMENT_HEADER, EXPERIMENT_ROW, EXPERIMENT_ROW),
}


def plain(result):
    """A reader's result as plain values, so that two reads compare with ``==``."""
    if isinstance(result, ct.Sample):
        return result.times.tolist(), result.status.tolist(), result.arms.tolist()
    if isinstance(result, ct.StepFunction):
        return result.x.tolist(), result.y.tolist(), result.initial_value
    if isinstance(result, ct.TauCurve):
        return result.grid.tolist(), result.values.tolist()
    return result


def line_of(reader, text):
    with pytest.raises(ParseError) as info:
        reader(text)
    return info.value.line


@pytest.mark.parametrize("name", sorted(READERS))
def test_bad_header_is_line_1(name):
    reader, header, first, second = READERS[name]
    bad = "x" + header[1:]
    assert line_of(reader, f"{bad}\n{first}\n{second}\n") == 1


@pytest.mark.parametrize("name", sorted(READERS))
def test_wrong_field_count_names_its_line(name):
    reader, header, first, second = READERS[name]
    assert line_of(reader, f"{header}\n{first}\n{second},0.5\n") == 3
    assert line_of(reader, f"{header}\n{first}\n\n{second.split(',')[0]}\n") == 4


@pytest.mark.parametrize("name", sorted(READERS))
def test_malformed_number_names_its_line(name):
    reader, header, first, second = READERS[name]
    broken = second.rsplit(",", 1)[0] + ",abc"
    assert line_of(reader, f"{header}\n{first}\n{broken}\n") == 3
    assert line_of(reader, f"{header}\n{first}\n\n{broken}\n") == 4


@pytest.mark.parametrize("name", sorted(READERS))
def test_crlf_line_ends_read_like_lf(name):
    reader, header, first, second = READERS[name]
    text = f"{header}\n{first}\n{second}\n"
    assert plain(reader(text.replace("\n", "\r\n"))) == plain(reader(text))
    broken = second.rsplit(",", 1)[0] + ",abc"
    assert line_of(reader, f"{header}\r\n{first}\r\n\r\n{broken}\r\n") == 4


@pytest.mark.parametrize("name", sorted(READERS))
def test_quoted_fields_read_as_their_contents(name):
    reader, header, first, second = READERS[name]
    quoted = ",".join(f'" {field}"' for field in second.split(","))
    assert plain(reader(f"{header}\n{first}\n{quoted}\n")) == plain(
        reader(f"{header}\n{first}\n{second}\n"))


@pytest.mark.parametrize("name", sorted(READERS))
def test_rows_of_blank_fields_are_skipped(name):
    reader, header, first, second = READERS[name]
    blank = ",".join(" " for _ in header.split(","))
    text = f"{header}\n{first}\n{second}\n"
    assert plain(reader(f"{header}\n{first}\n{blank}\n,\n{second}\n{blank}\n")) == plain(
        reader(text))
    assert line_of(reader, f"{header}\n{blank}\n{first}\n,,\n{second},1\n") == 5


@pytest.mark.parametrize("name", sorted(READERS))
def test_columns_may_come_in_any_order_and_case(name):
    reader, header, first, second = READERS[name]
    flipped = [",".join(reversed(line.split(","))) for line in (header.upper(), first, second)]
    assert plain(reader("\n".join(flipped))) == plain(reader(f"{header}\n{first}\n{second}"))


@pytest.mark.parametrize("reader, header", [(read_curve_csv, "t,value,lo"),
                                            (read_tau_csv, "t,value,sd")])
def test_band_columns_come_together(reader, header):
    assert line_of(reader, f"{header}\n0.0,1.0,0.5\n") == 1


@pytest.mark.parametrize("name", sorted(READERS))
def test_an_unclosed_quote_names_its_line(name):
    reader, header, first, second = READERS[name]
    # The quote swallows every later line into one field, past the csv
    # module's field size limit.
    text = f'{header}\n{first}\n"{second}\n' + f"{second}\n" * 20_000
    assert line_of(reader, text) == 3


@pytest.mark.parametrize("name", ["sample", "curve", "tau"])
def test_blank_t_field_is_an_error(name):
    reader, header, first, second = READERS[name]
    blank = "," + second.split(",", 1)[1]
    assert line_of(reader, f"{header}\n{first}\n{blank}\n") == 3


@pytest.mark.parametrize("text, line", [("t,value\n0.5,0.8\n", 2), ("t,value\n\n0.5,0.8\n", 3),
                                        ("t,value\n, \n\n0.5,0.8\n0.0,1.0\n", 4),
                                        ("t,value\n", 2), ("t,value\n\n\n", 2)])
def test_a_curve_without_its_t0_row_names_its_first_data_row(text, line):
    with pytest.raises(ParseError, match="curve must start with its t=0 value"):
        read_curve_csv(text)
    assert line_of(read_curve_csv, text) == line


def test_blank_t_field_is_the_experiment_cure_rate_row():
    blank = "," + EXPERIMENT_ROW.split(",", 1)[1]
    rows = read_experiment_csv(f"{EXPERIMENT_HEADER}\n{EXPERIMENT_ROW}\n{blank}\n")
    assert rows[0]["t"] == 0.5 and math.isnan(rows[1]["t"])
    assert rows[1]["e"] == 0.08


def test_writers_use_repr_floats_and_plain_integers():
    curve = ct.StepFunction([0.1, 1 / 3], [0.9, 2 / 3])
    assert ct.write_curve_csv(curve) == (
        "t,value\n0.0,1.0\n0.1,0.9\n0.3333333333333333,0.6666666666666666\n")
    sample = ct.Sample([1.5, 2.0], [1, 0], [0, 1])
    assert ct.write_csv(sample) == "time,status,arm\n1.5,1,0\n2.0,0,1\n"
    tau = ct.TauCurve(np.array([0.5]), np.array([0.25]), "overall")
    assert ct.write_tau_csv(tau.with_bands([0.1], [0.05], [0.45])) == (
        "t,value,sd,lo,hi\n0.5,0.25,0.1,0.05,0.45\n")


def test_columns_of_mixed_kinds_keep_the_per_value_formats():
    rows = [("a", 1, np.int64(-2), 0.1, np.float64(2.0), 3, ""),
            ("bc", 10 ** 20, np.int32(7), math.nan, 1e-300, 2.5, 0.5),
            ("", True, np.int64(0), -math.inf, np.float32(0.1), np.int64(4), math.inf)]
    header = ("s", "i", "j", "f", "g", "mixed", 0.25)
    columns = list(zip(*rows))
    assert _csv_text(header, columns) == (
        "s,i,j,f,g,mixed,0.25\n"
        "a,1,-2,0.1,2.0,3,\n"
        "bc,100000000000000000000,7,nan,1e-300,2.5,0.5\n"
        ",1,0,-inf,0.10000000149011612,4,inf\n")
    assert _csv_text(header, iter(columns)) == _csv_text(header, columns)


def test_an_empty_row_set_writes_the_header_alone():
    assert _csv_text(("t", "value"), []) == "t,value\n"
    assert _csv_text(("t", "value"), iter(())) == "t,value\n"


COLUMN_READERS = {
    "sample": (("time", "status"), ("arm",), data._record_fault, None,
               ["time,status", "time,status,arm", "ARM,Time,status"]),
    "curve": (("t", "value"), ("lo", "hi"), None, None, ["t,value", "value,t,hi,lo"]),
    "experiment": (tuple(EXPERIMENT_HEADER.split(",")), (), None, math.nan, [EXPERIMENT_HEADER]),
}
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "1.0", "-0.0", " 0.25", "3 ", "+2e-3", "1_0", "\u0661\u0662",
                     "5e-324", "1e400", "inf", "-Infinity", "nan", "NaN"]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr))
ODD_FIELDS = st.sampled_from([
    "", " ", "\t", "abc", '"1"', '"1,0"', '1"', "\x00", "1\x00", "\u20031\u3000", "1\x85",
    "\u20282", "2\u2029", "\ufeff1", "9" * 200_001])


@st.composite
def csv_texts(draw, headers):
    """Header lines with rows of numbers, or of numbers and odd fields, of
    the header's width or, when drawn, of any width up to one more; the
    lines end in LF, CRLF or CR, the last one or not."""
    header = draw(st.sampled_from(headers))
    width = header.count(",") + 1
    field = draw(st.sampled_from([NUMBERS, st.one_of(NUMBERS, ODD_FIELDS)]))
    row = st.lists(field, min_size=width, max_size=width)
    row = draw(st.sampled_from([row, st.one_of(row, st.lists(field, max_size=width + 1))]))
    lines = [header] + [",".join(fields) for fields in draw(st.lists(row, max_size=8))]
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def per_path_outcomes(name, text):
    """``_csv_columns``'s outcome on ``text``, as it is and with the per-row
    reader alone: the columns' bytes, or the ParseError's message and line."""
    required, optional, record_fault, blank_t, _ = COLUMN_READERS[name]
    outcomes = []
    for bulk in (data._bulk_fields, lambda text, width: None):
        with mock.patch.object(data, "_bulk_fields", bulk):
            try:
                columns = data._csv_columns(text, required, optional, record_fault, blank_t)
            except ParseError as exc:
                outcomes.append((str(exc), exc.line))
            else:
                outcomes.append([np.array(column, dtype=float).tobytes() for column in columns])
    return outcomes


@pytest.mark.parametrize("name", sorted(COLUMN_READERS))
@settings(max_examples=300)
@given(data=st.data())
def test_bulk_path_reads_what_the_per_row_reader_reads(name, data):
    text = data.draw(csv_texts(COLUMN_READERS[name][-1]))
    bulk, per_row = per_path_outcomes(name, text)
    assert bulk == per_row


@pytest.mark.parametrize("name, text", [
    # A short and a long row whose field counts balance out.
    pytest.param("curve", "t,value\n1.5,1\n2.0\n3.0,1,0\n", id="short-long-rows"),
    pytest.param("sample", "time,status\n1.5,1\n2.0\n3.0,1,0", id="short-long-records"),
    # A field over the csv module's field size limit, which float() reads as inf.
    pytest.param("curve", "t,value\n0,1\n" + "9" * 200_001 + ",1\n", id="field-over-limit"),
    pytest.param("curve", "t,value\n0,1\n1,\u2028\n", id="line-separator"),
    pytest.param("curve", "t,value\n0,1\n1\x85,2\n", id="next-line"),
    pytest.param("curve", "t,value\n", id="empty-body"),
    pytest.param("curve", "t,value", id="header-alone"),
    pytest.param("curve", "t,value\n\n", id="blank-body"),
    pytest.param("sample", "time,status\n1,1\n2,1\n-1,0\n", id="record-fault"),
    pytest.param("sample", "time,status\n1,1\n2,1\n3,\"0\"\n", id="quoted-status"),
    pytest.param("experiment", f"{EXPERIMENT_HEADER}\n{EXPERIMENT_ROW}\n,{EXPERIMENT_ROW[4:]}\n",
                 id="cure-rate-row"),
])
def test_bulk_path_traps_read_as_per_row(name, text):
    bulk, per_row = per_path_outcomes(name, text)
    assert bulk == per_row


def test_bulk_path_takes_plain_lines_of_numbers_only():
    values = data._bulk_fields("t,value\n0,1\n 1_0 ,nan\n", 2)
    assert values[:3] == [0.0, 1.0, 10.0] and math.isnan(values[3])
    assert data._bulk_fields("t,value\n0,1\n2,3", 2) == [0.0, 1.0, 2.0, 3.0]
    for body in ["1.5,1\n2.0\n3.0,1,0\n", "0,1\n\n2,3\n", "0,1\r\n", '"0",1\n', "0,\n",
                 " , \n", "0," + "9" * 200_001 + "\n"]:
        assert data._bulk_fields("t,value\n" + body, 2) is None


def rows_text(header, rows):
    """The row writer that the column writer replaced: CSV text of a header
    and data rows, the format of each column picked as ``_csv_text`` picks it."""

    def field(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    columns, formats = [], []
    for column in zip(*rows):
        types = set(map(type, column))
        if all(issubclass(t, (int, np.integer)) for t in types):
            formats.append("%d")
        elif not any(issubclass(t, (str, int, np.integer)) for t in types):
            formats.append("%r")
            column = map(float, column)
        else:
            formats.append("%s")
            column = map(field, column)
        columns.append(column)
    line = ",".join(formats) + "\n"
    fields = tuple(chain.from_iterable(zip(*columns)))
    body = line * (len(fields) // max(len(formats), 1)) % fields
    return ",".join(map(field, header)) + "\n" + body


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1]))
WRITER_VALUES = [
    st.integers(-10 ** 20, 10 ** 20), st.booleans(),
    st.integers(-128, 127).map(np.int8), st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 2 ** 64 - 1).map(np.uint64),
    FLOATS, FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.text(st.characters(blacklist_characters=",\"\r\n"), max_size=4)]


@st.composite
def writer_columns(draw):
    """Columns of one length, each of one kind of value or of several."""
    rows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kinds = draw(st.lists(st.sampled_from(WRITER_VALUES), min_size=1, max_size=3))
        columns.append(draw(st.lists(st.one_of(kinds), min_size=rows, max_size=rows)))
    return columns


@settings(max_examples=300)
@given(writer_columns(), st.lists(st.one_of(st.text(max_size=3), st.integers(), FLOATS),
                                  min_size=1, max_size=5))
def test_column_writer_writes_what_the_row_writer_wrote(columns, header):
    assert _csv_text(header, columns) == rows_text(header, list(zip(*columns)))
