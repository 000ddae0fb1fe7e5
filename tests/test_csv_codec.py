"""The CSV readers (the sample and the artifact readers): error paths and
round trips.

Every reader raises ``ParseError`` naming the 1-based physical line (the
header is line 1, blank lines count) for a bad header, a wrong field count
and a malformed number.  Every reader splits fields as the ``csv`` module
does, so CRLF line ends and quoted fields read like plain ones, takes the
header's columns in any order and case, and skips a row whose fields are all
blank.  A blank ``t`` field is an error everywhere except in the experiment
reader, where it marks the cure-rate row.
"""

import math

import numpy as np
import pytest

import curetau as ct
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
    assert _csv_text(header, rows) == (
        "s,i,j,f,g,mixed,0.25\n"
        "a,1,-2,0.1,2.0,3,\n"
        "bc,100000000000000000000,7,nan,1e-300,2.5,0.5\n"
        ",1,0,-inf,0.10000000149011612,4,inf\n")
    assert _csv_text(header, iter(rows)) == _csv_text(header, rows)


def test_an_empty_row_set_writes_the_header_alone():
    assert _csv_text(("t", "value"), []) == "t,value\n"
    assert _csv_text(("t", "value"), iter(())) == "t,value\n"
