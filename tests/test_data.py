import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.errors import ParseError


def test_parse_basic_two_columns():
    sample = ct.parse_csv("time,status\n1,1\n2,0")
    assert sample.n == 2
    assert sample.times.tolist() == [1.0, 2.0]
    assert sample.status.tolist() == [1, 0]
    assert not sample.has_arms


def test_parse_with_arm_column():
    sample = ct.parse_csv("time,status,arm\n1,1,0\n2,1,1")
    assert sample.arms.tolist() == [0, 1]


def test_parse_preserves_row_order():
    sample = ct.parse_csv("time,status\n5,0\n1,1\n3,0")
    assert sample.times.tolist() == [5.0, 1.0, 3.0]


def test_parse_header_case_insensitive_and_reordered():
    sample = ct.parse_csv("Status,TIME\n1,2.5")
    assert sample.times.tolist() == [2.5]
    assert sample.status.tolist() == [1]


def test_parse_negative_time_names_line():
    with pytest.raises(ParseError, match="line 2"):
        ct.parse_csv("time,status\n-1,1")


def test_parse_bad_status_and_arm():
    with pytest.raises(ParseError, match="status"):
        ct.parse_csv("time,status\n1,2")
    with pytest.raises(ParseError, match="line 3"):
        ct.parse_csv("time,status,arm\n1,1,0\n2,1,7")


def test_parse_missing_column_and_malformed_number():
    with pytest.raises(ParseError, match="missing required column 'status'"):
        ct.parse_csv("time,arm\n1,0")
    with pytest.raises(ParseError, match="malformed number"):
        ct.parse_csv("time,status\nabc,1")


def test_parse_unknown_column_rejected():
    with pytest.raises(ParseError, match="unknown column"):
        ct.parse_csv("time,status,group\n1,1,0\n")


def test_roundtrip_identity():
    text = "time,status,arm\n1.5,1,0\n2.25,0,1\n0.125,1,1\n"
    sample = ct.parse_csv(text)
    again = ct.parse_csv(ct.write_csv(sample))
    assert again == sample
    assert again.subjects == sample.subjects


def test_subject_invariants():
    with pytest.raises(ValueError):
        ct.Subject(-1.0, 1)
    with pytest.raises(ValueError):
        ct.Subject(1.0, 2)
    with pytest.raises(ValueError):
        ct.Subject(float("inf"), 0)
    with pytest.raises(ValueError):
        ct.Subject(1.0, 1, arm=3)


def test_validate_no_events_is_fatal():
    report = ct.validate(ct.Sample([1, 2], [0, 0]))
    assert not report.ok
    assert any("no events" in msg for msg in report.fatal)


def test_validate_event_censoring_tie_warns():
    report = ct.validate(ct.Sample([2, 2, 3], [1, 0, 1]))
    assert report.ok
    assert any("tie" in msg for msg in report.warnings)


def set_scan_tie_warnings(times, status):
    """The tie warning as the set intersection of event and censoring times
    wrote it, for comparison."""
    events = set(np.asarray(times)[np.asarray(status) == 1].tolist())
    censored = set(np.asarray(times)[np.asarray(status) == 0].tolist())
    ties = sorted(events & censored)
    if not ties:
        return []
    shown = ", ".join(repr(t) for t in ties[:5])
    return [f"event/censoring tie at time(s) {shown}: the theory assumes none; "
            "events are placed before censorings"]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
                          st.integers(0, 1)), min_size=1, max_size=40))
def test_validate_tie_warning_matches_the_set_scan(records):
    # Up to 40 subjects, so that the sort behind the scan is not always stable.
    times, status = map(list, zip(*records))
    warnings = ct.validate(ct.Sample(times, status)).warnings
    assert [w for w in warnings if w.startswith("event/censoring tie")] == (
        set_scan_tie_warnings(times, status))


@pytest.mark.parametrize("times, status, shown", [
    ([0.0, -0.0], [1, 0], "-0.0"), ([-0.0, 0.0], [1, 0], "0.0"),
    ([0.0, -0.0, 1.0], [1, 0, 0], "0.0"), ([-0.0, 0.0, -0.0, 2.0], [0, 1, 1, 1], "-0.0")])
def test_validate_signs_a_tie_at_zero_as_before(times, status, shown):
    warnings = ct.validate(ct.Sample(times, status)).warnings
    assert warnings[0].startswith(f"event/censoring tie at time(s) {shown}: ")


def test_validate_clean_two_arm_sample():
    report = ct.validate(ct.Sample([1, 2, 3, 4], [1, 0, 1, 0], [0, 0, 1, 1]))
    assert report.ok
    assert report.warnings == ()


def test_validate_all_censored_arm_warns():
    report = ct.validate(ct.Sample([1, 2, 3], [0, 0, 1], [0, 0, 1]))
    assert report.ok
    assert any("arm 0" in msg for msg in report.warnings)


def test_validate_empty_sample():
    report = ct.validate(ct.Sample([], []))
    assert "no subjects" in report.fatal


def test_split_arms():
    sample = ct.Sample([1, 2, 3], [1, 0, 1], [0, 1, 0])
    s0, s1 = sample.split_arms()
    assert s0.times.tolist() == [1.0, 3.0]
    assert s1.times.tolist() == [2.0]
    with pytest.raises(ValueError):
        ct.Sample([1], [1]).split_arms()


def test_sample_arrays_are_immutable():
    sample = ct.Sample([1, 2], [1, 0])
    with pytest.raises(ValueError):
        sample.times[0] = 9.0


# The parse_csv error contract: (input, line, message) for the first bad line.
PARSE_ERRORS = {
    "empty": ("", 1, "empty input: missing header line"),
    "missing-time": ("status,arm\n1,0\n", 1, "missing required column 'time'"),
    "missing-status": ("time,arm\n1,0\n", 1, "missing required column 'status'"),
    "unknown-column": ("time,status,group\n1,1,0\n", 1, "unknown column 'group'"),
    "duplicate-column": ("time,status,Time\n1,1,1\n", 1, "duplicate column in header"),
    "wrong-width": ("time,status\n1,1\n2,0,1\n", 3, "expected 2 fields, got 3"),
    "short-row": ("time,status,arm\n1,1,0\n2\n", 3, "expected 3 fields, got 1"),
    "malformed-time": ("time,status,arm\nabc,1,0\n", 2, "malformed number 'abc' in column 'time'"),
    "malformed-status": ("time,status,arm\n1, x ,0\n", 2,
                         "malformed number 'x' in column 'status'"),
    "malformed-arm": ("time,status,arm\n1,1,0\n2,0,\n", 3, "malformed number '' in column 'arm'"),
    "nan-time": ("time,status\nNaN,1\n", 2, "malformed number 'NaN' in column 'time'"),
    "nan-status": ("time,status\n1,nan\n", 2, "malformed number 'nan' in column 'status'"),
    "negative-time": ("time,status\n1,1\n-1,1\n", 3, "negative or non-finite time '-1'"),
    "infinite-time": ("time,status\ninf,0\n", 2, "negative or non-finite time 'inf'"),
    "status-2": ("time,status\n1,2\n", 2, "status must be 0 or 1, got '2'"),
    "status-1.5": ("time,status\n1,1.5\n", 2, "status must be 0 or 1, got '1.5'"),
    "arm-7": ("time,status,arm\n1,1,0\n2,1,7\n", 3, "arm must be 0 or 1, got '7'"),
    "blank-lines-count": ("time,status\n1,1\n\n  \n,\n-2.5,0\n", 6,
                          "negative or non-finite time '-2.5'"),
    "crlf": ("time,status\r\n1,1\r\n\r\n2,x\r\n", 4, "malformed number 'x' in column 'status'"),
    "quoted-comma": ('time,status\n"1,5",1\n', 2, "malformed number '1,5' in column 'time'"),
    "bad-time-before-wrong-width": ("time,status\n-1,1\n2,0\n3,0,1\n", 2,
                                    "negative or non-finite time '-1'"),
    "wrong-width-before-bad-status": ("time,status\n1\n2,0\n3,2\n", 2, "expected 2 fields, got 1"),
    "bad-arm-before-malformed-time": ("time,status,arm\n1,1,3\nx,1,0\n", 2,
                                      "arm must be 0 or 1, got '3'"),
    "time-checked-first": ("status,arm,time\nx,5,-1\n", 2, "negative or non-finite time '-1'"),
    "status-before-arm": ("arm,status,time\nx,y,1\n", 2,
                          "malformed number 'y' in column 'status'"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_names_the_first_bad_line(case):
    text, line, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as info:
        ct.parse_csv(text)
    assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


def test_parse_reads_crlf_and_quoted_fields():
    expected = ct.Sample([1.5, 2.0], [1, 0], [0, 1])
    assert ct.parse_csv("time,status,arm\r\n1.5,1,0\r\n2,0,1\r\n") == expected
    assert ct.parse_csv('"time",status,arm\n"1.5",1,0\n2," 0 ","1"\n') == expected


@pytest.mark.parametrize("args, message", [
    (([1, -2, 3], [1, 0, 7]), "record 1: negative or non-finite time -2.0"),
    (([1, np.nan], [1, 0]), "record 1: malformed number nan in column 'time'"),
    (([1, 2], [1, 0.5]), "record 1: status must be 0 or 1, got 0.5"),
    (([1, 2], [1, 0], [0, 2]), "record 1: arm must be 0 or 1, got 2"),
])
def test_sample_names_its_first_bad_record(args, message):
    with pytest.raises(ValueError) as info:
        ct.Sample(*args)
    assert str(info.value) == message


def test_subjects_of_a_one_arm_sample():
    assert ct.Sample([1.5, 2.0], [1, 0]).subjects == (ct.Subject(1.5, 1), ct.Subject(2.0, 0))
