"""Per-subject survival records, CSV ingestion, and validation."""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

_REQUIRED_COLUMNS = ("time", "status")
_OPTIONAL_COLUMNS = ("arm",)


@dataclass(frozen=True)
class Subject:
    """One observed record: follow-up time, event indicator, optional arm label.

    ``status`` is 1 when the event was observed and 0 when the subject was
    right-censored.  ``arm`` is 0/1 for two-group data and ``None`` otherwise.
    """

    time: float
    status: int
    arm: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"time must be finite and non-negative, got {self.time}")
        if self.status not in (0, 1):
            raise ValueError(f"status must be 0 or 1, got {self.status}")
        if self.arm not in (None, 0, 1):
            raise ValueError(f"arm must be 0 or 1 when present, got {self.arm}")


class Sample:
    """An ordered collection of subjects backed by immutable numpy arrays."""

    def __init__(self, times, status, arms=None):
        times = np.asarray(times, dtype=float).copy()
        status = np.asarray(status, dtype=np.int64).copy()
        if times.ndim != 1 or status.shape != times.shape:
            raise ValueError("times and status must be 1-d arrays of equal length")
        if times.size and not (np.isfinite(times).all() and (times >= 0).all()):
            raise ValueError("times must be finite and non-negative")
        if times.size and not np.isin(status, (0, 1)).all():
            raise ValueError("status values must be 0 or 1")
        if arms is not None:
            arms = np.asarray(arms, dtype=np.int64).copy()
            if arms.shape != times.shape:
                raise ValueError("arms must match times in length")
            if arms.size and not np.isin(arms, (0, 1)).all():
                raise ValueError("arm labels must be 0 or 1")
            arms.setflags(write=False)
        times.setflags(write=False)
        status.setflags(write=False)
        self.times = times
        self.status = status
        self.arms = arms

    @property
    def n(self):
        return int(self.times.size)

    @property
    def has_arms(self):
        return self.arms is not None

    @property
    def n_events(self):
        return int(self.status.sum())

    @property
    def subjects(self):
        arms = self.arms if self.has_arms else [None] * self.n
        return tuple(
            Subject(float(t), int(s), None if a is None else int(a))
            for t, s, a in zip(self.times, self.status, arms)
        )

    def split_arms(self):
        """Return ``(sample_arm0, sample_arm1)``; requires an arm column."""
        if not self.has_arms:
            raise ValueError("sample has no arm labels")
        out = []
        for label in (0, 1):
            mask = self.arms == label
            out.append(Sample(self.times[mask], self.status[mask]))
        return tuple(out)

    def resampled(self, indices):
        """New sample made of the subjects at ``indices`` (bootstrap helper)."""
        idx = np.asarray(indices, dtype=np.intp)
        arms = self.arms[idx] if self.has_arms else None
        return Sample(self.times[idx], self.status[idx], arms)

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        if self.has_arms != other.has_arms:
            return False
        same = np.array_equal(self.times, other.times) and np.array_equal(
            self.status, other.status
        )
        if self.has_arms:
            same = same and np.array_equal(self.arms, other.arms)
        return same

    def __repr__(self):
        arms = ", two-arm" if self.has_arms else ""
        return f"<Sample n={self.n}, events={self.n_events}{arms}>"


def _parse_number(text, line_no, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed number {text!r} in column '{column}'", line_no) from None
    if math.isnan(value):
        raise ParseError(f"malformed number {text!r} in column '{column}'", line_no)
    return value


def _parse_binary(text, line_no, column):
    value = _parse_number(text, line_no, column)
    if value not in (0.0, 1.0):
        raise ParseError(f"{column} must be 0 or 1, got {text!r}", line_no)
    return int(value)


def parse_csv(source):
    """Parse ``time,status[,arm]`` CSV text (string or file-like) into a Sample.

    The header is matched case-insensitively and columns may appear in any
    order.  Errors carry the 1-based line number (the header is line 1).
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header line", 1) from None
    names = [h.strip().lower() for h in header]
    for required in _REQUIRED_COLUMNS:
        if required not in names:
            raise ParseError(f"missing required column '{required}'", 1)
    for name in names:
        if name not in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS:
            raise ParseError(f"unknown column '{name}'", 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate column in header", 1)
    col = {name: names.index(name) for name in names}
    has_arm = "arm" in col

    times, status, arms = [], [], []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not field.strip() for field in row):
            continue
        if len(row) != len(names):
            raise ParseError(f"expected {len(names)} fields, got {len(row)}", line_no)
        time = _parse_number(row[col["time"]].strip(), line_no, "time")
        if not math.isfinite(time) or time < 0:
            raise ParseError(f"negative or non-finite time {row[col['time']].strip()!r}", line_no)
        times.append(time)
        status.append(_parse_binary(row[col["status"]].strip(), line_no, "status"))
        if has_arm:
            arms.append(_parse_binary(row[col["arm"]].strip(), line_no, "arm"))
    return Sample(times, status, arms if has_arm else None)


def _csv_text(header, rows):
    """CSV text of a header row and data rows, one line each.

    A str field is written as it is, an integer via ``str(int)`` and any
    other number via ``repr(float)``, so floats round-trip exactly and equal
    inputs give equal bytes.
    """

    def field(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    return "".join(",".join(map(field, row)) + "\n" for row in (header, *rows))


def _csv_columns(source, headers, blank_t=None):
    """Float columns of CSV text (a string or file-like) written by ``_csv_text``.

    The header, lower-cased, must be one of ``headers`` (tuples of column
    names).  Returns ``(header, columns)`` with one list of floats per
    column.  Blank lines are skipped; with ``blank_t`` given, an empty first
    field reads as that value.  Errors carry the 1-based line number.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input: missing header line", 1)
    header = tuple(name.strip().lower() for name in lines[0].strip().split(","))
    if header not in headers:
        expected = " or ".join(",".join(names) for names in headers)
        raise ParseError(f"header must be {expected}, got {lines[0]!r}", 1)
    columns = [[] for _ in header]
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", line_no)
        if blank_t is not None and fields[0] == "":
            fields[0] = blank_t
        try:
            for column, value in zip(columns, fields):
                column.append(float(value))
        except ValueError:
            raise ParseError(f"malformed number in {line!r}", line_no) from None
    return header, columns


def write_csv(sample):
    """Serialize a sample back to ``time,status[,arm]`` CSV text."""
    columns = [sample.times.tolist(), sample.status.tolist()]
    if sample.has_arms:
        columns.append(sample.arms.tolist())
    header = ("time", "status", "arm")[:len(columns)]
    return _csv_text(header, zip(*columns))


@dataclass(frozen=True)
class ValidationReport:
    """Fatal issues block estimation; warnings flag assumption violations."""

    fatal: tuple
    warnings: tuple

    @property
    def ok(self):
        return not self.fatal


def _event_censor_tie_times(times, status):
    event_times = set(np.asarray(times)[np.asarray(status) == 1].tolist())
    censor_times = set(np.asarray(times)[np.asarray(status) == 0].tolist())
    return sorted(event_times & censor_times)


def validate(sample):
    """Check a sample against the assumptions the estimators rely on."""
    fatal = []
    warnings = []
    if sample.n == 0:
        fatal.append("no subjects")
        return ValidationReport(tuple(fatal), tuple(warnings))
    if not np.isfinite(sample.times).all() or (sample.times < 0).any():
        fatal.append("negative or non-finite times")
    elif (sample.times == 0).any():
        fatal.append("observation at time 0: follow-up times must be positive")
    if sample.n_events == 0:
        fatal.append("no events: cure-rate and latency estimators are undefined")
    ties = _event_censor_tie_times(sample.times, sample.status)
    if ties:
        shown = ", ".join(repr(t) for t in ties[:5])
        warnings.append(
            f"event/censoring tie at time(s) {shown}: the theory assumes none; "
            "events are placed before censorings"
        )
    if sample.has_arms:
        for label in (0, 1):
            mask = sample.arms == label
            if mask.any() and sample.status[mask].sum() == 0:
                warnings.append(f"all observations censored in arm {label}")
            if not mask.any():
                warnings.append(f"arm {label} is empty")
    return ValidationReport(tuple(fatal), tuple(warnings))
