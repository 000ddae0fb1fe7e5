"""Per-subject survival records, CSV ingestion, and validation.

``_record_fault`` is the one record rule, ``_csv_text`` the one CSV writer
and ``_csv_columns`` the one CSV reader, both on whole columns: a quoted
field reads as its contents, a row of blank fields is skipped, and errors
name the 1-based physical line of the first bad row.  Plain lines of numbers
are read in one pass, and any other text by the exact per-row reader alone."""

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import ParseError


def _record_fault(times, status, arms=None):
    """The first record whose time is not finite and non-negative, or whose
    status or arm is not 0 or 1, as ``(index, column, message)``: ``column``
    counts in (time, status, arm) and ``message`` has ``{}`` for the value."""
    columns = [np.asarray(column) for column in (times, status, arms) if column is not None]
    bad = [~(np.isfinite(columns[0]) & (columns[0] >= 0))]
    bad += [(labels != 0) & (labels != 1) for labels in columns[1:]]
    faults = np.flatnonzero(np.column_stack(bad))
    if not faults.size:
        return None
    index, column = divmod(int(faults[0]), len(columns))
    name = ("time", "status", "arm")[column]
    value = columns[column][index]
    if value != value:
        return index, column, f"malformed number {{}} in column '{name}'"
    if name == "time":
        return index, column, "negative or non-finite time {}"
    return index, column, f"{name} must be 0 or 1, got {{}}"


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
        # A one-record sample raises ValueError if the record breaks the rule.
        Sample([self.time], [self.status], None if self.arm is None else [self.arm])


class Sample:
    """An ordered collection of subjects backed by immutable numpy arrays."""

    def __init__(self, times, status, arms=None):
        times = np.array(times, dtype=float)
        if times.ndim != 1 or np.shape(status) != times.shape:
            raise ValueError("times and status must be 1-d arrays of equal length")
        if arms is not None and np.shape(arms) != times.shape:
            raise ValueError("arms must match times in length")
        fault = _record_fault(times, status, arms)
        if fault:
            index, column, message = fault
            value = (times, status, arms)[column][index]
            raise ValueError(f"record {index}: " + message.format(value))
        self._hold(times, status, arms)

    @classmethod
    def _of_records(cls, times, status, arms=None):
        """A sample of 1-d columns of one length that obey ``_record_fault``
        already, as ``parse_csv`` reads them or a subset of a sample's
        records: converted, but not checked again."""
        sample = cls.__new__(cls)
        sample._hold(np.asarray(times, dtype=float), status, arms)
        return sample

    def _hold(self, times, status, arms):
        self.times = times
        self.status = np.array(status, dtype=np.int64)
        self.arms = None if arms is None else np.array(arms, dtype=np.int64)
        for array in (self.times, self.status, self.arms):
            if array is not None:
                array.setflags(write=False)

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
            out.append(Sample._of_records(self.times[mask], self.status[mask]))
        return tuple(out)

    def resampled(self, indices):
        """New sample made of the subjects at ``indices`` (bootstrap helper)."""
        idx = np.asarray(indices, dtype=np.intp)
        arms = self.arms[idx] if self.has_arms else None
        return Sample._of_records(self.times[idx], self.status[idx], arms)

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


def parse_csv(source):
    """Parse ``time,status[,arm]`` CSV text (string or file-like) into a Sample.

    The header is matched case-insensitively, columns may appear in any order
    and each row must hold a record; errors carry the 1-based line number.
    """
    return Sample._of_records(*_csv_columns(source, ("time", "status"), ("arm",), _record_fault))


def _csv_text(header, columns):
    """CSV text of a header row and data columns of one length, a line a row.

    A str field is written as it is, an integer via ``str(int)`` and any
    other number via ``repr(float)``, so floats round-trip exactly and equal
    inputs give equal bytes.  A column of integers or of other numbers gets
    its format once, the header and any other column go value by value, and
    the body is written with one ``%``: the line format repeated once per
    row, applied to the columns interleaved into row order.
    """

    def field(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    columns = list(columns)
    width, rows = len(columns), len(columns[0]) if columns else 0
    fields, formats = [None] * (width * rows), []
    for i, column in enumerate(columns):
        types = set(map(type, column))
        if all(issubclass(t, (int, np.integer)) for t in types):
            formats.append("%d")
        elif not any(issubclass(t, (str, int, np.integer)) for t in types):
            formats.append("%r")
            column = column if types <= {float} else map(float, column)
        else:
            formats.append("%s")
            column = map(field, column)
        fields[i::width] = column
    body = (",".join(formats) + "\n") * rows % tuple(fields)
    return ",".join(map(field, header)) + "\n" + body


def _csv_rows(text):
    """``(line, fields)`` of the header and of each later row that is not all
    blank, ``line`` being the physical line the row starts on."""
    rows = csv.reader(io.StringIO(text, newline=""))
    end = 0
    try:
        for row in rows:
            line, end = end + 1, rows.line_num
            if line == 1 or "".join(row).strip():
                yield line, row
    except csv.Error as exc:
        raise ParseError(str(exc), end + 1) from None


def _bulk_fields(text, width):
    """The fields after the header as floats in row order, or None unless
    each later line holds ``width`` numbers split by commas, with no quote or
    carriage return in the text and no line over the csv field size limit."""
    lines = text.partition("\n")[2].removesuffix("\n").split("\n")
    if ('"' in text or "\r" in text or set(map(str.count, lines, repeat(","))) != {width - 1}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    fields = ",".join(lines).split(",")
    del lines  # the float pass is the peak: hold the fields alone
    try:
        return list(map(float, fields))
    except ValueError:
        return None


def _csv_columns(source, required, optional=(), record_fault=None, blank_t=None):
    """Float columns of CSV text (a string or file-like), in the order of
    ``required`` and then ``optional``: lists, or with ``record_fault`` the
    float arrays it checked.

    Fields split as in :mod:`csv`, so a quoted field reads as its contents.
    The header names, in any case and order, are all of ``required`` and all
    or none of ``optional``.  A row of blank fields is skipped; any other row
    holds one number per column, an empty field of the first column reading
    as ``blank_t`` if given, and the columns obey ``record_fault`` if given.
    Errors name the 1-based physical line of the first bad row, counting the
    header and skipped lines; in that row a wrong width comes first, then
    the ``record_fault`` finding, then the first field that is not a number.

    A body of plain lines of numbers that obey ``record_fault`` is read in
    one ``_bulk_fields`` pass.  Any other goes through the per-row reader,
    which alone reads a quoted or blank row and gives every error.
    """
    text = source if isinstance(source, str) else source.read()
    # A reader of its own, freed at once: it holds a copy of the whole text.
    _, header = next(_csv_rows(text), (1, None))
    if header is None:
        raise ParseError("empty input: missing header line", 1)
    names = tuple(name.strip().lower() for name in header)
    for name in required:
        if name not in names:
            raise ParseError(f"missing required column '{name}'", 1)
    for name in names:
        if name not in required + optional:
            raise ParseError(f"unknown column '{name}'", 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate column in header", 1)
    if len(names) not in (len(required), len(required + optional)):
        raise ParseError(f"columns {','.join(optional)} come together or not at all", 1)
    order = [names.index(name) for name in required + optional if name in names]
    values = _bulk_fields(text, len(names))
    if values is not None:
        columns = [values[i::len(names)] for i in order]
        if record_fault:
            columns = list(map(np.array, columns))
        if not (record_fault and record_fault(*columns)):
            return columns
    columns, fault = [[] for _ in names], None
    for line, row in islice(_csv_rows(text), 1, None):
        if len(row) != len(names):
            fault = ParseError(f"expected {len(names)} fields, got {len(row)}", line)
            break
        if blank_t is not None and not row[order[0]].strip():
            row[order[0]] = blank_t
        for name, column, field in zip(names, columns, row):
            try:
                column.append(float(field))
            except ValueError:
                column.append(math.nan)
                fault = fault or ParseError(
                    f"malformed number {field.strip()!r} in column '{name}'", line)
        if fault:
            break
    columns = [np.array(columns[i]) if record_fault else columns[i] for i in order]
    bad = record_fault and record_fault(*columns)
    if bad:
        index, column, message = bad
        line, row = next(islice(_csv_rows(text), index + 1, None))
        raise ParseError(message.format(repr(row[order[column]].strip())), line)
    if fault:
        raise fault
    return columns


def write_csv(sample):
    """Serialize a sample back to ``time,status[,arm]`` CSV text."""
    columns = [sample.times.tolist(), sample.status.tolist()]
    if sample.has_arms:
        columns.append(sample.arms.tolist())
    return _csv_text(("time", "status", "arm")[:len(columns)], columns)


@dataclass(frozen=True)
class ValidationReport:
    """Fatal issues block estimation; warnings flag assumption violations."""

    fatal: tuple
    warnings: tuple

    @property
    def ok(self):
        return not self.fatal


def _event_censor_tie_times(sample):
    """The sorted distinct times with both an event and a censoring, a tie
    at zero signed as the intersection of the event and censoring time sets
    signed it: as the first record there of the kind with fewer distinct
    times, or censored when both have as many."""
    from .km import _sort_sample  # km imports stepfun, which imports this module

    summary = _sort_sample(sample)
    events, censored = summary.event_columns, summary.censored_columns
    ties = summary.distinct[np.intersect1d(events, censored, assume_unique=True)]
    if ties.size and ties[0] == 0.0:
        kind = int(censored.size > events.size)
        ties[0] = sample.times[(sample.times == 0.0) & (sample.status == kind)][0]
    return ties.tolist()


def validate(sample):
    """Check a sample against the assumptions the estimators rely on."""
    fatal = []
    warnings = []
    if sample.n == 0:
        fatal.append("no subjects")
        return ValidationReport(tuple(fatal), tuple(warnings))
    if (sample.times == 0).any():
        fatal.append("observation at time 0: follow-up times must be positive")
    if sample.n_events == 0:
        fatal.append("no events: cure-rate and latency estimators are undefined")
    ties = _event_censor_tie_times(sample)
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
