"""The one reader and writer behind every comma-separated file format.

A table file holds rows of comma-separated fields, blank lines and '#'
comments; a comment '# key=value' is a header (the last one of a key wins).
One pass of numpy's text reader converts all rows, straight from the file
when only rows follow the top comments; numbers take numpy's float syntax
(Python's without digit-group underscores or non-ASCII digits). Only when
that pass fails are the rows bisected with the same reader, to raise
InputFormatError at the first faulty line. The writer prints floats as their
shortest round-trip repr, so the same arrays give the same bytes.
"""

from __future__ import annotations

import re
from itertools import compress, islice, repeat
from operator import itemgetter, not_
from typing import NamedTuple

import numpy as np

from .errors import InputFormatError

BLOCK_ROWS = 1 << 16  # rows formatted per write
_LOADTXT = dict(delimiter=",", comments=None, quotechar=None)
_TOP = re.compile(r"(?:[^\S\n]*(?:#[^\n]*)?\n)*")  # blank and comment lines at the top
# past the top comments, a text without these holds rows only, each as it stands
_UNCLEAN = ("#", "\n\n", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
_SKIPPED = frozenset(("", "#")).__contains__  # first character of a blank or comment line
_first_char = itemgetter(slice(1))


class Table(NamedTuple):
    meta: dict  # header key -> stripped value, or its parsed value
    columns: np.ndarray  # (fields, rows) floats
    lines: np.ndarray  # 1-based line number of each row


def _load(rows, labels, width, size, skip=0, usecols=None):
    """(rows, fields) floats with labels as their codes. ValueError for a field
    that does not convert or, under labels, a row of another width; size is
    the longest label field to expect."""
    if not labels:
        return np.loadtxt(rows, float, skiprows=skip, usecols=usecols, ndmin=2, **_LOADTXT)
    dtype = [(str(j), f"U{size}" if j in labels else float) for j in range(width)]
    table = np.loadtxt(rows, dtype, skiprows=skip, ndmin=1, **_LOADTXT)
    values = np.empty((table.size, width))
    for j, (name, _kind) in enumerate(dtype):
        values[:, j] = table[name] if j not in labels else np.nan
        for label, code in labels.get(j, ({},))[0].items():
            values[np.char.strip(table[name]) == label, j] = code
    if np.isnan(values[:, list(labels)]).any():
        raise ValueError("unknown label")
    return values


def _converts(rows, labels=None, width=None, size=0, usecols=None):
    try:
        _load(rows, labels, width, size, usecols=usecols)
    except ValueError:
        return False
    return True


def read_table(path, widths, shape_error, value_error="bad numeric value", labels=None,
               headers=None):
    """Read a table file into a Table.

    widths      : field counts the first row may have, None for any; every
                  other row must have the first row's count
    shape_error : message for a row of any other count
    value_error : message for a field that is not a number
    labels      : {field: (label -> code dict, message)} for fields of labels, under a
                  single width; message is formatted with the stripped field
    headers     : {key: parse} for header values parsed on reading; a parse raising
                  ValueError fails the file at that line with the error's message

    A faulty line is a header its parse rejects, a first row of a field count
    not allowed, a later row of another count than the first or a row with a
    bad field; under widths=None a row's fields are judged before its count.
    """
    labels, headers, meta, faults = labels or {}, headers or {}, {}, []
    with open(path) as fh:
        text = fh.read()
    top = _TOP.match(text).end()
    clean = text.isascii() and all(text.find(mark, top) < 0 for mark in _UNCLEAN)
    rows = list(map(str.strip, (text[:top] if clean else text).split("\n")))
    skipped = list(map(_SKIPPED, map(_first_char, rows)))
    for i in compress(range(len(rows)), skipped):
        key, eq, value = (part.strip() for part in rows[i][1:].partition("="))
        try:
            meta.update({key: headers.get(key, str)(value)} if eq else {})
        except ValueError as err:
            faults.append((i + 1, str(err)))
            break
    if clean:  # numpy reads the rows off the file
        lines = len(rows) + np.arange(text.count("\n", top) + (top < len(text) and text[-1] != "\n"))
        source, skip = path, len(rows) - 1
        size = max((len(k) for codes, _msg in labels.values() for k in codes), default=0) + 1
    else:
        lines = 1 + np.flatnonzero(np.logical_not(skipped))
        rows = source = list(compress(rows, map(not_, skipped)))
        skip, size = 0, max(map(len, rows), default=0)
    width = widths[0] if labels else None
    values = np.zeros((0, max(widths or (0,))))
    try:
        if lines.size:
            values = _load(source, labels, width, size, skip)
            if values.shape[1] not in (widths or values.shape[1:]):
                raise ValueError("field count")
    except ValueError:  # find the first faulty row
        rows = text[top:].split("\n")[: lines.size] if clean else rows
        counts = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows)) + 1
        wrong = np.flatnonzero(counts != counts[0]) if widths is None or counts[0] in widths else [0]
        bad = int(wrong[0]) if len(wrong) else len(rows)
        if bad and not _converts(rows[:bad], labels, width, size):
            lo, hi = 0, bad  # rows before lo convert, one in [lo, hi) does not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if _converts(rows[lo:mid], labels, width, size) else (lo, mid)
            bad = lo
        message = shape_error
        for j, field in enumerate(rows[bad].split(",") if widths is None or bad not in wrong else ()):
            codes, field_error = labels.get(j, (None, value_error))
            if field.strip() not in codes if codes else not _converts(rows[bad:bad + 1], usecols=j):
                message = field_error.format(field.strip())
                break
        faults.append((int(lines[bad]), message))
    if faults:
        raise InputFormatError(path, *min(faults))
    return Table(meta, values.T.copy(), lines)


def write_table(fh, *columns):
    """Write one row per index of the columns, fields joined by commas: an
    array as the repr of each item (for a float, the shortest string that
    reads back to it), any other column as its items, which are strings."""
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else c for c in columns]
    rows = map(",".join, zip(*cells))
    while block := list(islice(rows, BLOCK_ROWS)):
        fh.write("\n".join(block))
        fh.write("\n")
