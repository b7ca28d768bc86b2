"""The one reader and writer behind every comma-separated file format.

A table file holds rows of comma-separated fields, blank lines and '#'
comments; a comment '# key=value' is a header (the last one of a key wins).
One pass of numpy's text reader converts all rows; numbers take numpy's
float syntax (Python's without digit-group underscores or non-ASCII
digits). Only when that pass fails are the rows bisected with the same
reader, to raise InputFormatError at the first faulty line. write_table,
the one writer of table files, writes their header lines as '# ' comments
(header_text, which the stream writer shares) and floats as their shortest
round-trip repr, so the same arrays give the same bytes.

Rows of a count and a label, '<1-16 digits>,<label>', the picosecond photon
streams, also go through bytes: write_counts builds them with numpy, block by
block, byte for byte as str(count) + ',' + label would print them, and can
convert each block to its integer counts as it goes (a stream's seconds to
picoseconds), so no converted copy of the whole column is made. It lays
each row out in a fixed-width record and writes every run of rows whose
counts have one number of digits as one column slice of the records, with
no mask: sorted counts, such as a stream's timestamps, make one run per
width, and unsorted ones are written right in more, shorter runs.
read_counts parses them from the file's bytes when every row after the top
comments has exactly that form, holding only a float64 count and a uint8
code per row and one chunk of CHUNK_BYTES: it counts the rows, a newline
each, chunk by chunk, then reads the chunks into its two preallocated
arrays, each chunk's partial last row carried to the next. A chunk is read
run by run: a run is up to BLOCK_ROWS rows of one width, found by checking
the newline at every width-th byte and read through strided 64-bit views
of the bytes, with no per-byte mask or per-row index. Any other file, a
comment or blank line between rows, a space, CRLF or a missing final
newline included, goes to read_table, so faults are found and placed at
their line by read_table alone; so does a file whose rows change width far
more often than sorted counts can, such as unsorted ones, which would take
a run per row.
read_columns, the one loader of rows into a domain type, hands the columns
of read_table to the type's constructor; read_document does the same for a
JSON document and its builder, so a fault in either names the file.
parse_floats is the one parser of a list of numbers in a line of text, such
as a header value or a command-line flag: numbers joined by a separator, of
a count from a given set. Its ValueError names the text and the fault, so
as a header's parse it fails the file at the header's line.
"""

from __future__ import annotations

import json
import re
from functools import partial
from itertools import compress, islice, repeat
from operator import itemgetter, not_
from typing import NamedTuple

import numpy as np

from .errors import InputFormatError, ValidationError

BLOCK_ROWS = 1 << 16  # rows per block written, and per block of read_counts
CHUNK_BYTES = 1 << 20  # bytes per chunk of read_counts
_LOADTXT = dict(delimiter=",", comments=None, quotechar=None)
_TOP_LINE = re.compile(rb"[^\S\n]*(?:#[^\n]*)?\n")  # a blank or comment line
_SKIPPED = frozenset(("", "#")).__contains__  # first character of a blank or comment line
_first_char = itemgetter(slice(1))
_ZERO, _NEWLINE = b"0\n"
_PAD = 24  # bytes before a chunk's first row: the digit words and the label word
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_KEEP = np.array([(1 << 64) - (1 << 8 * j) for j in range(9)], np.uint64)  # all but j low bytes


class Table(NamedTuple):
    meta: dict  # header key -> stripped value, or its parsed value
    columns: np.ndarray  # (fields, rows) floats
    lines: np.ndarray  # 1-based line number of each row


class Counts(NamedTuple):
    meta: dict  # header key -> stripped value, or its parsed value
    counts: np.ndarray  # float64 count of each row
    codes: np.ndarray  # uint8 code of each row's label


def _load(rows, labels, width, size, usecols=None):
    """(rows, fields) floats with labels as their codes. ValueError for a field
    that does not convert or, under labels, a row of another width; size is
    the longest label field to expect."""
    if not labels:
        return np.loadtxt(rows, float, usecols=usecols, ndmin=2, **_LOADTXT)
    dtype = [(str(j), f"U{size}" if j in labels else float) for j in range(width)]
    table = np.loadtxt(rows, dtype, ndmin=1, **_LOADTXT)
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


def parse_floats(text, counts, sep=",", key=None):
    """The numbers of text joined by sep, in Python's float syntax, as a
    tuple of floats whose count is one of counts. ValueError naming the text
    ('key=text' under a key, as a header or a seed peak is written) and the
    fault: a count not in counts, or the first part that is not a number."""
    shown, parts = repr(text if key is None else f"{key}={text}"), text.split(sep)
    if len(parts) not in counts:
        raise ValueError(f"{shown} needs {' or '.join(map(str, counts))} number{'s' * (counts != (1,))} "
                         f"joined by {sep!r}, got {len(parts)}")
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{shown} holds {part!r}, which is not a number") from None
    return tuple(values)


def _read_headers(rows, skipped, headers):
    """The header values of rows (stripped lines, skipped marking the blank and
    comment ones) and the faults: the first header its parse rejects, as
    (line, message); no later header is read."""
    meta = {}
    for i in compress(range(len(rows)), skipped):
        key, eq, value = (part.strip() for part in rows[i][1:].partition("="))
        try:
            meta.update({key: headers.get(key, str)(value)} if eq else {})
        except ValueError as err:
            return meta, [(i + 1, str(err))]
    return meta, []


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
    labels = labels or {}
    with open(path) as fh:
        rows = list(map(str.strip, fh.read().split("\n")))
    skipped = list(map(_SKIPPED, map(_first_char, rows)))
    meta, faults = _read_headers(rows, skipped, headers or {})
    lines = 1 + np.flatnonzero(np.logical_not(skipped))
    rows = list(compress(rows, map(not_, skipped)))
    size = max(map(len, rows), default=0)
    width = widths[0] if labels else None
    values = np.zeros((0, max(widths or (0,))))
    try:
        if lines.size:
            values = _load(rows, labels, width, size)
            if values.shape[1] not in (widths or values.shape[1:]):
                raise ValueError("field count")
    except ValueError:  # find the first faulty row
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


def read_columns(path, widths, shape_error, make):
    """make(*columns) of read_table(path, widths, shape_error); no rows, or a
    ValidationError from make, raise InputFormatError at line 0."""
    table = read_table(path, widths, shape_error)
    if not table.lines.size:
        raise InputFormatError(path, 0, "no data rows")
    try:
        return make(*table.columns)
    except ValidationError as err:
        raise InputFormatError(path, 0, str(err)) from None


def read_document(path, make):
    """make(doc) of the JSON document at path; bad JSON raises InputFormatError
    at its line, a KeyError, TypeError or ValueError from make at line 0."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise InputFormatError(path, err.lineno, f"bad JSON: {err.msg}") from None
    try:
        return make(doc)
    except (KeyError, TypeError, ValueError) as err:  # ValidationError included
        message = f"missing key {err}" if isinstance(err, KeyError) else str(err)
        raise InputFormatError(path, 0, message) from None


def read_counts(path, codes, headers=None):
    """The Counts of a file whose rows all read '<count>,<label>\\n': 1 to 16
    digits, then a label of codes (label -> code in 0-255, every label of one
    length up to 7), parsed from the file's bytes. None for any other file,
    and for one without rows or with a header its parse rejects: read it
    with read_table, which finds the fault.

    The top comment lines are read one by one; the rows after them are
    counted, a newline each, in chunks of CHUNK_BYTES, and then read in such
    chunks into the two preallocated arrays, a chunk's partial last row
    carried over to the next. Each chunk is read run by run. A run is up to
    BLOCK_ROWS rows of the width of its first row: a newline at every
    width-th byte from that row's newline on marks them. Each row of a run
    is read as three 64-bit words at its end, strided views of the chunk's
    bytes: two words of eight digits and one holding the comma and the
    label. Every byte of a row is so checked; the run ends before its first
    row that fails, and the next run starts at that row with the row's own
    width, so a failing first row fails the file."""
    tail = 1 + len(next(iter(codes)))  # the comma and the label
    widest = 17 + tail  # bytes of a row of 16 digits, its newline included
    keys = {int.from_bytes(f",{label}".encode(), "little"): np.uint8(code) for label, code in codes.items()}
    with open(path, "rb") as fh:
        head = []
        while (line := fh.readline()) and _TOP_LINE.fullmatch(line):
            head.append(line)
        head = b"".join(head)
        if not line or not head.isascii() or b"\r" in head:
            return None
        lines = list(map(str.strip, head.decode().split("\n")))
        meta, faults = _read_headers(lines, list(map(_SKIPPED, map(_first_char, lines))),
                                     headers or {})
        if faults:
            return None
        data = bytearray(_PAD + widest + CHUNK_BYTES)  # the pad: every word of a row lies in data
        view = memoryview(data)
        fh.seek(len(head))
        rows = chunks = 0
        while size := fh.readinto(view[_PAD:_PAD + CHUNK_BYTES]):
            rows, chunks = rows + data.count(b"\n", _PAD, _PAD + size), chunks + 1
        fh.seek(len(head))
        counts, tags = np.empty(rows), np.empty(rows, np.uint8)
        row, carry = 0, 0  # the next row's index; bytes of it read so far
        # sorted counts, such as a stream's, need a run per width, per block and
        # per chunk; a file that needs many more, such as one of unsorted counts,
        # is left to read_table
        runs_left = 2 * (16 + rows // BLOCK_ROWS) + chunks
        while size := fh.readinto(view[_PAD + carry:_PAD + carry + CHUNK_BYTES]):
            start, end = _PAD, _PAD + carry + size  # the next row's first byte; the chunk's end
            while (newline := data.find(b"\n", start, end)) >= 0:
                width = newline + 1 - start
                digits = width - 1 - tail
                if not 1 <= digits <= 16 or runs_left == 0:
                    return None
                runs_left -= 1
                marked = np.ndarray(min(BLOCK_ROWS, (end - start) // width, rows - row), np.uint8,
                                    data, newline, width) == _NEWLINE  # the rows of this width
                count = marked.size if marked.all() else int(marked.argmin())
                words = partial(np.ndarray, count, "<u8", data, strides=width)
                label = words(offset=newline - 8) >> np.uint64(64 - 8 * tail)
                high = _ascii_digits(words(offset=newline - tail - 16), 16 - digits)
                low = _ascii_digits(words(offset=newline - tail - 8), 8 - digits)
                good = _digit_words(high) & _digit_words(low)
                known, tag = np.zeros_like(good), 0
                for key, code in keys.items():
                    hit = label == key
                    tag = tag + hit * code  # the labels differ: a row has one hit at most
                    known |= hit
                tags[row:row + count] = tag
                good &= known
                run = good.size if good.all() else int(good.argmin())
                if run == 0:
                    return None
                counts[row:row + run] = _swar_decimal(high[:run]) * 10**8 + _swar_decimal(low[:run])
                row, start = row + run, start + run * width
            carry = end - start
            if carry >= widest:  # a row too long to read
                return None
            data[_PAD:_PAD + carry] = data[start:end]
    if carry or row != rows:  # a last row without its newline; a file changed while read
        return None
    return Counts(meta, counts, tags)


def _ascii_digits(words, lead):
    """Words of eight bytes, the first lead of each (those before the number,
    0 to 8 after clipping) set to ASCII '0'."""
    keep = _KEEP[min(max(lead, 0), 8)]
    return words & keep | _ASCII_ZEROS & ~keep


def _digit_words(words):
    """Whether every byte of each word is an ASCII digit."""
    return (words & _HIGH_NIBBLES == _ASCII_ZEROS) & ((words + _SIXES) & _HIGH_NIBBLES == _ASCII_ZEROS)


def _swar_decimal(words):
    """The numbers of words of eight ASCII digits, the first digit in the
    lowest byte: digit pairs, then quads, then the eight are combined by one
    multiplication each (Lemire, Softw. Pract. Exp. 51, 1700 (2021))."""
    words = words - _ASCII_ZEROS
    words = (words * np.uint64(10 << 8 | 1)) >> np.uint64(8) & np.uint64(0x00FF00FF00FF00FF)
    words = (words * np.uint64(100 << 16 | 1)) >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)
    return ((words * np.uint64(10000 << 32 | 1)) >> np.uint64(32)).astype(np.int64)


def write_counts(fh, counts, tags, labels, convert=None):
    """Write to a binary file one row per count, the bytes of
    str(count) + ',' + labels[tag] + '\\n': counts are integers in [0, 10^16),
    every label of one length up to 6. Each block of BLOCK_ROWS rows is built
    as 24-byte records, four groups of four digits from a table and the
    padded tail; each run of rows whose numbers have one width is written as
    one column slice of its records, which drops the leading zeros and the
    padding. Sorted counts make one run per width in a block; any order
    gives the same bytes, in more runs. convert, if given, maps each block
    of counts to its integers as it is written, so that no converted copy
    of all counts is made. ValueError for an integer outside [0, 10^16),
    before its block is written."""
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + _ZERO
    groups = groups.astype(np.uint8).view("<u4")[:, 0]  # the ASCII digits of 0000-9999
    tails = np.array([f",{label}\n".encode().ljust(8, b"\0") for label in labels])
    tails = np.frombuffer(tails.tobytes(), "<u8")
    width = 18 + len(labels[0])  # of the longest row: 16 digits, the comma, the label, the newline
    powers = 10 ** np.arange(1, 16)
    for i in range(0, len(counts), BLOCK_ROWS):
        block = counts[i:i + BLOCK_ROWS]
        block = np.asarray(convert(block) if convert else block, np.int64)
        if not (block.min() >= 0 and block.max() < 10**16):
            raise ValueError("counts must lie in [0, 10^16)")
        records = np.empty((block.size, 24), np.uint8)
        quads = records.view("<u4")
        high, low = np.divmod(block, 10**8)
        for column, group in enumerate((*np.divmod(high, 10000), *np.divmod(low, 10000))):
            quads[:, column] = groups[group]
        records.view("<u8")[:, 2] = tails[tags[i:i + BLOCK_ROWS]]
        first = 15 - np.searchsorted(powers, block, side="right")  # column of the first digit
        runs = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), block.size]
        for lo, hi in zip(runs, runs[1:]):  # rows lo to hi - 1 have one width
            fh.write(records[lo:hi, first[lo]:width].tobytes())


def header_text(header):
    """The lines of header as the comment lines '# <line>' of a table file."""
    return "".join(f"# {line}\n" for line in header)


def write_table(path, header, *columns):
    """Write a table file: each line of header as a comment '# <line>', then
    one row per index of the columns (arrays or sequences), fields joined by
    commas, each item as its str (for a float, the shortest string that
    reads back to it; for a string, its text)."""
    rows = map(",".join, zip(*(map(str, np.asarray(c).tolist()) for c in columns)))
    with open(path, "w") as fh:
        fh.write(header_text(header))
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write("\n".join(block))
            fh.write("\n")
