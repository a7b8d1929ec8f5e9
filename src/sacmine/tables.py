"""The one CSV reading layer that every sacmine input table goes through.

Tables are UTF-8 (a leading byte-order mark is dropped) in the ``csv``
default dialect, read strictly: fields may be quoted, but a quote left open
is an error. The header is trimmed and blank rows skipped. :meth:`Table.rows`
trims the cells it yields; iterating a table yields each row's raw ``csv``
cells, for a reader that trims only the cells it checks. Readers keep only
their own format rule and raise plain domain errors; this layer adds the
``file:line`` of the row. It also sets how many rows a streaming command
holds at a time: :data:`CHUNK`, cut by :func:`chunks`.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import ExitStack, contextmanager, suppress
from itertools import islice

from .errors import Error, MalformedInput, MissingHeader, SchemaMismatch

#: The rows that ``predict``, ``evaluate --model`` and ``score --format json`` hold at a time.
CHUNK = 1024


def chunks(rows):
    """Consecutive lists of :data:`CHUNK` rows of the iterable ``rows``; the last may be shorter."""
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK)):
        yield chunk


class Table:
    """A CSV input being read: its trimmed ``header`` and its rows."""

    def __init__(self, reader) -> None:
        self.header = tuple(cell.strip() for cell in next(reader, []))
        self._reader = reader

    def expect(self, header: tuple[str, ...]) -> None:
        """Raise MissingHeader unless the header is exactly ``header``."""
        if self.header != header:
            raise MissingHeader(f"expected header {','.join(header)}, got {','.join(self.header)}")

    def __iter__(self):
        """The raw, untrimmed cells of every non-blank row, whatever its width."""
        return filter(None, self._reader)

    def rows(self, names, numeric: dict):
        """Each row's trimmed cells of the columns ``names``, found by header
        name once each. A row unlike the header in width raises, and the cell at
        each index in ``numeric`` is parsed by :func:`number` as the type it maps to."""
        missing = [name for name in names if self.header.count(name) != 1]
        if missing:
            raise MissingHeader(f"columns missing or repeated: {missing}")
        positions = [self.header.index(name) for name in names]
        width = len(self.header)
        for row in self._reader:
            if not row:
                continue
            if len(row) != width:
                raise SchemaMismatch(f"expected {width} fields, got {len(row)}")
            cells = [row[p].strip() for p in positions]
            for i, kind in numeric.items():
                cells[i] = number(names[i], cells[i], kind)
            yield cells


def number(name: str, text: str, kind):
    """The cell ``text`` of column ``name`` as a finite ``kind``, float or int."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise SchemaMismatch(f"{name}: expected {what}, got {text!r}")


@contextmanager
def read(source):
    """Open ``source`` as a :class:`Table`: a path (``os.PathLike``), CSV
    text (``str``), ``bytes``, or a binary or text handle, streamed, not
    copied. Bad UTF-8 and ``csv`` faults raise MalformedInput; any domain
    error or ValueError raised while the table is read gains ``file:line``:
    for a ``csv`` fault, the line where its row begins if the source can
    seek, else the line where the reader gave up (for an open quote, the last)."""
    with ExitStack() as stack:
        if isinstance(source, os.PathLike):
            source = stack.enter_context(open(source, "rb"))
        if isinstance(source, (str, bytes)):
            source = io.BytesIO(source.encode("utf-8") if isinstance(source, str) else source)
        name = str(getattr(source, "name", "<input>"))
        if not isinstance(source, io.TextIOBase):
            source = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            stack.callback(source.detach)
        start = None
        with suppress(OSError):  # a text handle that next() has read from cannot tell
            start = source.tell() if source.seekable() else None
        reader = csv.reader(source, strict=True)
        try:
            yield Table(reader)
        except csv.Error as exc:
            line = reader.line_num
            if start is not None:  # read again, to the line after the last row that parses
                source.seek(start)
                reader, line = csv.reader(source, strict=True), 1
                with suppress(csv.Error):
                    for _ in reader:
                        line = reader.line_num + 1
            raise MalformedInput(f"{name}:{line}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The undecodable chunk starts on the line after the last one read.
            line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
            raise MalformedInput(f"{name}:{line}: not UTF-8: {exc.reason}") from None
        except (Error, ValueError) as exc:
            # Rows are read one at a time, so the reader is still on the bad one.
            raise type(exc)(f"{name}:{max(reader.line_num, 1)}: {exc}") from None
