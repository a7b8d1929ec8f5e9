"""The one CSV layer that every table sacmine reads or writes goes through.

Tables are UTF-8 in the ``csv`` default dialect. A read drops a leading
byte-order mark, fails on a quote left open, trims the header and skips
blank rows; one loop reads every table, :data:`CHUNK` raw rows at a time.
Iterating a table yields each row's raw cells; :meth:`Table.rows` checks
each chunk a column at a time and parses a chunk that fails a row at a time,
as its rows are handed on, so that each fault keeps its message and its place
in row order. Readers keep only their own format rule and raise plain domain
errors; this layer adds the ``file:line`` of the row, counted from the
chunk's raw rows. :func:`write` ends each row with ``\\n`` and quotes a cell
holding ``,``, ``"``, ``\\r`` or ``\\n`` as Python 3.13's ``csv`` does, on every interpreter.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from contextlib import ExitStack, contextmanager
from itertools import chain, islice
from operator import length_hint

from .errors import Error, MalformedInput, MissingHeader, SchemaMismatch

#: The raw rows read, checked and handed on at a time. The events steps' peak
#: RSS matched row-at-a-time reads from 32 to 80 rows, and was 1.5 MiB higher at 128.
CHUNK = 64


def chunks(rows):
    """Consecutive lists of :data:`CHUNK` rows of the iterable ``rows``; the last may be shorter."""
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK)):
        yield chunk


#: A cell that holds one of these must be quoted to read back; Python 3.13's ``csv`` quotes all four.
NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv(rows) -> str:
    """``rows`` as ``csv`` writes them when ``\\r\\n`` ends a row: it quotes :data:`NEEDS_QUOTES` on every Python."""
    buf = io.StringIO()
    try:
        csv.writer(buf, lineterminator="\r\n").writerows(rows)
    except csv.Error as exc:  # NUL in a cell, before Python 3.11
        raise SchemaMismatch(f"cannot write a cell: {exc}") from None
    return buf.getvalue()


def quoted(cell: str) -> str:
    """``cell`` as :func:`write` writes it."""
    return _csv(((cell,),))[:-2] if NEEDS_QUOTES.search(cell) else cell


def write(fh, rows) -> None:
    """Write ``rows`` to the text file ``fh`` as Python 3.13's ``csv`` does with ``\\n`` ending a row. A chunk
    with one ``\\r`` per row has none in a cell, so every ``\\r`` is dropped; any other is written row by row."""
    for chunk in chunks(rows):
        text = _csv(chunk)
        fh.write(text.replace("\r", "") if text.count("\r") == len(chunk)
                 else "".join(_csv((row,))[:-2] + "\n" for row in chunk))


def _by_column(rows, width: int, positions, numeric: dict, nominal: dict):
    """The rows of :meth:`Table.rows` of a chunk of raw ``rows``, checked a
    column at a time, or None if a check fails."""
    if set(map(len, rows)) != {width}:
        return None
    columns, parsed = list(zip(*rows)), []
    try:
        for i, p in enumerate(positions):
            # A number is not trimmed: int and float skip white space, and raise where strip trims more.
            column = list(map(numeric.get(i, str.strip), columns[p]))
            if (i in numeric and not all(map(math.isfinite, column))
                    or i in nominal and not nominal[i].issuperset(column)):
                return None
            parsed.append(column)
    except (ValueError, OverflowError):
        return None
    return list(zip(*parsed))


class Table:
    """A CSV input being read: its trimmed ``header`` and its rows."""

    def __init__(self, reader) -> None:
        self.header = tuple(cell.strip() for cell in next(reader, []))
        self._reader, self._start, self._raw, self._left = reader, reader.line_num, [], None

    @property
    def line(self) -> int:
        """The line on which the row being handed out ends, or else the last row read, as ``csv`` counts
        lines. Counted only when asked: the rows that the chunk's iterator has left place the row."""
        ends, at = [], self._start
        for record in self._raw:  # a line break in a quoted cell adds a line
            at += 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in record)
            ends += [at] if record else []
        return max(at, 1) if self._left is None else ends[len(ends) - 1 - length_hint(self._left)]

    def expect(self, header: tuple[str, ...]) -> None:
        """Raise MissingHeader unless the header is exactly ``header``."""
        if self.header != header:
            raise MissingHeader(f"expected header {','.join(header)}, got {','.join(self.header)}")

    def _read(self):
        """The non-blank raw rows of each :data:`CHUNK` rows read, as a list; a
        ``csv`` or UTF-8 fault is raised once the rows before it are handed on."""
        reader, read, fault = self._reader, CHUNK, None
        while read == CHUNK and fault is None:
            self._start, self._left, raw = reader.line_num, None, []
            try:
                raw.extend(islice(reader, CHUNK))
            except (csv.Error, UnicodeDecodeError) as exc:
                fault = exc
            self._raw, read, rows = raw, len(raw), list(filter(None, raw))
            if rows:
                yield rows
        self._left = None
        if fault is not None:
            raise fault

    def _hand(self, rows):
        """An iterator over ``rows``, the chunk being read, kept so that :attr:`line` finds the row it handed out."""
        self._left = iter(rows)
        return self._left

    def __iter__(self):
        """The raw, untrimmed cells of every non-blank row, whatever its width."""
        return chain.from_iterable(map(self._hand, self._read()))

    def rows(self, names, numeric: dict, nominal=(), check=None):
        """Each row's trimmed cells of the columns ``names`` as a tuple; a row unlike the header in width raises.
        ``numeric`` maps a cell's index to its :func:`number` type; ``nominal``, to the set its cell must be in.
        A chunk that fails its column checks is parsed as each row is handed on, calling ``check`` on the cells
        (it raises for a nominal cell outside its set), so the table's faults and the caller's come in row order."""
        missing = [name for name in names if self.header.count(name) != 1]
        if missing:
            raise MissingHeader(f"columns missing or repeated: {missing}")
        positions, width = [self.header.index(name) for name in names], len(self.header)

        def parse(row):
            if len(row) != width:
                raise SchemaMismatch(f"expected {width} fields, got {len(row)}")
            cells = [row[p].strip() for p in positions]
            for i, kind in numeric.items():
                cells[i] = number(names[i], cells[i], kind)
            if check is not None:
                check(cells)
            return tuple(cells)

        def checked(rows):
            parsed = _by_column(rows, width, positions, numeric, nominal)
            return map(parse, self._hand(rows)) if parsed is None else self._hand(parsed)

        return chain.from_iterable(map(checked, self._read()))


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
    for a ``csv`` fault, the line after the last row read, where its own row
    begins, so a pipe names the same line as a file. A :class:`Table` is handed back as is."""
    if isinstance(source, Table):
        yield source
        return
    with ExitStack() as stack:
        if isinstance(source, os.PathLike):
            source = stack.enter_context(open(source, "rb"))
        if isinstance(source, (str, bytes)):
            source = io.BytesIO(source.encode("utf-8") if isinstance(source, str) else source)
        name = str(getattr(source, "name", "<input>"))
        if not isinstance(source, io.TextIOBase):
            source = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            stack.callback(source.detach)
        reader, table = csv.reader(source, strict=True), None
        try:
            yield (table := Table(reader))
        except csv.Error as exc:  # a fault in the header is in the row that begins on line 1
            raise MalformedInput(f"{name}:{1 if table is None else table.line + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The undecodable chunk starts on the line after the last one read.
            line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
            raise MalformedInput(f"{name}:{line}: not UTF-8: {exc.reason}") from None
        except (Error, ValueError) as exc:
            # Rows are read a chunk ahead, so the table knows the bad row's line.
            raise type(exc)(f"{name}:{table.line}: {exc}") from None
