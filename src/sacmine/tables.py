"""The one CSV layer that every table sacmine reads or writes goes through.

Tables are UTF-8 in the ``csv`` default dialect. A read drops a leading
byte-order mark, fails on a quote left open, trims the header and skips
blank rows; one loop reads every table, :data:`CHUNK` raw rows at a time.
Iterating a table yields each row's raw cells; :meth:`Table.rows` parses a
row at a time, and :meth:`Table.chunks` checks a chunk a column at a time
and reads again row by row only a chunk that fails, so that each fault keeps
its message. Readers keep only their own format rule and raise plain domain
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
    """The rows of :meth:`Table.chunks` of a chunk of raw ``rows``, checked a
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
        self._reader, self._start, self._raw = reader, reader.line_num, []
        self._index = None  # the place, in the chunk being read, of the row handed out

    @property
    def line(self) -> int:
        """The line on which the row being handed out ends, or else the last
        row read, as ``csv`` counts lines. Counted only when asked."""
        ends, at = [], self._start
        for record in self._raw:  # a line break in a quoted cell adds a line
            at += 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in record)
            ends += [at] if record else []
        return max(at, 1) if self._index is None else ends[self._index]

    def expect(self, header: tuple[str, ...]) -> None:
        """Raise MissingHeader unless the header is exactly ``header``."""
        if self.header != header:
            raise MissingHeader(f"expected header {','.join(header)}, got {','.join(self.header)}")

    def _read(self):
        """The non-blank raw rows of each :data:`CHUNK` rows read, as a list; a
        ``csv`` or UTF-8 fault is raised once the rows before it are handed on."""
        reader, read, fault = self._reader, CHUNK, None
        while read == CHUNK and fault is None:
            self._start, self._index, raw = reader.line_num, None, []
            try:
                raw.extend(islice(reader, CHUNK))
            except (csv.Error, UnicodeDecodeError) as exc:
                fault = exc
            self._raw, read, rows = raw, len(raw), list(filter(None, raw))
            if rows:
                yield rows
        self._index = None
        if fault is not None:
            raise fault

    def __iter__(self):
        """The raw, untrimmed cells of every non-blank row, whatever its width."""
        return chain.from_iterable(map(self.each, self._read()))

    def each(self, rows):
        """Each of ``rows``, the chunk being read, with :attr:`line` on it."""
        for self._index, row in enumerate(rows):
            yield row

    def _parser(self, names, numeric: dict, check=None):
        """The function that turns a raw row into the tuple of :meth:`rows`, and
        the positions of the columns ``names``, found by header name once each."""
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

        return parse, positions

    def rows(self, names, numeric: dict):
        """Each row's trimmed cells of the columns ``names`` as a tuple, parsed as it is handed on.
        A row unlike the header in width raises; ``numeric`` maps a cell's index to its :func:`number` type."""
        return map(self._parser(names, numeric)[0], self)

    def chunks(self, names, numeric: dict, nominal: dict, check):
        """The rows of :meth:`rows`, checked a chunk and a column at a time, in lists of at most
        :data:`CHUNK`; the cell at each index in ``nominal`` must also be in the set it maps to. A chunk
        that fails a check is read again as :meth:`rows` reads, calling ``check`` on each row's cells:
        it raises for a nominal cell outside its set, and for its caller's own rules, in row order."""
        parse, positions = self._parser(names, numeric, check)
        for rows in self._read():
            yield _by_column(rows, len(self.header), positions, numeric, nominal) or list(
                map(parse, self.each(rows)))


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
