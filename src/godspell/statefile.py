"""The one decoder of ``state.json``. ``read_state`` walks the file's object
one value at a time from a buffered text stream, decoded as
``config.read_text`` decodes (UTF-8, with or without a byte-order mark), so
the file never becomes one string. Each row of ``n_kw`` and ``doc_topic``
is decoded on its own, and a caller takes each checked row of a matrix it
names as it is decoded; no row is kept. ``top_words`` names ``n_kw`` and
``shares`` names ``doc_topic``.

The checks are made in one order and with one set of messages once the
whole file is decoded, so that a file is refused for the same reason
whatever a caller takes; a matrix that is not taken is checked as closely
as one that is. JSON that is not valid is refused where it is met, with
``config.read_json``'s error, for which the file is read whole. A row is
handed on only when it is an array of its matrix's types, as wide as the
fields before it say, and those fields pass the checks of their types; a
file whose taken matrix comes before such a field is refused. The checks
that need the whole file (the number of rows, what comes after the matrix)
are made only at its end, so rows may be handed on before a later check
refuses the file: a caller acts on them only once ``read_state`` has
returned. Only ``stats`` and ``topics-inspect`` import this module.
"""

from __future__ import annotations

import array
import json
from pathlib import Path
from typing import Callable, TextIO

from .topics import STATE_FIELDS, STATE_FORMAT, STATE_VERSION

# the characters one read of the stream takes, or as many as are still to be
# decoded when that is more, so that a value cut by a read is decoded about twice at most
READ = 1 << 16

# the keys in the order save_state writes them
ORDER = ("format", "version", *STATE_FIELDS)
# each matrix -> the types of its entries (a bool is not a number)
MATRICES = {"n_kw": {int}, "doc_topic": {int, float}}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a float", bool: "a boolean", type(None): "null"}
_WHITESPACE = json.decoder.WHITESPACE
_decode = json.JSONDecoder().raw_decode
_NONE = object()  # no such value
# what may follow a number's first characters, so that what is read so far may cut it
_NUMBER_GOES_ON = frozenset("0123456789.eE+-")


class _Stream:
    """The text of a file, a read at a time, with a position in what is read."""

    def __init__(self, path: Path | str, fh: TextIO) -> None:
        self.path, self.fh = path, fh
        self.buf, self.pos, self.eof = "", 0, False

    def more(self) -> None:
        chunk = self.fh.read(max(READ, len(self.buf) - self.pos))
        self.buf, self.pos, self.eof = self.buf[self.pos:] + chunk, 0, not chunk

    def invalid(self) -> ValueError:
        """config.read_json's error for the file, which is not valid JSON:
        json.loads' own message, line and column. Only here is the file read
        whole."""
        from .config import read_json

        try:
            read_json(self.path)
        except ValueError as e:
            return e
        return ValueError(f"{self.path} changed while it was read")

    def peek(self) -> str:
        """The next character that is not whitespace, not taken; '' at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.more()

    def expect(self, chars: str) -> str:
        """The next character that is not whitespace, which must be one of chars."""
        char = self.peek()
        if not char or char not in chars:
            raise self.invalid()
        self.pos += 1
        return char

    def value(self):
        """The JSON value that starts at the next character that is not
        whitespace, read on while the end of what is read may cut it: while
        it is not whole, or is a number that the next characters may go on."""
        self.peek()
        while True:
            try:
                value, end = _decode(self.buf, self.pos)
                if self.eof or end < len(self.buf) and self.buf[end] not in _NUMBER_GOES_ON:
                    self.pos = end
                    return value
            except json.JSONDecodeError:
                if self.eof:
                    raise self.invalid() from None
            self.more()


class _Matrix:
    """A matrix field as the checks see it, row by row, none of them kept: how
    many, the first that is not an array, the least and greatest length of
    those that are, the first entry of a type the matrix does not hold, and
    the first key save_state writes before it that had not come when it
    began (None when each had)."""

    def __init__(self, kinds: set[type]) -> None:
        self.kinds = kinds
        self.count, self.not_list, self.bad, self.widths, self.late = 0, _NONE, _NONE, None, None

    def add(self, row) -> bool:
        """Count row in; whether it is an array of the matrix's types."""
        self.count += 1
        if type(row) is not list:
            if self.not_list is _NONE:
                self.not_list = row
            return False
        lo, hi = self.widths or (len(row), len(row))
        self.widths = (min(lo, len(row)), max(hi, len(row)))
        if set(map(type, row)) <= self.kinds:
            return True
        if self.bad is _NONE:
            self.bad = next(x for x in row if type(x) not in self.kinds)
        return False


def _names(kinds: set[type]) -> str:
    return " or ".join(sorted(kind.__name__ for kind in kinds))


def _problem(name: str, value) -> str | None:
    """What read_state says of a field of another JSON type, or holding an
    item of another type, after "<name> "; None when there is nothing."""
    kinds, items = STATE_FIELDS[name]
    matrix = isinstance(value, _Matrix)
    kind = list if matrix else type(value)
    if kind not in kinds:
        return f"is {_JSON_TYPES[kind]}, not {' or '.join(_JSON_TYPES[k] for k in kinds)}"
    if items is None:
        return None
    bad = value.not_list if matrix else next((x for x in value if type(x) not in items), _NONE)
    return None if bad is _NONE else f"holds {bad!r}, not {_names(items)}"


def _check(path: Path | str, fields: dict) -> None:
    """The checks of the decoded fields, in their order: ValueError naming
    path for the first that fails, when the file is not a state file, a
    field is missing, of another type or holds an item of another type
    (named too), n_kw is not a matrix of integer counts or doc_topic one of
    numbers, or alpha, n_kw and doc_topic disagree with k, the vocabulary
    and doc_novels."""
    if fields.get("format") != STATE_FORMAT or fields.get("version") != STATE_VERSION:
        raise ValueError(f"unrecognized topic state file: {path}")
    missing = [name for name in STATE_FIELDS if name not in fields]
    if missing:
        raise ValueError(f"topic state {path} lacks the field {missing[0]!r}")
    for name in STATE_FIELDS:
        problem = _problem(name, fields[name])
        if problem:
            raise ValueError(f"topic state {path}: {name} {problem}")
    k, v, d = fields["k"], len(fields["vocabulary"]), len(fields["doc_novels"])
    for name, kinds in MATRICES.items():
        m = fields[name]
        if m.widths and m.widths[0] != m.widths[1]:
            raise ValueError(f"topic state {path}: {name} has rows of {m.widths[0]} to "
                             f"{m.widths[1]} values")
        if m.bad is not _NONE:
            raise ValueError(f"topic state {path}: {name} holds {m.bad!r}, not {_names(kinds)}")
    shapes = {
        "alpha": ((len(fields["alpha"]),), (k,)),
        "n_kw": ((fields["n_kw"].count, (fields["n_kw"].widths or (v,))[0]), (k, v)),
        "doc_topic": ((fields["doc_topic"].count, (fields["doc_topic"].widths or (k,))[0]),
                      (d, k)),
    }
    for name, (found, expected) in shapes.items():
        if found != expected:
            raise ValueError(f"topic state {path}: {name} has shape {found}, expected {expected}")


def _matrix(s: _Stream, name: str, fields: dict, take: Callable | None) -> _Matrix:
    """The rows of a matrix, each given to take(row, fields) as it is
    decoded while it and the fields before the matrix pass their checks."""
    m = _Matrix(MATRICES[name])
    width = None  # the length of a row that is handed on; None hands on none
    if take is not None:
        m.late = next((key for key in ORDER[:ORDER.index(name)] if key not in fields), None)
        if (m.late is None and fields["format"] == STATE_FORMAT
                and fields["version"] == STATE_VERSION
                and not any(_problem(key, fields[key]) for key in ORDER[2:ORDER.index(name)])):
            width = fields["k"] if name == "doc_topic" else len(fields["vocabulary"])
    s.pos += 1  # the "["
    closed = s.peek() == "]"
    s.pos += closed
    while not closed:
        row = s.value()
        if m.add(row) and len(row) == width:
            take(row, fields)
        else:
            width = None  # from a row the checks refuse on, none is handed on
        closed = s.expect(",]") == "]"
    return m


def _fields(s: _Stream, take: dict[str, Callable]) -> dict:
    """Each key of the file's object -> its value, a _Matrix for a matrix
    given as an array. ValueError naming the file for JSON that is not
    valid, a value that is not an object, or a key that repeats."""
    if s.peek() != "{":
        raise s.invalid()  # read_json's error: not valid JSON, or not an object
    s.pos += 1
    fields: dict = {}
    closed = s.peek() == "}"
    s.pos += closed
    while not closed:
        if s.peek() != '"':
            raise s.invalid()
        key = s.value()
        if key in fields:
            raise ValueError(f"topic state {s.path}: the key {key!r} repeats")
        s.expect(":")
        if key in MATRICES and s.peek() == "[":
            fields[key] = _matrix(s, key, fields, take.get(key))
        else:
            fields[key] = s.value()
        closed = s.expect(",}") == "}"
    if s.peek():
        raise s.invalid()
    return fields


def read_state(path: Path | str, take: dict[str, Callable] | None = None) -> dict:
    """The STATE_FIELDS of a state file written by save_state, as json.loads
    gives them, but the matrices (n_kw, doc_topic): take[name](row, fields)
    is called with each row of each matrix take names as it is decoded, and
    the fields decoded before it; every other matrix is checked and dropped.
    A row is handed on only if it is an array of its matrix's types, as long
    as the vocabulary (n_kw) or k (doc_topic), and every field save_state
    writes before the matrix came before it and passes the checks of its
    type; a later check may still refuse the file. ValueError naming path
    for JSON that is not valid or not an object, the first of ``_check``'s
    checks that fails, a key that repeats, a matrix take names that comes
    before a field save_state writes first, and a file that is not UTF-8."""
    take = take or {}
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            fields = _fields(_Stream(path, fh), take)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path} is not UTF-8: {e}") from None
    _check(path, fields)
    for name in take:
        if fields[name].late is not None:
            raise ValueError(f"topic state {path}: {name} comes before {fields[name].late}, "
                             f"which save_state writes first")
    return {name: fields[name] for name in STATE_FIELDS if name not in MATRICES}


def top_words(path: Path | str, n: int = 10) -> tuple[list[str], list[list[tuple[int, int]]]]:
    """The vocabulary, and each topic's top n words (``topics.top_words``)
    as (word id, count), kept as each n_kw row is decoded; no row is kept."""
    from .topics import top_words

    top: list[list[tuple[int, int]]] = []
    words = read_state(path, {"n_kw": lambda counts, fields: top.append(
        [(w, counts[w]) for w in top_words(counts, fields["vocabulary"], n)])})["vocabulary"]
    return words, top


def shares(path: Path | str) -> tuple[int, list[str], list[memoryview]]:
    """k, doc_novels and each doc_topic row, a view of one array of doubles holding them all."""
    doc_topic = array.array("d")
    model = read_state(path, {"doc_topic": lambda row, fields: doc_topic.extend(row)})
    k, novels, view = model["k"], model["doc_novels"], memoryview(doc_topic)
    return k, novels, [view[d * k:(d + 1) * k] for d in range(len(novels))]
