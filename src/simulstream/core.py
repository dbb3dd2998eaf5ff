"""Shared value types, error taxonomy, and the virtual clock.

All timing is in seconds as 64-bit floats. Producers are deterministic, so
timestamp comparisons are exact (no epsilon). ``SENTINEL`` is a reserved
token string: inputs containing it as a word are rejected at ingestion
rather than escaped.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, partial
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from types import UnionType
from typing import NoReturn, Union, get_args, get_origin, get_type_hints

SENTINEL = "[SEP]"


def _reject_non_finite(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} is not valid JSON")


# One shared decoder, since ``json.loads`` builds one per call when given a
# keyword. ``read_jsonl`` calls its C scanner directly: it reads one value
# from an index and returns where the value ends.
_strict_decoder = json.JSONDecoder(parse_constant=_reject_non_finite)
_strict_decode = _strict_decoder.decode
_scan_once = _strict_decoder.scan_once


_QUOTE_CHARS = 200


def quote(value) -> str:
    """``repr(value)`` cut to about 200 characters, for an error message.

    Input quoted in an error can be a whole multi-megabyte line; the
    message only has to show where it went wrong.
    """
    if isinstance(value, str):
        value = value[: _QUOTE_CHARS + 1]
    text = repr(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    return text[:_QUOTE_CHARS] + "..."


class InvalidArgumentError(ValueError):
    """A caller violated an operation's contract (bad value, bad shape)."""


class BackendError(RuntimeError):
    """A backend call failed (timeout, crash, unavailable). Retryable."""


class ProtocolError(RuntimeError):
    """A backend reply violated the wire schema or an in-process contract."""


def report_error(exc: Exception) -> int:
    """Write a command's failure as one JSON error line on stderr; return
    its exit code: 2 for a backend's fault, 1 for bad input or IO."""
    if isinstance(exc, (BackendError, ProtocolError)):
        kind, code = "backend-error" if isinstance(exc, BackendError) else "protocol-error", 2
    else:
        kind, code = "io-error" if isinstance(exc, OSError) else "invalid-argument", 1
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    return code


# --- the JSON boundary ----------------------------------------------------------
# Every file, config and wire message is read through these functions, so a
# field is checked by one rule and every error has one shape.

_FLOAT_MAX = sys.float_info.max
_MISSING = object()
_KINDS = {
    bool: "a bool",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def must_be(path: str, what: str, value=_MISSING) -> str:
    """The message for a field at ``path`` that breaks a rule: one shape.

    A path can end in a key read from input, so it is cut as ``quote``
    cuts a value.
    """
    if len(path) > _QUOTE_CHARS:
        path = path[:_QUOTE_CHARS] + "..."
    got = "nothing" if value is _MISSING else quote(value)
    return f"field '{path}' must be {what}, got {got}"


def json_field(
    obj: dict,
    name: str,
    kind: type,
    where: str = "",
    default=_MISSING,
    items: type | None = None,
):
    """``obj[name]`` if it is a JSON value of ``kind``; an error naming it if not.

    ``kind`` is one of bool, int, float, str, list and dict. A bool is
    never a number, an int field takes only integers, and a float field
    takes any finite JSON number and returns it as a float, so an integer
    too large for one fails. ``items`` is the kind of every item of a
    list, or of every value of an object. A missing field is ``default``
    if one is given. ``where`` is the path of ``obj``, which the message
    puts before ``name``.
    """
    value = obj.get(name, _MISSING)
    if type(value) is kind:
        if kind is float:
            if -_FLOAT_MAX <= value <= _FLOAT_MAX:
                return value
        elif items is None:
            return value
        else:
            for key, item in value.items() if kind is dict else enumerate(value):
                if type(item) is not items:
                    path = f"{where}.{name}" if where else name
                    path += f".{key}" if kind is dict else f"[{key}]"
                    raise InvalidArgumentError(must_be(path, _KINDS[items], item))
            return value
    elif kind is float and type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    elif value is _MISSING and default is not _MISSING:
        return default
    raise InvalidArgumentError(
        must_be(f"{where}.{name}" if where else name, _KINDS[kind], value)
    )


def json_object(text: str) -> dict:
    """``text`` decoded strictly as one JSON object.

    Strictly means ``json.loads`` minus the NaN and Infinity literals JSON
    lacks, and minus unpaired surrogates, which no UTF-8 writer can encode.
    Every failure is an ``InvalidArgumentError``, nesting too deep to
    decode included. Text decoded from UTF-8 holds no surrogate, so only a
    ``\\u`` escape can spell one, and only text with a backslash is checked.
    """
    try:
        obj = _strict_decode(text)
        if "\\" in text:  # a one-character search: "\\u" scans about 100x slower
            canonical_json(obj).encode("utf-8")
    except RecursionError:
        reason = "JSON nested too deeply to decode"
    except UnicodeEncodeError as exc:
        reason = f"unpaired surrogate {quote(exc.object[exc.start : exc.end])} is not text"
    except ValueError as exc:
        reason = str(exc)
    else:
        if type(obj) is not dict:
            raise InvalidArgumentError(f"expected a JSON object, got {quote(text)}")
        return obj
    raise InvalidArgumentError(f"invalid JSON: {reason}; payload: {quote(text)}")


def read_json_file(path: str | Path, parse=None):
    """The JSON object a file holds, passed through ``parse`` if given.

    Any ``ValueError`` on the way, bad UTF-8 and an ``InvalidArgumentError``
    included, becomes an ``InvalidArgumentError`` naming ``path``.
    """
    try:
        obj = json_object(Path(path).read_text(encoding="utf-8"))
        return obj if parse is None else parse(obj)
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


_BLANK = " \t\n\r\x0b\x0c"  # what ``bytes.strip`` strips: a line of only these is blank


def read_jsonl(path: str | Path, parse=None) -> list:
    """``parse`` of each JSON object line of a file, or the object itself
    when ``parse`` is None; blank lines are skipped.

    Any ``ValueError`` on a line, bad UTF-8 included, becomes an
    ``InvalidArgumentError`` naming ``path:line``. Lines end at ``\n``
    only: canonical JSON keeps characters such as U+2028 raw inside
    strings, and ``str.splitlines`` would cut a line there.

    The file is decoded once. A file of object lines with no backslash,
    ending in a newline (``_scan_lines``), is read by one scan of the
    decoder's C scanner. Any other file is read line by line: a line that
    is exactly one object is read by the C scanner, and any other line, or
    any line with a backslash (an escape, which ``json_object`` checks for
    surrogates), is skipped if blank and otherwise read or refused by
    ``json_object``, as a line read on its own would be.
    """
    data = Path(path).read_bytes()
    bad_line = None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Read the lines before the bad one, then decode that line alone, so
        # its error counts the byte position from the start of the line.
        head = data.rfind(b"\n", 0, exc.start) + 1
        text = data[:head].decode("utf-8")  # its last line, "", is where the bad one was
        bad_line = data[head:].split(b"\n", 1)[0]
    objects = _scan_lines(text) if bad_line is None else None
    if objects is not None and parse is None:
        return objects
    parsed = []
    lineno = 0
    try:
        if objects is not None:
            for lineno, obj in enumerate(objects, start=1):  # line i holds object i
                parsed.append(parse(obj))
            return parsed
        escaped = "\\" in text
        for lineno, line in enumerate(text.split("\n"), start=1):
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line) or type(obj) is not dict or (escaped and "\\" in line):
                if not line.strip(_BLANK):
                    continue
                obj = json_object(line)
            parsed.append(obj if parse is None else parse(obj))
        if bad_line is not None:
            bad_line.decode("utf-8")  # raises, and ``lineno`` is its line
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    return parsed


# A closing brace, then a comma: where a line can go on past the object it
# opened with. JSON whitespace inside a line is a space, tab or CR.
_COMMA_AFTER_BRACE = re.compile(r"\}[ \t\r]*,")


def _scan_lines(text: str) -> list | None:
    """The object on each line of ``text``, from one scan of the lines
    joined into one JSON array; None unless that scan reads every line as
    exactly one object, as the line-by-line walk would.

    Only text with no backslash that ends in a newline is joined. Each
    newline becomes ``,\n``: the newline stays, so a string broken across
    two lines keeps a raw newline, which the strict scanner refuses. The
    scan must end at the end of the array and give one object per line,
    and no line may hold a comma after a closing brace. Without that last
    rule an object spread over two lines (``{"a":[1`` then ``2]}``) and a
    line of two objects (``{"x":1},{"y":2}``) would make up the count
    between them: with it, every top-level comma joins two lines, so each
    line holds exactly one item.
    """
    if "\\" in text or not text.endswith("\n"):
        return None
    joined = "[" + text.replace("\n", ",\n")[:-2] + "]"
    try:
        objects, end = _scan_once(joined, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if (
        end == len(joined)
        and len(objects) == len(joined) - len(text)  # one character more per newline
        and set(map(type, objects)) <= {dict}
        and _COMMA_AFTER_BRACE.search(text) is None
    ):
        return objects
    return None


# --- the record codec -----------------------------------------------------------
# A record is a dataclass whose ``__init__`` fields are its JSON layout: one
# key per field, under the field's name. Reading and writing both follow the
# fields, so no record spells its layout out by hand. A scalar already of its
# field's kind is taken as decoded. A list of records is read by column
# (``read_records``): each field's values are taken with one ``itemgetter``
# pass and their kinds checked as one set, and the records are built with
# ``map(cls, *columns)``; a list that is not read by column is read item by
# item, so an error names the bad item. Every list of records is written by
# column (``dump_jsonl``): the writer reads the values, not the type hints,
# so a column of plain strings or finite floats is written in one pass and
# any other value by ``canonical_json``, as it would be inside its record; a
# class with no read layout is written all the same.


def _item_of(hint):
    """T of ``tuple[T, ...]``; None for any other type."""
    args = get_args(hint)
    if get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        return args[0]
    return None


def _field_reader(owner: type, name: str, hint):
    """(kind, items, reader) for field ``name`` of type ``hint``.

    A scalar has its kind and no reader: ``json_field`` reads it. Any
    other field has a reader ``(obj, where)``: ``tuple[T, ...]`` is a list
    of T, read as a tuple, whose items are records when T is a dataclass
    and lists of a scalar S when T is ``tuple[S, ...]``; ``Mapping[str, T]``
    is an object of T. ``items`` is T when T is a scalar, and None
    otherwise. ``T | None`` reads as T, None being only a default. A field
    of any other type is a ``TypeError`` when the schema is built.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        return _field_reader(owner, name, args[0] if args[1] is type(None) else args[1])
    if hint in _KINDS:
        return hint, None, None
    item = _item_of(hint)
    if item in _KINDS:
        return None, item, lambda obj, where: tuple(json_field(obj, name, list, where, items=item))
    if is_dataclass(item):

        def read_items(obj: dict, where: str) -> tuple:
            values = json_field(obj, name, list, where, items=dict)
            return tuple(read_records(item, values, f"{where}.{name}" if where else name))

        return None, None, read_items
    scalar = _item_of(item)
    if scalar in _KINDS:

        def read_rows(obj: dict, where: str) -> tuple:
            # Row i is read as a field named ``name[i]``, so a bad item is
            # named at ``name[i][j]``.
            rows = json_field(obj, name, list, where, items=list)
            if not set(map(type, chain.from_iterable(rows))) <= {scalar}:
                for i, row in enumerate(rows):  # raises at the first bad item
                    json_field({f"{name}[{i}]": row}, f"{name}[{i}]", list, where, items=scalar)
            return tuple(map(tuple, rows))

        return None, None, read_rows
    if origin in (dict, Mapping) and args[0] is str and args[1] in _KINDS:
        return None, None, lambda obj, where: json_field(obj, name, dict, where, items=args[1])
    raise TypeError(f"{owner.__name__}.{name} has no JSON layout")


@cache
def _schema(cls: type) -> tuple:
    """(name, kind, items, reader, required) for each ``__init__`` field of a record."""
    hints = get_type_hints(cls)
    return tuple(
        (
            f.name,
            *_field_reader(cls, f.name, hints[f.name]),
            f.default is MISSING and f.default_factory is MISSING,
        )
        for f in fields(cls)
        if f.init
    )


def read_record(cls: type, obj: dict, where: str = "", **given):
    """The record of class ``cls`` that a JSON object holds.

    Each ``__init__`` field is read under its own name; a missing field
    takes the dataclass default, and a field in ``given`` is passed through
    unread. ``where`` is the path of ``obj``, and the items of a list of
    records are read at ``<where>.<name>[i]``. An ``InvalidArgumentError``
    from the class's own checks is re-raised naming ``where``.
    """
    for name, kind, _, read, required in _schema(cls):
        if name not in given and (required or name in obj):
            given[name] = json_field(obj, name, kind, where) if read is None else read(obj, where)
    try:
        return cls(**given)
    except InvalidArgumentError as exc:
        if not where:
            raise
        raise InvalidArgumentError(f"field '{where}' invalid: {exc}") from exc


def _columns(cls: type, objects: list) -> list | None:
    """The values of each field of ``cls`` across ``objects``, in field
    order, a list field's as tuples; None if any value is missing or is not
    one ``read_record`` takes as decoded, or a field is neither a scalar nor
    a list of one."""
    columns = []
    for name, kind, items, _, _ in _schema(cls):
        try:
            column = list(map(itemgetter(name), objects))
        except (KeyError, TypeError):  # a missing field, or an item that is no object
            return None
        if kind is None:  # a list of ``items``, checked as ``json_field`` checks it
            if items is None or not set(map(type, column)) <= {list}:
                return None
            if not set(map(type, chain.from_iterable(column))) <= {items}:
                return None
            column = list(map(tuple, column))
        elif not _plain(kind, column):
            return None
        columns.append(column)
    return columns


def _plain(kind: type, column: list) -> bool:
    """Whether every value of ``column`` is exactly of the scalar ``kind``,
    a float only if finite: a value the codec takes as decoded when
    reading and writes by column."""
    if not set(map(type, column)) <= {kind}:
        return False
    # A sum of floats is finite only if every term is.
    return kind is not float or -_FLOAT_MAX <= sum(column) <= _FLOAT_MAX


def read_records(cls: type, objects: list, where: str = "") -> list:
    """The records of class ``cls`` that a list of JSON objects holds.

    The same records and errors as ``read_record`` of each item at
    ``<where>[i]``, read a field at a time where every value can be taken as
    decoded: every scalar of its field's kind (a float only if finite) and
    every ``tuple[S, ...]`` field a list of S. Any other list, one with a
    missing field or a record the class refuses included, is read item by
    item, so an error names the bad item.
    """
    columns = _columns(cls, objects)
    if columns is not None:
        try:
            return list(map(cls, *columns))
        except InvalidArgumentError:
            pass  # read again item by item, which names the item
    return [read_record(cls, obj, f"{where}[{i}]") for i, obj in enumerate(objects)]


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return tuple(f.name for f in fields(cls) if f.init)


def record_fields(record) -> dict:
    """A record's ``__init__`` fields by name: the object it is written as."""
    return {name: getattr(record, name) for name in _field_names(type(record))}


_encode_string = json.encoder.encode_basestring
_canonical = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, separators=(",", ":"), default=record_fields
)


def canonical_json(obj) -> str:
    """``obj`` as canonical JSON: sorted keys, compact, UTF-8 kept.

    A record (a dataclass) inside ``obj`` is written as its fields. A tuple
    is written as a list.
    """
    return _canonical.encode(obj)


# The JSON text of each value of a column of strings or of finite floats, as
# ``canonical_json`` writes it. An int or bool column, which no record the
# package writes has, goes to ``canonical_json``.
_SCALAR_WRITERS = {str: partial(map, _encode_string), float: partial(map, float.__repr__)}


def dump_jsonl(records: Iterable) -> str:
    """Records as canonical JSONL text, one line per record.

    A list of records of one class is written a field at a time into one
    ``%`` template, its keys in sorted order. A column of plain strings or
    plain finite floats (``_plain``) is turned to JSON text in one pass.
    Any other column (ints, bools, kinds mixed, as an int in a float field,
    a NaN or infinity, a ``str`` subclass, ``None``, a tuple or a nested
    record) is written value by value by ``canonical_json``, which writes
    a value exactly as it would inside its record, so no kind needs a
    writer of its own. A list of several classes is written one record at
    a time.
    """
    records = list(records)
    classes = set(map(type, records))
    if len(classes) != 1:
        return "".join([dump_jsonl([record]) for record in records])
    names = sorted(_field_names(classes.pop()))
    if not names:
        return "{}\n" * len(records)
    texts = []
    for name in names:
        column = list(map(attrgetter(name), records))
        kind = type(column[0])
        if kind in _SCALAR_WRITERS and _plain(kind, column):
            texts.append(_SCALAR_WRITERS[kind](column))
        else:
            texts.append(list(map(canonical_json, column)))
    # A field name is an identifier, so it holds no ``%`` to escape.
    template = "{" + ",".join(f"{_encode_string(name)}:%s" for name in names) + "}\n"
    return "".join(map(template.__mod__, zip(*texts)))


def write_emission_log(records: Iterable[EmissionRecord], path: str | Path) -> None:
    Path(path).write_bytes(dump_jsonl(records).encode("utf-8"))


def json_report(obj, path: str | Path | None = None) -> str:
    """``obj`` as a human-readable report: indented, sorted keys, final newline.

    The text is also written to ``path`` when one is given.
    """
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def check_word(word: str, where: str) -> None:
    """Reject a word that is empty, holds whitespace or is the sentinel.

    Every word entering a stream, a script or a corpus passes this one
    rule; ``where`` names the word's place in the message.
    """
    # ``str.split`` cuts at exactly the characters ``str.isspace`` accepts,
    # so a word comes back whole only if it is non-empty and has none.
    if word.split() != [word]:
        raise InvalidArgumentError(
            f"{where}: bad word {quote(word)}: must be non-empty with no whitespace"
        )
    if word == SENTINEL:
        raise InvalidArgumentError(
            f"{where}: the reserved sentinel {SENTINEL!r} cannot appear as a word"
        )


def check_words(words: Sequence[str], where: str) -> None:
    """``check_word`` of every word, in one test of the whole list.

    Joined by spaces and split again, the words come back as they were
    only if none is empty or holds whitespace; a list that fails this test
    or holds the sentinel is checked word by word, so the message names
    the first bad word as ``check_word`` names it.
    """
    if " ".join(words).split() != list(words) or SENTINEL in words:
        for word in words:
            check_word(word, where)


MAX_BEAM_SIZE = 64  # a backend builds every beam asked for; presets ask for 10


def check_beam_size(value: int, name: str) -> None:
    """Reject a beam count outside 1..``MAX_BEAM_SIZE``, naming it ``name``."""
    if value < 1:
        raise InvalidArgumentError(f"{name} must be >= 1, got {value}")
    if value > MAX_BEAM_SIZE:
        raise InvalidArgumentError(f"{name} must be <= {MAX_BEAM_SIZE}, got {value}")


@dataclass(frozen=True)
class TimedWord:
    """A word with absolute start/end timestamps in source-audio seconds."""

    text: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        check_word(self.text, "TimedWord.text")
        if self.start_s < 0:
            raise InvalidArgumentError(f"start_s must be >= 0, got {self.start_s}")
        if self.start_s > self.end_s:
            raise InvalidArgumentError(
                f"start_s {self.start_s} > end_s {self.end_s} for {self.text!r}"
            )


@dataclass(frozen=True)
class AsrHypothesis:
    """One incremental ASR decode over an audio window.

    Timestamps are absolute source-audio seconds; the controller that sent
    the request checks that every word lies inside its window.
    """

    words: tuple[TimedWord, ...]

    def __post_init__(self) -> None:
        if type(self.words) is not tuple:
            object.__setattr__(self, "words", tuple(self.words))
        for a, b in zip(self.words, self.words[1:]):
            if a.end_s > b.end_s:
                raise InvalidArgumentError(
                    f"word end times must be non-decreasing: {a.text!r} ends "
                    f"{a.end_s} after {b.text!r} ends {b.end_s}"
                )

    def texts(self) -> list[str]:
        return [w.text for w in self.words]


@dataclass(frozen=True)
class BeamHypothesis:
    """A candidate target sequence with one source cut per token.

    ``cuts[j]`` is the active source position that token j attends to
    most, ties going to the largest index. A model server takes this
    argmax over the attention layer its own configuration names; the
    controller checks each cut against the active source it sent.
    """

    tokens: tuple[str, ...]
    score: float
    cuts: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.tokens) is not tuple:
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if type(self.cuts) is not tuple:
            object.__setattr__(self, "cuts", tuple(self.cuts))
        if len(self.cuts) != len(self.tokens):
            raise InvalidArgumentError(
                f"beam has {len(self.tokens)} tokens but {len(self.cuts)} cuts"
            )


@dataclass(frozen=True)
class BeamSet:
    """Beam search output, ordered by descending score.

    At most the request's ``beam_size`` beams; the controller checks that.
    """

    beams: tuple[BeamHypothesis, ...]

    def __post_init__(self) -> None:
        if type(self.beams) is not tuple:
            object.__setattr__(self, "beams", tuple(self.beams))
        for a, b in zip(self.beams, self.beams[1:]):
            if a.score < b.score:
                raise InvalidArgumentError("beams must be ordered by descending score")


@dataclass(frozen=True)
class EmissionRecord:
    """One emitted target token with its NCA and CA commitment times.

    NCA time is the source audio consumed when the token was committed; CA
    time is the virtual wall clock, which additionally counts compute cost.
    A token's segment is the number of ``SENTINEL`` records before it in
    the log.
    """

    token: str
    nca_time_s: float
    ca_time_s: float

    def __post_init__(self) -> None:
        if self.nca_time_s > self.ca_time_s:
            raise InvalidArgumentError(
                f"nca_time_s {self.nca_time_s} > ca_time_s {self.ca_time_s} "
                f"for {self.token!r}"
            )


def check_emission_log(records: list[EmissionRecord]) -> None:
    """Validate the append-only log invariants: NCA times non-decreasing."""
    for a, b in zip(records, records[1:]):
        if a.nca_time_s > b.nca_time_s:
            raise InvalidArgumentError(
                f"emission log not monotone: {a.token!r} at {a.nca_time_s} "
                f"precedes {b.token!r} at {b.nca_time_s}"
            )


@dataclass
class VirtualClock:
    """Deterministic simulation clock.

    ``audio_available_s`` tracks how much source audio exists; ``now_s`` is
    the virtual wall clock. Compute cost only ever pushes ``now_s`` forward,
    and audio arrival pulls ``now_s`` up to the audio front (audio cannot
    arrive from the future), so ``now_s >= audio_available_s`` holds after
    any backend call completes.

    Every step must be >= 0 and keep the clock finite. A refused audio delta
    is an ``InvalidArgumentError``: it comes from the caller's trace. A
    refused compute cost is a ``ProtocolError``: ``charge_compute`` only
    ever takes a cost a backend reported, in-process or over the wire.
    """

    audio_available_s: float = 0.0
    now_s: float = 0.0

    def advance_audio(self, delta_s: float) -> None:
        self.audio_available_s = _clock_step(
            self.audio_available_s, delta_s, "audio delta", InvalidArgumentError
        )
        self.now_s = max(self.now_s, self.audio_available_s)

    def charge_compute(self, cost_s: float) -> None:
        self.now_s = _clock_step(self.now_s, cost_s, "compute cost", ProtocolError)


def _clock_step(start: float, delta: float, name: str, error: type[Exception]) -> float:
    """``start + delta``, refused with ``error`` unless ``delta >= 0`` and the
    sum is finite: finite steps can still sum past the largest float."""
    end = start + delta
    if not (delta >= 0 and end < math.inf):
        raise error(f"{name} must be >= 0 and keep the clock finite, got {start} + {delta}")
    return end
