"""Shared value types, error taxonomy, and the virtual clock.

All timing is in seconds as 64-bit floats. Producers are deterministic, so
timestamp comparisons are exact (no epsilon). ``SENTINEL`` is a reserved
token string: inputs containing it as a word are rejected at ingestion
rather than escaped.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import NoReturn, Union, get_args, get_origin, get_type_hints

SENTINEL = "[SEP]"


def _reject_non_finite(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} is not valid JSON")


# One shared decoder, since ``json.loads`` builds one per call when given a
# keyword.
_strict_decode = json.JSONDecoder(parse_constant=_reject_non_finite).decode


def strict_json_loads(text: str):
    """``json.loads`` minus the NaN and Infinity literals JSON lacks.

    Every failure is a ``ValueError``, nesting too deep to decode included.
    """
    try:
        return _strict_decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


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
    """The message for a field at ``path`` that breaks a rule: one shape."""
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
    """``text`` decoded strictly (``strict_json_loads``) as one JSON object."""
    try:
        obj = strict_json_loads(text)
    except ValueError as exc:
        raise InvalidArgumentError(f"invalid JSON: {exc}; payload: {quote(text)}") from exc
    if type(obj) is not dict:
        raise InvalidArgumentError(f"expected a JSON object, got {quote(text)}")
    return obj


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


def read_jsonl(path: str | Path, parse) -> list:
    """``parse`` of each JSON object line of a file, blank lines skipped.

    Any ``ValueError`` on a line, bad UTF-8 included, becomes an
    ``InvalidArgumentError`` naming ``path:line``. Lines end at ``\n``
    only: canonical JSON keeps characters such as U+2028 raw inside
    strings, and ``str.splitlines`` would cut a line there.
    """
    parsed = []
    lineno = 0
    try:
        for lineno, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
            if line.strip():
                parsed.append(parse(json_object(line.decode("utf-8"))))
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    return parsed


# --- the record codec -----------------------------------------------------------
# A record is a dataclass whose ``__init__`` fields are its JSON layout: one
# key per field, under the field's name. Reading and writing both follow the
# fields, so no record spells its layout out by hand.


def _item_of(hint):
    """T of ``tuple[T, ...]``; None for any other type."""
    args = get_args(hint)
    if get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        return args[0]
    return None


def _field_reader(owner: type, name: str, hint):
    """(kind, reader) for field ``name`` of type ``hint``.

    A scalar has its kind and no reader: ``json_field`` reads it. Any
    other field has a reader ``(obj, where)``: ``tuple[T, ...]`` is a list
    of T, read as a tuple, whose items are records when T is a dataclass
    and lists of a scalar S when T is ``tuple[S, ...]``; ``Mapping[str, T]``
    is an object of T. ``T | None`` reads as T, None being only a default.
    A field of any other type is a ``TypeError`` when the schema is built.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        return _field_reader(owner, name, args[0] if args[1] is type(None) else args[1])
    if hint in _KINDS:
        return hint, None
    item = _item_of(hint)
    if item in _KINDS:
        return None, lambda obj, where: tuple(json_field(obj, name, list, where, items=item))
    if is_dataclass(item):

        def read_items(obj: dict, where: str) -> tuple:
            path = f"{where}.{name}" if where else name
            values = json_field(obj, name, list, where, items=dict)
            return tuple(
                read_record(item, value, f"{path}[{i}]") for i, value in enumerate(values)
            )

        return None, read_items
    scalar = _item_of(item)
    if scalar in _KINDS:

        def read_rows(obj: dict, where: str) -> tuple:
            # Row i is read as a field named ``name[i]``, so a bad item is
            # named at ``name[i][j]``.
            rows = json_field(obj, name, list, where, items=list)
            return tuple(
                tuple(json_field({f"{name}[{i}]": row}, f"{name}[{i}]", list, where, items=scalar))
                for i, row in enumerate(rows)
            )

        return None, read_rows
    if origin in (dict, Mapping) and args[0] is str and args[1] in _KINDS:
        return None, lambda obj, where: json_field(obj, name, dict, where, items=args[1])
    raise TypeError(f"{owner.__name__}.{name} has no JSON layout")


@cache
def _schema(cls: type) -> tuple:
    """(name, kind, reader, required) for each ``__init__`` field of a record."""
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
    for name, kind, read, required in _schema(cls):
        if name in given or not (required or name in obj):
            continue
        given[name] = json_field(obj, name, kind, where) if read is None else read(obj, where)
    try:
        return cls(**given)
    except InvalidArgumentError as exc:
        if not where:
            raise
        raise InvalidArgumentError(f"field '{where}' invalid: {exc}") from exc


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return tuple(f.name for f in fields(cls) if f.init)


def record_fields(record) -> dict:
    """A record's ``__init__`` fields by name: the object it is written as."""
    return {name: getattr(record, name) for name in _field_names(type(record))}


# One shared encoder, as for decoding. A tuple is written as a list.
_canonical_encode = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, separators=(",", ":"), default=record_fields
).encode


def canonical_json(obj) -> str:
    """``obj`` as canonical JSON: sorted keys, compact, UTF-8 kept.

    A record (a dataclass) inside ``obj`` is written as its fields.
    """
    return _canonical_encode(obj)


def dump_jsonl(records: Iterable) -> str:
    """Records as canonical JSONL text, one line per record."""
    return "".join(canonical_json(record) + "\n" for record in records)


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
    argmax over the attention layer named in the request; the controller
    checks each cut against the active source it sent.
    """

    tokens: tuple[str, ...]
    score: float
    cuts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
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
        object.__setattr__(self, "beams", tuple(self.beams))
        for a, b in zip(self.beams, self.beams[1:]):
            if a.score < b.score:
                raise InvalidArgumentError("beams must be ordered by descending score")


@dataclass
class StreamHistory:
    """Paired source/target sentence history plus the active (open) chunk.

    ``source_sentences[i]`` translates to ``target_sentences[i]``; the lists
    stay the same length so the oldest pairs can be evicted together without
    desynchronizing the stream.
    """

    source_sentences: list[list[str]] = field(default_factory=list)
    target_sentences: list[list[str]] = field(default_factory=list)
    active_source: list[str] = field(default_factory=list)
    active_target_committed: list[str] = field(default_factory=list)

    def history_source_words(self) -> int:
        return sum(len(s) for s in self.source_sentences)

    def buffered_source_words(self) -> int:
        """History plus active source word count (the eviction budget)."""
        return self.history_source_words() + len(self.active_source)

    def check_paired(self) -> None:
        if len(self.source_sentences) != len(self.target_sentences):
            raise InvalidArgumentError(
                f"history desynchronized: {len(self.source_sentences)} source "
                f"vs {len(self.target_sentences)} target sentences"
            )


@dataclass(frozen=True)
class EmissionRecord:
    """One emitted target token with its NCA and CA commitment times.

    NCA time is the source audio consumed when the token was committed; CA
    time is the virtual wall clock, which additionally counts compute cost.
    """

    token: str
    segment_ordinal: int
    nca_time_s: float
    ca_time_s: float

    def __post_init__(self) -> None:
        if self.segment_ordinal < 0:
            raise InvalidArgumentError("segment_ordinal must be >= 0")
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
    """

    audio_available_s: float = 0.0
    now_s: float = 0.0

    def advance_audio(self, delta_s: float) -> None:
        if delta_s < 0:
            raise InvalidArgumentError(f"audio delta must be >= 0, got {delta_s}")
        self.audio_available_s += delta_s
        self.now_s = max(self.now_s, self.audio_available_s)

    def charge_compute(self, cost_s: float) -> None:
        if not 0 <= cost_s < math.inf:
            raise InvalidArgumentError(
                f"compute cost must be finite and >= 0, got {cost_s}"
            )
        self.now_s += cost_s
