"""Evidence documents: the JSON file format the CLI reads and writes.

A mass document looks like::

    {"frame": ["a", "b", "c"],
     "masses": {"a": 0.3, "b|c": 0.5, "a|b|c": 0.2}}

Subset keys join member labels with ``|`` in frame order (so no label may
contain ``|``); the empty string is the empty set; a subset is listed at
most once and unlisted subsets carry mass zero.  Converted
representations use ``"kind"`` (bel / pl / q / b) and a dense ``"values"``
map instead of ``"masses"``.  A document has no other top-level key: a
mass document with ``"kind"`` or ``"values"`` as well, or any unknown key,
is an input error.  Output is canonical: keys in bitmask order,
numbers rounded to 12 significant digits, the text of
``json.dumps(doc, indent=2)`` plus a newline.

Zero rule: values below 1e-12 in magnitude are written as 0 when their
magnitudes add up to at most 1e-10; otherwise every value is written at
12 significant digits.  A mass document lists only the subsets whose
written mass is not 0.  Writing thus moves a value of magnitude at most 1
by less than 1e-12, and the sum of the masses by at most 1e-10 plus the
rounding.  Where that would take the values outside the reader's 1e-9
checks (masses summing to 1, none below -1e-9, the anchor value of a
kind), which only a function at the edge of those checks can reach,
every value is written unrounded instead, as Python's shortest
round-trip ``repr``.  A value function that inverts to masses must still
invert after rounding, where up to 2**n rounding errors add up; one that
does not invert is written by the reader's checks alone.  So the reader
accepts whatever the writer emits, and ``convert --to mass`` accepts
whatever ``convert`` wrote.

Both directions work a piece at a time, so a dense document never sits
in memory as one Python object per key or value.  The reader walks the
top level with ``json``'s own scanner and reads a ``"masses"`` or
``"values"`` map after ``"frame"`` in the ``2**12``-subset chunks it was
written in, gaps and all: a piece is the members of its first key's
chunk, cut at the comma before a later chunk's first key, the last at
the first ``}``.  A piece counts only if its chunk follows the last
piece's, it holds at most a chunk's worth of colons, and ``json`` reads
it as an object body with a member per colon, whose keys are keys of
that chunk in ascending order and whose values are finite numbers.  The
map is then those bodies joined by commas, which ``json`` reads as the
same members; each piece goes into the vector and is dropped.  Counting
colons proves that no piece repeats a key: each object member has one
``:`` of its own, so a piece holds as many colons as its object holds
members exactly when no key repeats and no string holds a colon.  Other
values are read whole by ``json`` with a hook that rejects a repeated
key.  Any doubt (a map before ``"frame"``, keys out of canonical order, a
cut inside a string, a ``}`` in a label, a count that does not match, a
repeated key, malformed JSON) sends the whole text through ``json.loads``
with that hook, which decodes keys in any order and raises whatever
error the text has, with the same messages.  The writer makes all its
decisions (the zero rule, the rounding, the reader's checks, the
notation) before its first piece of text.  It settles ``2**12`` subsets
at a time in one pass, under one notation rule: a value's ``.12g`` text,
or its ``repr`` where the two notations differ.  Per chunk it keeps the
offsets of the listed subsets (one array shared by every chunk that
lists all its subsets) and one string of values, which it splits only
as it writes the chunk, joining each key from a table of the low labels
and the chunk's key of high labels.  What is left whole is the text: a
command's ``read_text`` holds the file's bytes and its ``str`` at once.
The format is the same either way.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterator
from itertools import chain, repeat

import numpy as np

from .belief import Kind, MassFunction, ValueFunction, mass_from
from .errors import InputError, NotABeliefFunctionError
from .lattice import Frame

_ZERO_BELOW = 1e-12
_ZERO_BUDGET = 1e-10
# A written map goes out 2**_CHUNK_BITS subsets at a time.
_CHUNK_BITS = 12
# The top-level keys of each kind of document; any other key is an input error.
_MASS_KEYS = ("frame", "masses")
_VALUE_KEYS = ("frame", "kind", "values")


def _key_table(labels) -> list[str]:
    """Canonical subset keys over ``labels`` in bitmask order."""
    keys = [""]
    for label in labels:
        # the masks with this label's bit set: every earlier mask plus the label
        keys += [f"{key}|{label}" if key else label for key in keys]
    return keys


def _key_chunks(labels) -> tuple[int, list[str], list[str], list[str]]:
    """The key table over ``labels`` in chunks, for the writer and the reader alike.

    Returns ``(bits, low, low_sep, highs)``: key ``(h << bits) + s`` is
    ``low[s]`` in chunk ``h = 0`` and ``low_sep[s] + highs[h]`` after it.
    """
    bits = min(len(labels), _CHUNK_BITS)
    low = _key_table(labels[:bits])
    # after chunk 0 a high key follows, so every low key but the empty one takes a "|"
    low_sep = [""] + [key + "|" for key in low[1:]]
    return bits, low, low_sep, _key_table(labels[bits:])


def _json_text(key: str) -> str:
    """``key`` as JSON writes it inside a string.

    Escaping goes character by character and leaves ``|`` alone, so the
    text of a key joins the texts of its labels.
    """
    return json.encoder.encode_basestring_ascii(key)[1:-1]


def _label_bits(frame: Frame) -> dict[str, int]:
    return {label: 1 << i for i, label in enumerate(frame.labels)}


def subset_key(frame: Frame, subset: int) -> str:
    return "|".join(frame.members(subset))


def _decode_key(bits: dict[str, int], frame: Frame, key) -> int:
    if not isinstance(key, str):
        raise InputError(f"subset key must be a string, got {key!r}")
    if key == "":
        return 0
    members = key.split("|")
    try:
        subset = sum(map(bits.__getitem__, members))
    except KeyError as exc:
        raise InputError(f"label {exc.args[0]!r} not in frame {frame.labels}") from None
    if subset.bit_count() != len(members):
        raise InputError(f"repeated label in subset key {key!r}")
    return subset


def parse_subset_key(frame: Frame, key: str) -> int:
    return _decode_key(_label_bits(frame), frame, key)


def _written(values: np.ndarray, rebuild, dense: bool) -> tuple[list[np.ndarray], list[str]]:
    """``values`` as a document writes them, by the rules of the module docstring.

    ``rebuild`` checks the written values, at least as the reader does.
    A ``dense`` document lists every subset, any other only those whose
    written value is not 0.  Returns, per ``2**_CHUNK_BITS``-subset chunk,
    the ascending offsets of its listed subsets (one array that every
    chunk listing all its subsets shares) and one string of their values'
    JSON text, joined by newlines.

    One pass settles a chunk: one ``%.12g`` call formats its nonzero values,
    read back into the written vector.  A normal float of at most 12
    significant digits has no shorter text, so its ``repr`` has the digits
    of its ``.12g`` text.  The notation differs for integers (0 against 0.0,
    1e+12 against 1000000000000.0) and subnormals, which get their ``repr``,
    made once per bit pattern in the chunk, so ``-0.0`` keeps its sign.
    """
    tiny = np.abs(values) < _ZERO_BELOW
    if np.abs(values[tiny]).sum() <= _ZERO_BUDGET:
        out = np.where(tiny, 0.0, values)
    else:
        out = values.copy()
    every = np.arange(min(values.size, 1 << _CHUNK_BITS))
    offsets, texts = [], []
    for block in out.reshape(-1, every.size):  # views: the rounded values land in out
        listed = np.flatnonzero(block)
        # one format call per chunk, not one per value
        text = "\n".join(["%.12g"] * listed.size) % tuple(block[listed].tolist())
        digits = text.splitlines()  # none for an empty chunk
        block[listed] = np.fromiter(map(float, digits), float, listed.size)
        # a chunk that lists every subset shares one array: no document holds an index per subset
        chunk = every if dense or listed.size == every.size else listed
        rounded = block[chunk]
        anew = (rounded == np.trunc(rounded)) | (np.abs(rounded) < 1e-300)
        if anew.any():
            patterns, which = np.unique(rounded[anew].view(np.int64), return_inverse=True)
            reprs = np.array([repr(x) for x in patterns.view(float).tolist()], dtype=object)
            parts = np.empty(chunk.size, dtype=object)
            parts[rounded != 0.0] = digits
            parts[anew] = reprs[which]
            text = "\n".join(parts.tolist())
        offsets.append(chunk)
        texts.append(text)
    try:
        rebuild(out)
    except NotABeliefFunctionError:
        blocks = values.reshape(-1, every.size)
        offsets = [every if dense else np.flatnonzero(block) for block in blocks]
        texts = ["\n".join(map(repr, block[o].tolist())) for block, o in zip(blocks, offsets)]
    return offsets, texts


def _dump(
    header: dict, field: str, frame: Frame, offsets: list[np.ndarray], texts: list[str]
) -> Iterator[str]:
    """``json.dumps({**header, field: dict(zip(keys, values))}, indent=2) + "\\n"``
    in pieces, given per chunk of :func:`_written` the offsets of its listed
    subsets and their values' text.

    Only the short header goes through ``json.dumps``.  The body comes a
    chunk of ``2**_CHUNK_BITS`` subsets at a time.  The key of the subset at
    offset ``s`` of chunk ``h`` joins the key of ``s``, from a table of the
    low labels, and the key of ``h``, from a table of the high labels, so
    no whole key table or text is built; a chunk's text is split into its
    values only as the chunk is written.
    """
    text = json.dumps({**header, field: {}}, indent=2)
    # text ends with the empty map and the closing brace: '{}\n}'
    yield text[:-3]
    _, low, low_sep, highs = _key_chunks([_json_text(label) for label in frame.labels])
    written = False
    for high, chunk, values in zip(highs, offsets, texts):
        if not chunk.size:
            continue
        table = low_sep if high else low
        keys = [table[s] + high for s in chunk.tolist()]
        entries = zip(repeat(',\n    "'), keys, repeat('": '), values.splitlines())
        pieces = [*chain.from_iterable(entries)]
        if not written:
            pieces[0] = '\n    "'  # no comma before the first entry
            written = True
        yield "".join(pieces)
    yield "\n  }\n}\n" if written else "}\n}\n"


def _document_frame(frame: Frame) -> Frame:
    if any("|" in label for label in frame.labels):
        raise InputError(f"frame labels {frame.labels} contain the subset key separator '|'")
    return frame


def _parse_frame(labels) -> Frame:
    """The document frame on the list ``labels``; any fault in them is an :class:`InputError`."""
    if not isinstance(labels, list) or not labels:
        raise InputError('document needs a non-empty "frame" list')
    try:
        frame = Frame(tuple(labels))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _document_frame(frame)


def _parse_values(frame: Frame, mapping, what: str) -> np.ndarray:
    """The vector a ``"masses"`` or ``"values"`` map lists.

    A map that :func:`_map_in_pieces` read is that vector already; any other
    goes key by key, which decodes keys in any member order and names what it rejects.
    """
    if isinstance(mapping, np.ndarray):
        return mapping
    if not isinstance(mapping, dict):
        raise InputError(f'"{what}" must be a key-value map')
    values = _values_by_key(frame, mapping)
    if not np.isfinite(values).all():
        key, value = next((k, v) for k, v in mapping.items() if not np.isfinite(float(v)))
        raise InputError(f"value for {key!r} is not finite: {value!r}")
    return values


def _values_by_key(frame: Frame, mapping: dict) -> np.ndarray:
    bits = _label_bits(frame)
    values = np.zeros(frame.size)
    seen = set()
    for key, value in mapping.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"value for {key!r} is not a number: {value!r}")
        subset = _decode_key(bits, frame, key)
        if subset in seen:
            raise InputError(f"subset key {key!r} names a subset listed before")
        seen.add(subset)
        try:
            values[subset] = float(value)
        except OverflowError:
            raise InputError(f"value for {key!r} is too large for a float") from None
    return values


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: ``json`` alone keeps the last of two equal keys silently."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise InputError("a JSON object in the document lists the same key twice")
    return obj


def _load(text: str):
    """``json.loads(text)``; an :class:`InputError` if that fails or an object repeats a key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise InputError(f"not valid JSON: {exc}") from exc


def _map_in_pieces(text: str, start: int, frame: Frame) -> tuple[np.ndarray, int]:
    """The vector of the map whose body starts at ``text[start]``, read a piece at a time.

    Returns the vector and the index past the map's closing brace.  A piece
    is the members of its first key's chunk and ends at the comma before
    the first key of a later chunk, found by the text of a high key: every
    key of chunks ``g`` to ``g + lowbit(g) - 1`` ends in chunk ``g``'s high
    key.  The last piece ends at the first ``}``.  A piece holds what the
    module docstring says; anything else raises, before a piece larger
    than a chunk is parsed.
    """
    bits, low, low_sep, highs = _key_chunks(frame.labels)
    labels = [_json_text(label) for label in frame.labels]
    marks = [(f'"{key}"', f'|{key}"') for key in _key_table(labels[bits:])]
    # the most text a chunk takes as the writer lays it out, a float's repr being at most 24 characters
    span = (len("|".join(labels)) + len(',\n    "": ') + 24) << bits
    every = np.arange(1 << bits)
    offset_of = {}  # each key's offset in its chunk, for chunk 0 and for the others
    blocks = np.zeros(frame.size).reshape(len(highs), every.size)
    chunk, found = -1, 0
    while found >= 0:
        pos = json.decoder.WHITESPACE.match(text, start).end()
        if text[pos : pos + 1] != '"':
            raise ValueError("not a key")
        first = parse_subset_key(frame, json.decoder.scanstring(text, pos + 1)[0]) >> bits
        if first <= chunk:
            raise ValueError("not a later chunk")
        chunk, g, found = first, first + 1, -1
        while found < 0 and g < len(marks):
            # as written, chunk g's high key alone comes before the other keys that end in it
            hits = (text.find(mark, pos, pos + span) for mark in marks[g])
            found, g = next((i for i in hits if i >= 0), -1), g + (g & -g)
        # a "}" in a key ends the last piece inside a string, which json rejects
        stop = text.rfind(",", pos, found) if found >= 0 else text.find("}", pos)
        size = text.count(":", pos, stop) if stop > pos else 0
        if not 0 < size <= every.size:
            raise ValueError("not a chunk of members")
        piece = json.loads("{" + text[pos:stop] + "}")
        if len(piece) != size:
            raise ValueError("a repeated key or a colon in a string")
        table, high = low_sep if chunk else low, highs[chunk]
        if all(map(operator.eq, piece, map(operator.add, table, repeat(high)))):
            offsets = every[:size]  # the chunk's first keys, a full chunk's among them
        else:
            if (chunk > 0) not in offset_of:  # built only once a gap comes before a listed key
                offset_of[chunk > 0] = dict(zip(table, range(every.size)))
            lookup, cut = offset_of[chunk > 0], len(high)
            keys = (lookup.get(key[: len(key) - cut], -1) if key.endswith(high) else -1 for key in piece)
            offsets = np.fromiter(keys, int, size)
            if offsets[0] < 0 or not (offsets[1:] > offsets[:-1]).all():
                raise ValueError("not keys of the chunk in ascending order")
        if not set(map(type, piece.values())) <= {int, float}:  # bool is a type of its own
            raise ValueError("not numbers")
        blocks[chunk, offsets] = np.fromiter(piece.values(), float, size)
        if not np.isfinite(blocks[chunk]).all():
            raise ValueError("not finite")
        start = stop + 1
    return blocks.reshape(-1), start


def _read_in_pieces(text: str) -> dict:
    """``json.loads(text)``, reading a ``"masses"`` or ``"values"`` map after ``"frame"`` in pieces.

    Walks the top-level object with ``json``'s own scanner and reads every
    other value whole; a map read by :func:`_map_in_pieces` comes back as
    its vector, whose pieces count their own colons.  Raises on any doubt:
    a ``"masses"`` or ``"values"`` value that is not a map after
    ``"frame"``, a frame or a piece that does not hold, a repeated
    top-level key, a repeated key in a value read whole (``_unique_keys``),
    or text that is not one non-empty JSON object.
    """
    decoder = json.JSONDecoder(object_pairs_hook=_unique_keys)
    space = json.decoder.WHITESPACE.match
    doc = {}
    pos = space(text).end()
    if text[pos : pos + 1] != "{":
        raise ValueError("not an object")
    while True:
        pos = space(text, pos + 1).end()
        if text[pos : pos + 1] != '"':
            raise ValueError("not a key")
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = space(text, pos).end()
        if key in doc or text[pos : pos + 1] != ":":
            raise ValueError("a repeated key or no colon")
        pos = space(text, pos + 1).end()
        if key not in ("masses", "values"):
            doc[key], pos = decoder.scan_once(text, pos)
        elif "frame" in doc and text[pos : pos + 1] == "{":
            doc[key], pos = _map_in_pieces(text, pos + 1, _parse_frame(doc["frame"]))
        else:
            raise ValueError("not a map after the frame")
        pos = space(text, pos).end()
        if text[pos : pos + 1] != ",":
            break
    if text[pos : pos + 1] != "}" or space(text, pos + 1).end() != len(text):
        raise ValueError("not one object")
    return doc


def parse_document(text: str) -> MassFunction | ValueFunction:
    """Parse a mass or value document; raises :class:`InputError` on bad files.

    The text is read in pieces (:func:`_read_in_pieces`) where that holds,
    as it does for every document the writer emits, and whole
    (:func:`_load`) otherwise, which raises the text's own error.
    """
    try:
        doc = _read_in_pieces(text)
    except (ValueError, OverflowError, RecursionError, StopIteration, InputError):
        doc = None  # read whole after the handler, which would keep the pieces alive
    if doc is None:
        doc = _load(text)
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    allowed = _MASS_KEYS if "masses" in doc else _VALUE_KEYS
    extra = [key for key in doc if key not in allowed]
    if extra:
        kind = "mass" if "masses" in doc else "value"
        raise InputError(
            f"unexpected key {extra[0]!r} in a {kind} document; it allows only {', '.join(allowed)}"
        )
    frame = _parse_frame(doc.get("frame"))
    if "masses" in doc:
        return MassFunction(frame, _parse_values(frame, doc["masses"], "masses"))
    if "values" in doc:
        try:
            kind = Kind(doc.get("kind"))
        except ValueError:
            raise InputError(
                f'"kind" must be one of {[k.value for k in Kind]}, got {doc.get("kind")!r}'
            )
        return ValueFunction(frame, kind, _parse_values(frame, doc["values"], "values"))
    raise InputError('document needs a "masses" or a "kind" + "values" entry')


def parse_mass_document(text: str) -> MassFunction:
    parsed = parse_document(text)
    if not isinstance(parsed, MassFunction):
        raise InputError("expected a mass document, got a value-function document")
    return parsed


def mass_document_chunks(m: MassFunction) -> Iterator[str]:
    """The text of :func:`format_mass_document` in pieces.

    Every check of the writer has run when this returns, before the first piece.
    """
    frame = _document_frame(m.frame)
    offsets, texts = _written(m.values, lambda out: MassFunction(frame, out), dense=False)
    return _dump({"frame": list(frame.labels)}, "masses", frame, offsets, texts)


def value_document_chunks(v: ValueFunction) -> Iterator[str]:
    """The text of :func:`format_value_document` in pieces; checked like :func:`mass_document_chunks`."""
    frame = _document_frame(v.frame)

    def rebuild(out):
        written = ValueFunction(frame, v.kind, out)  # the reader's checks
        try:  # values that invert to masses must still invert as written
            mass_from(written)
        except NotABeliefFunctionError:
            try:
                mass_from(v)
            except NotABeliefFunctionError:
                return
            raise

    offsets, texts = _written(v.values, rebuild, dense=True)
    header = {"frame": list(frame.labels), "kind": v.kind.value}
    return _dump(header, "values", frame, offsets, texts)


def format_mass_document(m: MassFunction) -> str:
    return "".join(mass_document_chunks(m))


def format_value_document(v: ValueFunction) -> str:
    return "".join(value_document_chunks(v))


def format_matrix(frame: Frame, values: np.ndarray, kind: str) -> str:
    """Dense row-major matrix text with the index convention in the header.

    The header escapes ``kind`` and the labels as documents escape keys, so
    the text is ASCII and one line per row whatever the labels hold.
    """
    lines = [
        f"# {_json_text(kind)} matrix on frame {_json_text('|'.join(frame.labels))}",
        "# rows: source subset, cols: target subset, indexed by bitmask "
        "(bit i = i-th frame label, 0 = empty set)",
    ]
    # one format call per row, not one per entry
    row_format = " ".join(["%.12g"] * values.shape[1])
    lines += [row_format % tuple(row) for row in values.tolist()]
    return "\n".join(lines) + "\n"
