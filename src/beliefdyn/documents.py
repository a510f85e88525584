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

Both directions work per document rather than per key.  The reader
parses with ``json``'s own dicts and proves by one count that no object
repeats a key: each object member has one ``:`` of its own, so the text
holds as many colons as the parsed objects hold members exactly when no
key repeats and no string holds a colon.  Any other text, malformed JSON
included, is read again with a hook that rejects a repeated key, and
that reading raises whatever error the text has.  Every writer lists
keys in bitmask order, so a written map is a prefix of the canonical key
table; the reader compares it with the writer's chunks of that table,
one chunk at a time, and takes the numbers in one conversion.  Every
other key order or member order is still accepted, key by key, with the
same checks and error messages.  The writer makes all its decisions (the
zero rule, the rounding, the reader's checks, the notation) before its
first piece of text, keeping the 12-digit text of each value in
``repr``'s notation.  It then writes ``2**12`` subsets at a time,
joining each chunk's keys from a table of the low labels and the chunk's
key of high labels, so the whole key table and the whole text are never
built.  The format is the same either way.
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


def _written(values: np.ndarray, rebuild) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as a document writes them, by the rules of the module docstring.

    ``rebuild`` is the reader's constructor applied to the written values.
    Also returns the JSON text of each written value, its ``repr``, in an
    object array.
    """
    tiny = np.abs(values) < _ZERO_BELOW
    if np.abs(values[tiny]).sum() <= _ZERO_BUDGET:
        out = np.where(tiny, 0.0, values)
    else:
        out = values.copy()
    listed = np.flatnonzero(out)
    # one format call over all listed values, not one per value
    digits = ("%.12g\n" * listed.size % tuple(out[listed].tolist())).splitlines()
    out[listed] = rounded = np.fromiter(map(float, digits), float, listed.size)
    try:
        rebuild(out)
    except NotABeliefFunctionError:
        out, listed = values, np.flatnonzero(values)
        digits = list(map(repr, values[listed].tolist()))
    else:
        # No text of fewer digits names a normal float of at most 12 significant
        # digits, so its repr has the digits of its .12g text.  The notation
        # differs for integers (1 against 1.0) and from 1e12 on (1e+12 against
        # 1000000000000.0); those values, and the subnormal ones, are written anew.
        magnitude = np.abs(rounded)
        anew = (rounded == np.trunc(rounded)) | (magnitude >= 1e12) | (magnitude < 1e-300)
        for i in np.flatnonzero(anew).tolist():
            digits[i] = repr(float(digits[i]))
    texts = np.empty(out.size, dtype=object)
    texts[:] = "0.0"
    texts[np.signbit(out)] = "-0.0"
    texts[listed] = digits
    return out, texts


def _dump(
    header: dict, field: str, frame: Frame, listed: np.ndarray, texts: np.ndarray
) -> Iterator[str]:
    """``json.dumps({**header, field: dict(zip(keys, values))}, indent=2) + "\\n"``
    in pieces, given the ``listed`` subsets in ascending order and the JSON
    text of each one's value.

    Only the short header goes through ``json.dumps``.  The body comes a
    chunk of ``2**_CHUNK_BITS`` subsets at a time.  The key of subset ``s``
    joins the key of its low bits ``s & mask``, from a table of the low
    labels, and the key of its chunk, from a table of the high labels, so
    no whole key table or text is built.
    """
    text = json.dumps({**header, field: {}}, indent=2)
    # text ends with the empty map and the closing brace: '{}\n}'
    yield text[:-3]
    bits, low, low_sep, highs = _key_chunks([_json_text(label) for label in frame.labels])
    edges = np.searchsorted(listed, np.arange(len(highs) + 1) << bits).tolist()
    mask = (1 << bits) - 1
    written = False
    for high, start, stop in zip(highs, edges, edges[1:]):
        if start == stop:
            continue
        table = low_sep if high else low
        keys = [table[s] + high for s in (listed[start:stop] & mask).tolist()]
        values = texts[start:stop].tolist()
        pieces = [*chain.from_iterable(zip(repeat(',\n    "'), keys, repeat('": '), values))]
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


def _canonical_prefix(frame: Frame, keys: list) -> bool:
    """Whether the string ``keys`` are the first ``len(keys)`` keys of the frame's table."""
    if len(keys) > frame.size:
        return False
    # the first c keys name only the first (c - 1).bit_length() labels
    bits, low, low_sep, highs = _key_chunks(frame.labels[: (len(keys) - 1).bit_length()])
    for h, high in enumerate(highs):
        chunk = keys[h << bits : (h + 1) << bits]
        # the expected keys one at a time, so no chunk of them is held
        expected = map(operator.add, low_sep, repeat(high)) if h else low
        if not all(map(operator.eq, chunk, expected)):
            return False
    return True


def _dense_values(frame: Frame, mapping: dict) -> np.ndarray | None:
    """The vector of a canonical-order prefix of numbers, read in one pass; else None."""
    if not _canonical_prefix(frame, list(mapping)):
        return None
    if not set(map(type, mapping.values())) <= {int, float}:  # bool is a type of its own
        return None
    values = np.zeros(frame.size)
    try:
        values[: len(mapping)] = np.fromiter(mapping.values(), float, len(mapping))
    except OverflowError:  # the per-key route names the key
        return None
    return values


def _parse_values(frame: Frame, mapping, what: str) -> np.ndarray:
    """The vector a ``"masses"`` or ``"values"`` map lists.

    A canonical-order prefix of numbers takes one pass; any other map goes
    key by key, which decodes keys in any member order and names what it rejects.
    """
    if not isinstance(mapping, dict):
        raise InputError(f'"{what}" must be a key-value map')
    values = _dense_values(frame, mapping)
    if values is None:
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


def _member_count(doc) -> int:
    """The number of members of the JSON objects in ``doc``, nested ones included."""
    count, stack = 0, [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            count += len(node)
            node = node.values()
        elif not isinstance(node, list):
            continue
        if not {dict, list}.isdisjoint(map(type, node)):
            stack += [x for x in node if isinstance(x, (dict, list))]
    return count


def _load(text: str):
    """``json.loads(text)``; an :class:`InputError` if that fails or an object repeats a key.

    Each object member has one ``:`` of its own.  So the text holds as many
    colons as the parsed objects hold members exactly when no key repeats
    and no string holds a ``:``; otherwise ``_unique_keys`` reads it again.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        pass
    else:
        if text.count(":") == _member_count(doc):
            return doc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise InputError(f"not valid JSON: {exc}") from exc


def parse_document(text: str) -> MassFunction | ValueFunction:
    """Parse a mass or value document; raises :class:`InputError` on bad files."""
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
    values, texts = _written(m.values, lambda out: MassFunction(frame, out))
    listed = np.flatnonzero(values)
    return _dump({"frame": list(frame.labels)}, "masses", frame, listed, texts[listed])


def value_document_chunks(v: ValueFunction) -> Iterator[str]:
    """The text of :func:`format_value_document` in pieces; checked like :func:`mass_document_chunks`."""
    frame = _document_frame(v.frame)

    def rebuild(out):
        return ValueFunction(frame, v.kind, out)

    try:
        mass_from(v)
    except NotABeliefFunctionError:
        _, texts = _written(v.values, rebuild)
    else:
        _, texts = _written(v.values, lambda out: mass_from(rebuild(out)))
    header = {"frame": list(frame.labels), "kind": v.kind.value}
    return _dump(header, "values", frame, np.arange(frame.size), texts)


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
