"""Evidence documents: the JSON file format the CLI reads and writes.

A mass document looks like::

    {"frame": ["a", "b", "c"],
     "masses": {"a": 0.3, "b|c": 0.5, "a|b|c": 0.2}}

Subset keys join member labels with ``|`` in frame order (so no label may
contain ``|``); the empty string is the empty set; a subset is listed at
most once and unlisted subsets carry mass zero.  Converted
representations use ``"kind"`` (bel / pl / q / b) and a dense ``"values"``
map instead of ``"masses"``.  Output is canonical: keys in bitmask order,
numbers rounded to 12 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .belief import Kind, MassFunction, ValueFunction
from .errors import InputError
from .lattice import Frame


def subset_key(frame: Frame, subset: int) -> str:
    return "|".join(frame.members(subset))


def parse_subset_key(frame: Frame, key: str) -> int:
    if not isinstance(key, str):
        raise InputError(f"subset key must be a string, got {key!r}")
    if key == "":
        return 0
    members = key.split("|")
    if len(set(members)) != len(members):
        raise InputError(f"repeated label in subset key {key!r}")
    try:
        return frame.subset(members)
    except Exception as exc:
        raise InputError(str(exc)) from exc


def _round12(x: float) -> float:
    # values below the 12-significant-digit print precision collapse to zero
    if abs(x) < 1e-12:
        return 0.0
    return float(f"{float(x):.12g}")


def _document_frame(frame: Frame) -> Frame:
    if any("|" in label for label in frame.labels):
        raise InputError(f"frame labels {frame.labels} contain the subset key separator '|'")
    return frame


def _parse_frame(doc: dict) -> Frame:
    labels = doc.get("frame")
    if not isinstance(labels, list) or not labels:
        raise InputError('document needs a non-empty "frame" list')
    try:
        return _document_frame(Frame(tuple(labels)))
    except Exception as exc:
        raise InputError(str(exc)) from exc


def _parse_values(frame: Frame, mapping, what: str) -> np.ndarray:
    if not isinstance(mapping, dict):
        raise InputError(f'"{what}" must be a key-value map')
    values = np.zeros(frame.size)
    seen = set()
    for key, value in mapping.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"value for {key!r} is not a number: {value!r}")
        subset = parse_subset_key(frame, key)
        if subset in seen:
            raise InputError(f"subset key {key!r} names a subset listed before")
        seen.add(subset)
        values[subset] = float(value)
    return values


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: ``json`` alone keeps the last of two equal keys silently."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise InputError("a JSON object in the document lists the same key twice")
    return obj


def parse_document(text: str) -> MassFunction | ValueFunction:
    """Parse a mass or value document; raises :class:`InputError` on bad files."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    frame = _parse_frame(doc)
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


def format_mass_document(m: MassFunction) -> str:
    _document_frame(m.frame)
    masses = {
        subset_key(m.frame, s): _round12(m.values[s])
        for s in range(m.frame.size)
        if _round12(m.values[s]) != 0.0
    }
    doc = {"frame": list(m.frame.labels), "masses": masses}
    return json.dumps(doc, indent=2) + "\n"


def format_value_document(v: ValueFunction) -> str:
    _document_frame(v.frame)
    values = {subset_key(v.frame, s): _round12(v.values[s]) for s in range(v.frame.size)}
    doc = {"frame": list(v.frame.labels), "kind": v.kind.value, "values": values}
    return json.dumps(doc, indent=2) + "\n"


def format_matrix(frame: Frame, values: np.ndarray, kind: str) -> str:
    """Dense row-major matrix text with the index convention in the header."""
    lines = [
        f"# {kind} matrix on frame {'|'.join(frame.labels)}",
        "# rows: source subset, cols: target subset, indexed by bitmask "
        "(bit i = i-th frame label, 0 = empty set)",
    ]
    for row in values:
        lines.append(" ".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"
