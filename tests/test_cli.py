import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefdyn import documents, verify
from beliefdyn.cli import main
from beliefdyn.documents import (
    _unique_keys,
    _values_by_key,
    format_mass_document,
    format_matrix,
    format_value_document,
    mass_document_chunks,
    parse_document,
    parse_subset_key,
    subset_key,
)
from beliefdyn.errors import InputError
from beliefdyn.lattice import Frame, default_frame, mobius_subsets, zeta_subsets
from beliefdyn.belief import (
    Kind,
    MassFunction,
    ValueFunction,
    b_from_mass,
    bel_from_mass,
    mass_from,
    pl_from_mass,
    q_from_mass,
)
from beliefdyn.specialization import conditioning_matrix, dempsterian_matrix, disjunctive_matrix
from beliefdyn.verify import random_mass
from oracles import reference_document, reference_values

F3 = default_frame(3)


def tiny_masses(n: int, tiny: float) -> MassFunction:
    """``tiny`` on every subset but the full frame, which takes the rest."""
    values = np.full(1 << n, tiny)
    values[-1] = 1.0 - tiny * ((1 << n) - 1)
    return MassFunction(default_frame(n), values)


@st.composite
def mass_functions(draw):
    """Valid mass functions on up to 12 elements: dense, sparse, or mostly tiny masses.

    The sum may sit up to 9.5e-10 away from 1, near the edge of the 1e-9 check.
    """
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["dense", "sparse", "tiny"]))
    values = rng.random(1 << n)
    if style == "sparse":
        values *= rng.random(1 << n) < 0.1
        values[rng.integers(1 << n)] += 0.5
    if style == "tiny":
        # below the 1e-12 print cut-off; together below or above the 1e-10 budget
        values *= draw(st.sampled_from([1e-15, 1e-13, 9e-13]))
        values[-1] = 1.0 - values[:-1].sum()
    else:
        values /= values.sum()
    values[-1] += draw(st.sampled_from([0.0, -9.5e-10, 9.5e-10]))
    return MassFunction(default_frame(n), values)


PARTIAL = {"frame": ["a", "b", "c"], "masses": {"a": 0.3, "b|c": 0.5, "a|b|c": 0.2}}
PAIR0 = {"frame": ["a", "b"], "masses": {"a": 0.5, "a|b": 0.5}}
PAIR1 = {"frame": ["a", "b"], "masses": {"b": 0.4, "a|b": 0.6}}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def first_difference(text: str, expected: str):
    """The first line where two texts differ, as (number, line, expected line), or None.

    A short failure message where comparing two large documents would diff them whole.
    Lines are split at ``"\n"`` alone, so a missing final newline or a stray ``"\r"``
    differs, as it does under ``==``.
    """
    pairs = enumerate(zip_longest(text.split("\n"), expected.split("\n")))
    return next(((i, line, want) for i, (line, want) in pairs if line != want), None)


class TestDocuments:
    def test_first_difference_sees_every_difference_equality_sees(self):
        assert first_difference("a\nb\n", "a\nb\n") is None
        assert first_difference("a\nb", "a\nb\n") == (2, None, "")
        assert first_difference("a\r\nb\n", "a\nb\n") == (0, "a\r", "a")

    def test_subset_keys_are_canonical(self):
        assert subset_key(F3, 0b110) == "b|c"
        assert subset_key(F3, 0) == ""
        assert parse_subset_key(F3, "c|b") == 0b110
        assert parse_subset_key(F3, "") == 0

    def test_bad_keys_rejected(self):
        for key in ["a|z", "a|a", "a||b", "|a", "a|", "|", "a|b|a", "z"]:
            with pytest.raises(InputError):
                parse_subset_key(F3, key)
            text = json.dumps({"frame": ["a", "b", "c"], "masses": {key: 0.5, "a|b|c": 0.5}})
            with pytest.raises(InputError):
                parse_document(text)

    def test_non_string_key_is_input_error(self):
        with pytest.raises(InputError, match="subset key must be a string, got 3"):
            parse_subset_key(F3, 3)

    def test_unknown_label_is_named(self):
        with pytest.raises(InputError, match="label 'z' not in frame"):
            parse_subset_key(F3, "a|z")

    def test_non_canonical_key_parses(self):
        m = parse_document('{"frame":["a","b","c"],"masses":{"c|b":0.5,"a":0.5}}')
        assert m.mass(0b110) == 0.5

    # the writer goes 2**12 subsets at a time: sizes below, at and above one chunk
    @pytest.mark.parametrize("n", [*range(1, 14), 16])
    @pytest.mark.parametrize(
        "labels",
        [
            lambda n: tuple("abcdefghijklmnop"[:n]),
            lambda n: tuple(["é", "ж", "日本", "😀", "ß", "ø", "λ", "ü", "ñ", "ç", "å", "ğ", "ő",
                             "ł", "ж2", "日"][:n]),
            lambda n: tuple(f'q"{i}\\' for i in range(n)),
            lambda n: tuple(f"%s{i}%" for i in range(n)),
        ],
        ids=["ascii", "non-ascii", "quote-backslash", "percent"],
    )
    def test_writer_matches_reference_dump(self, n, labels):
        frame = Frame(labels(n))
        rng = np.random.default_rng(n)
        # the benchmark's dense shape: every subset but the full frame, a prefix of the key table
        prefix = rng.random(frame.size)
        prefix[-1] = 0.0
        prefix /= prefix.sum()
        # a few focal sets, most chunks of the key table list none
        sparse = np.zeros(frame.size)
        sparse[rng.integers(frame.size, size=3)] = rng.random(3)
        sparse[-1] += 0.5
        sparse /= sparse.sum()
        cases = [prefix, sparse]
        # the rounding does not depend on the chunks; the oracle writes one entry at a time
        if n <= 10:
            tiny = [tiny_masses(n, mass).values for mass in (9e-13, 1e-15)]
            cases += [random_mass(frame, rng).values, *tiny]
        for values in cases[:1] if n > 13 else cases:
            m = MassFunction(frame, values)
            assert first_difference(format_mass_document(m), reference_document(frame.labels, values)) is None
            for v in (bel_from_mass(m), q_from_mass(m)):
                expected = reference_document(frame.labels, v.values, v.kind.value)
                assert first_difference(format_value_document(v), expected) is None

    @pytest.mark.parametrize("n", [13, 14])
    def test_writer_matches_reference_across_chunk_edges(self, n):
        # the zero rule, the unrounded fallback and the values written anew in repr's
        # notation, each on both sides of every edge of the 2**12-subset chunks
        frame = Frame(tuple(f"s{i:02d}" for i in range(n)))
        rng = np.random.default_rng(n)
        edges = np.arange(1, frame.size >> 12) << 12
        near = (edges[:, None] + np.arange(-50, 50)).ravel()
        masses = rng.random(frame.size)
        masses /= masses.sum()
        zeroed = masses.copy()
        zeroed[near[::20]] = 4e-13  # well within the 1e-10 budget: written as 0
        zeroed[-1] += 1.0 - zeroed.sum()
        kept = np.full(frame.size, 9e-13)  # over the budget: every one written
        kept[-1] = 1.0 - kept[:-1].sum()
        # zeroing 100 tiny masses would take the sum 9e-11 further than the 1e-9 check allows
        tiny = near[:: edges.size]
        edge = masses.copy()
        edge[tiny] = 0.0
        edge *= (1.0 - 9.5e-10 - 9e-13 * tiny.size) / edge.sum()
        edge[tiny] = 9e-13
        one = np.zeros(frame.size)
        one[edges[-1]] = 1.0
        for values in (zeroed, kept, one):
            text = format_mass_document(MassFunction(frame, values))
            assert first_difference(text, reference_document(frame.labels, values)) is None
        text = format_mass_document(MassFunction(frame, edge))
        assert first_difference(text, reference_document(frame.labels, edge, rounded=False)) is None
        notation = [1.0, 0.0, -0.0, 1e12, 1e15, 1e16, 1e-5, 5e-324, 1e-310, 123.0, 1.5e13, -2.5e14]
        bel = rng.random(frame.size)
        bel[0] = 0.0
        bel[100:300] = 9e-13  # beyond the budget of the zero rule: -0.0 and 5e-324 stay
        for start in edges - len(notation) // 2:
            bel[start : start + len(notation)] = notation
        text = format_value_document(ValueFunction(frame, Kind.BELIEF, bel))
        assert first_difference(text, reference_document(frame.labels, bel, "bel")) is None

    @pytest.mark.parametrize("n", [12, 13, 16])
    def test_whole_chunks_in_repr_notation_match_reference(self, n):
        # every chunk of 2**12 subsets holds one class of values whose repr and .12g
        # notations differ (or, for 9e-13, a class that takes the sum past the zero budget)
        frame = Frame(tuple(f"s{i:02d}" for i in range(n)))
        rng = np.random.default_rng(n)
        classes = [
            lambda: 0.0,
            lambda: -0.0,
            lambda: 1.0,
            lambda: rng.integers(10**12, 10**16, 4096).astype(float),
            lambda: 5e-324 * rng.integers(1, 6, 4096),
            lambda: 9e-13,
        ]
        for shift in range(len(classes)):
            bel = np.empty(frame.size)
            for h, chunk in enumerate(bel.reshape(-1, 4096)):
                chunk[:] = classes[(h + shift) % len(classes)]()
            bel[0] = 0.0  # the anchor of a belief function
            text = format_value_document(ValueFunction(frame, Kind.BELIEF, bel))
            assert first_difference(text, reference_document(frame.labels, bel, "bel")) is None

    @pytest.mark.parametrize("rounded", [True, False], ids=["rounded", "unrounded"])
    @pytest.mark.parametrize("n", [12, 13, 16])
    def test_sparse_masses_with_empty_chunks_match_reference(self, n, rounded):
        # focal sets in two chunks of 2**12 subsets (one chunk at n=12), none in the
        # chunks before, between or after them
        frame = Frame(tuple(f"s{i:02d}" for i in range(n)))
        rng = np.random.default_rng(n)
        chunks = [frame.size >> 13, (frame.size >> 12) - 1]
        focal = (np.array(chunks)[:, None] << 12) + rng.choice(4096, (2, 60), replace=False)
        values = np.zeros(frame.size)
        values[focal[:, :10]] = rng.random((2, 10))
        values /= values.sum()
        if not rounded:
            # zeroing 100 masses of 9e-13 would take the sum 9e-11 further than the 1e-9
            # check allows
            tiny = focal[:, 10:].ravel()
            values *= (1.0 - 9.5e-10 - 9e-13 * tiny.size) / values.sum()
            values[tiny] = 9e-13
        text = format_mass_document(MassFunction(frame, values))
        assert first_difference(text, reference_document(frame.labels, values, rounded=rounded)) is None

    def test_repr_is_made_once_per_distinct_value_per_chunk(self, monkeypatch):
        # a plausibility document of sparse evidence is mostly 0 and 1; each chunk of
        # 2**12 subsets makes the repr of each once
        frame = default_frame(14)
        rng = np.random.default_rng(14)
        values = np.zeros(frame.size)
        values[rng.choice(frame.size, 5, replace=False)] = rng.random(5)
        pl = pl_from_mass(MassFunction(frame, values / values.sum()))
        made = []

        def spy(x):
            made.append(x)
            return repr(x)

        monkeypatch.setattr(documents, "repr", spy, raising=False)
        text = format_value_document(pl)
        assert first_difference(text, reference_document(frame.labels, pl.values, "pl")) is None
        written = reference_values(text).reshape(-1, 4096)
        integral = [set(chunk[chunk == np.trunc(chunk)].tolist()) for chunk in written]
        assert sorted(made) == sorted(x for values in integral for x in values)
        assert len(made) < np.count_nonzero(written == 1.0)

    @pytest.mark.parametrize("n", [3, 13])
    def test_cli_writes_the_formatted_text(self, tmp_path, capsys, n):
        # the CLI writes the writer's pieces one by one; together they are format_*'s string
        rng = np.random.default_rng(n)
        values = rng.random(1 << n)
        values[-1] = 0.0
        m = parse_document(format_mass_document(MassFunction(default_frame(n), values / values.sum())))
        path = tmp_path / "m.json"
        path.write_text(format_mass_document(m))
        for to, expected in [("mass", format_mass_document(m)),
                             ("bel", format_value_document(bel_from_mass(m)))]:
            out = tmp_path / f"{to}.json"
            assert main(["convert", str(path), "--to", to, "-o", str(out)]) == 0
            assert out.read_bytes() == expected.encode()
            assert main(["convert", str(path), "--to", to]) == 0
            assert capsys.readouterr().out == expected

    @settings(max_examples=60, deadline=None)
    @given(mass_functions())
    # 4095 masses of 9e-13 add up to 3.7e-9: zeroing them all broke the 1e-9 sum check
    @example(tiny_masses(12, 9e-13))
    @example(tiny_masses(1, 5e-13))
    @example(MassFunction(default_frame(1), [0.0, 1.0 - 9.999999999e-10]))
    def test_every_mass_function_reads_back(self, m):
        text = format_mass_document(m)
        back = parse_document(text)
        assert isinstance(back, MassFunction)
        # whichever route read it, the key-by-key route reads the same bits
        values = _values_by_key(m.frame, json.loads(text)["masses"])
        assert back.values.tobytes() == values.tobytes()
        text = format_value_document(bel_from_mass(m))
        values = _values_by_key(m.frame, json.loads(text)["values"])
        assert parse_document(text).values.tobytes() == values.tobytes()
        # 12 significant digits keep 12 decimals below 1 but only 11 from 1 to 10,
        # where a mass can sit when the masses sum to a little over 1
        err = np.abs(back.values - m.values)
        assert np.all(err <= np.where(np.abs(m.values) < 1.0, 1e-12, 5e-12 * np.abs(m.values)))

    def test_edge_of_the_reader_checks_is_written_unrounded(self):
        # rounded to 12 digits, 1 - 9.999999999e-10 becomes 0.999999999, 1.00000008e-9 below 1
        m = MassFunction(default_frame(1), [0.0, 1.0 - 9.999999999e-10])
        assert np.array_equal(parse_document(format_mass_document(m)).values, m.values)
        # zeroing 100 masses of 9e-13 would take the sum 9e-11 further from 1
        values = np.zeros(128)
        values[1:101] = 9e-13
        values[-1] = 1.0 - 9.5e-10 - values[:-1].sum()
        m = MassFunction(default_frame(7), values)
        assert np.array_equal(parse_document(format_mass_document(m)).values, m.values)
        q = ValueFunction(default_frame(1), Kind.COMMONALITY, [1.0 - 9.999999999e-10, 0.5])
        assert np.array_equal(parse_document(format_value_document(q)).values, q.values)

    @pytest.mark.parametrize("n", [18, 20])
    def test_plausibility_document_converts_back_at_the_frame_cap(self, n):
        # the inversion adds up 2**n rounding errors of the 12-digit values;
        # at n=20 the worst mass error is about half the reader's 1e-9 bound
        rng = np.random.default_rng(n)
        values = np.zeros(1 << n)
        focal = rng.choice(1 << n, size=1 << (n - 2), replace=False)
        values[focal] = rng.pareto(1.0, focal.size)
        m = MassFunction(default_frame(n), values / values.sum())
        back = mass_from(parse_document(format_value_document(pl_from_mass(m))))
        assert np.abs(back.values - m.values).max() <= 1e-9

    def test_parse_print_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_mass(F3, rng)
            text = format_mass_document(m)
            assert format_mass_document(parse_document(text)) == text
            v = q_from_mass(m)
            assert format_value_document(parse_document(format_value_document(v))) == format_value_document(v)

    def test_unlisted_subsets_are_zero(self):
        m = parse_document(json.dumps(PARTIAL))
        assert m.mass(0b010) == 0.0

    def test_malformed_documents(self):
        for text in ("not json", "[1,2]", '{"frame": []}', '{"frame": ["a"], "masses": 3}',
                     '{"frame": ["a"], "values": {"a": 1.0}}'):
            with pytest.raises(InputError):
                parse_document(text)

    @pytest.mark.parametrize("digits", [401, 4301])
    @pytest.mark.parametrize("field", ['"masses": {"a": %s}', '"kind": "q", "values": {"": %s, "a": 1}'],
                             ids=["masses", "values"])
    def test_oversized_integer_rejected(self, field, digits):
        # beyond a float's range, or beyond the digits Python converts to an int at all
        text = '{"frame": ["a"], %s}' % field % ("1" + "0" * (digits - 1))
        match = "not valid JSON" if digits > 4300 else "value for '(a)?' is too large for a float"
        with pytest.raises(InputError, match=match):
            parse_document(text)

    @pytest.mark.parametrize(
        "text",
        [
            # each keeps a valid canonical-order map once its repeated key is dropped
            '{"frame":["a"],"masses":{"":0.5,"a":0.5,"a":0.5}}',
            '{"frame":["a"],"frame":["a"],"masses":{"":0.5,"a":0.5}}',
            '{"frame":["a"],"kind":"q","values":{"":1.0,"a":0.5,"a":0.5}}',
            '{"frame":["a"],"masses":{"":0.5,"a":{"x":1,"x":1}}}',
            # the object with the repeated key closes before the stray comma
            '{"frame":["a"],"masses":{"":0.5,"a":0.5,"a":0.5},}',
            '{"frame":["a",{"x":1,"x":1}],"masses":{"":0.5,"a":0.5}}',
            # a ":" in a string adds a colon and a repeated key drops a member: neither hides the other
            '{"frame":["a:b"],"masses":{"":0.5,"a:b":0.5,"a:b":0.5}}',
        ],
        ids=["masses-map", "top-level", "values-map", "nested-in-a-value", "then-a-syntax-error",
             "nested-in-a-list", "colon-in-a-label"],
    )
    def test_repeated_json_key_rejected(self, tmp_path, capsys, text):
        message = "a JSON object in the document lists the same key twice"
        with pytest.raises(InputError, match=message):
            parse_document(text)
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert main(["convert", str(path), "--to", "bel"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_syntax_error_before_the_repeated_key_closes_is_named(self, tmp_path, capsys):
        text = '{"frame":["a"],"masses":{"":0.5,"a":0.5,"a":0.5,}}'
        message = ("not valid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 49 (char 48)")
        with pytest.raises(InputError) as info:
            parse_document(text)
        assert str(info.value) == message
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["convert", str(path), "--to", "bel"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("label, rereads", [("a:b", True), ("a\\u003ab", False)],
                             ids=["literal-colon", "escaped-colon"])
    def test_colon_in_a_label_reads(self, tmp_path, monkeypatch, label, rereads):
        # a literal ":" in a string gives a piece more colons than members, so the text is read
        # whole with the repeated-key hook; written as an escape it is no colon of the text
        calls = []

        def spy(pairs):
            calls.append(pairs)
            return _unique_keys(pairs)

        monkeypatch.setattr(documents, "_unique_keys", spy)
        text = '{"frame":["%s","c"],"masses":{"%s":0.25,"c":0.75}}' % (label, label)
        m = parse_document(text)
        assert m.frame.labels == ("a:b", "c")
        assert m.values.tolist() == [0.0, 0.25, 0.75, 0.0]
        assert bool(calls) == rereads
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["convert", str(path), "--to", "mass", "-o", str(tmp_path / "out.json")]) == 0

    def test_subset_listed_twice_rejected(self):
        # both keys name {a, b}; the listed masses sum to 1.3
        permuted = '{"frame":["a","b","c"],"masses":{"a|b":0.3,"b|a":0.3,"c":0.7}}'
        repeated = '{"frame":["a","b"],"masses":{"a":0.5,"a":0.5,"b":0.5}}'
        for text in (permuted, repeated):
            with pytest.raises(InputError, match="twice|listed before"):
                parse_document(text)

    @pytest.mark.parametrize(
        "doc, key",
        [
            # with both kinds of entry, either reading would drop the other's values
            ({"frame": ["a", "b"], "masses": {"a": 1.0}, "kind": "q",
              "values": {"": 1.0, "a": 1.0, "b": 0.0, "a|b": 0.0}}, "kind"),
            ({"frame": ["a", "b"], "masses": {"a": 1.0}, "values": {"a": 1.0}}, "values"),
            ({"frame": ["a", "b"], "masses": {"a": 1.0}, "bogus": 1}, "bogus"),
            ({"frame": ["a"], "kind": "b", "values": {"": 0.0, "a": 1.0}, "masses2": {}}, "masses2"),
        ],
    )
    def test_ambiguous_or_unknown_top_level_key_rejected(self, doc, key):
        with pytest.raises(InputError, match=f"unexpected key '{key}'"):
            parse_document(json.dumps(doc))

    def test_writers_emit_only_allowed_keys(self):
        m = MassFunction(default_frame(2), [0.1, 0.2, 0.3, 0.4])
        assert list(json.loads(format_mass_document(m))) == ["frame", "masses"]
        assert list(json.loads(format_value_document(q_from_mass(m)))) == ["frame", "kind", "values"]

    def test_separator_in_label_rejected_on_read(self):
        with pytest.raises(InputError, match="separator"):
            parse_document('{"frame":["x|y","z"],"masses":{"z":1.0}}')

    def test_separator_in_label_rejected_on_write(self):
        frame = Frame(("x|y", "z"))
        m = MassFunction(frame, [0.0, 0.5, 0.0, 0.5])
        with pytest.raises(InputError, match="separator"):
            format_mass_document(m)
        with pytest.raises(InputError, match="separator"):
            format_value_document(q_from_mass(m))


def read_in_pieces(text: str) -> bool:
    """Whether ``parse_document`` reads ``text`` in pieces: it reads a text whole only by ``_load``."""
    with mock.patch.object(documents, "_load", wraps=documents._load) as load:
        try:
            parse_document(text)
        except InputError:
            pass
    return not load.called


def outcome(text: str, whole: bool = False):
    """What ``parse_document`` reads from ``text``: its type, kind and bytes, or its error's type and line.

    ``whole`` reads the text whole, as when the piecewise route gives up.
    """
    refuse = mock.patch.object(documents, "_read_in_pieces", side_effect=ValueError)
    with refuse if whole else contextlib.nullcontext():
        try:
            parsed = parse_document(text)
        except InputError as exc:
            return type(exc), str(exc)
    return type(parsed), getattr(parsed, "kind", None), parsed.values.tobytes()


# name: the frame size and the subsets a mass document lists, read in pieces
GAP_LAYOUTS = {
    "zero-at-a-chunk-first-key": (13, [s for s in range(1 << 13) if s != 1 << 12]),
    "every-other-chunk-empty": (14, [s for s in range(1 << 14) if not s >> 12 & 1]),
    "trailing-empty-chunks": (15, list(range(0, 1 << 13, 2))),
    "single-key-in-the-last-chunk": (16, [*range(1 << 12), (1 << 16) - 1]),
}


def gap_masses(layout: str) -> MassFunction:
    n, listed = GAP_LAYOUTS[layout]
    values = np.zeros(1 << n)
    values[listed] = np.random.default_rng(n).random(len(listed)) + 0.5
    return MassFunction(default_frame(n), values / values.sum())


def gap_text(layout: str, edit=lambda pairs: pairs) -> str:
    """The layout's masses at full precision in ``json.dumps``'s layout, as ``edit`` lists them."""
    m = gap_masses(layout)
    listed = GAP_LAYOUTS[layout][1]
    pairs = edit([*zip((subset_key(m.frame, s) for s in listed), m.values[listed].tolist())])
    body = ", ".join(f"{json.dumps(key)}: {value!r}" for key, value in pairs)
    return '{"frame": %s, "masses": {%s}}' % (json.dumps(list(m.frame.labels)), body)


def parse_route(frame_labels, mapping, field="masses"):
    """Whether the piecewise route takes ``mapping``, and what ``parse_document`` makes of it."""
    doc = {"frame": list(frame_labels), field: mapping}
    if field == "values":
        doc["kind"] = "q"
    text = json.dumps(doc)
    try:
        return read_in_pieces(text), parse_document(text).values.tolist()
    except InputError as exc:
        return read_in_pieces(text), str(exc)


class TestDocumentRoutes:
    """Canonical keys of finite numbers, gaps allowed, are read in pieces; any other map key by key."""

    ABC = ["a", "b", "c"]
    PREFIX = {"": 0.1, "a": 0.2, "b": 0.3, "a|b": 0.4}

    def test_full_table_is_one_pass(self):
        keys = ["", "a", "b", "a|b", "c", "a|c", "b|c", "a|b|c"]
        mapping = dict(zip(keys, [1.0, 0.5, 0.25, 0.125, 0.5, 0.25, 0.125, 0]))
        assert parse_route(self.ABC, mapping, "values") == (
            True, [1.0, 0.5, 0.25, 0.125, 0.5, 0.25, 0.125, 0.0]
        )

    def test_strict_prefix_is_one_pass(self):
        expected = [0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 0.0, 0.0]
        assert parse_route(self.ABC, self.PREFIX) == (True, expected)

    @pytest.mark.parametrize(
        "mapping",
        [
            {"": 0.1, "b": 0.3, "a": 0.2, "a|b": 0.4},  # a prefix with one key swapped
            {"a|b": 0.4, "": 0.1, "b": 0.3, "a": 0.2},  # shuffled
            {"": 0.1, "a": 0.2, "b": 0.3, "b|a": 0.4},  # member order not the frame's
        ],
        ids=["swapped", "shuffled", "member-order"],
    )
    def test_other_orders_go_key_by_key(self, mapping):
        assert parse_route(self.ABC, mapping) == (False, [0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("layout", GAP_LAYOUTS)
    def test_gap_maps_are_read_in_pieces(self, layout):
        text = gap_text(layout)
        assert read_in_pieces(text)
        assert outcome(text) == outcome(text, whole=True) == (MassFunction, None, reference_values(text).tobytes())

    @pytest.mark.parametrize("layout", GAP_LAYOUTS)
    def test_written_gap_documents_are_read_in_pieces(self, layout):
        m = gap_masses(layout)
        for text in (format_mass_document(m), format_value_document(pl_from_mass(m))):
            assert read_in_pieces(text)
            assert outcome(text)[-1] == reference_values(text).tobytes()

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda pairs: [*pairs[:5], *pairs[6:], pairs[5]], None),
            (lambda pairs: [*pairs, pairs[5]], "a JSON object in the document lists the same key twice"),
            (lambda pairs: [*pairs[:5000], pairs[5001], pairs[5000], *pairs[5002:]], None),
            (lambda pairs: [*pairs[:5000], ("lm", pairs[5000][1]), *pairs[5001:]],
             "label 'lm' not in frame ('a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm')"),
        ],
        ids=["earlier-chunk-after-a-later-one", "key-repeated-in-two-pieces",
             "descending-inside-a-chunk", "high-suffix-without-a-separator"],
    )
    def test_gap_maps_out_of_order_go_whole(self, edit, error):
        text = gap_text("zero-at-a-chunk-first-key", edit)
        assert not read_in_pieces(text)
        assert outcome(text) == outcome(text, whole=True)
        if error is not None:
            assert outcome(text) == (InputError, error)

    def test_newline_in_a_label_is_one_pass(self):
        mapping = {"": 0.5, "x\ny": 0.25, "z": 0.125, "x\ny|z": 0.125}
        assert parse_route(["x\ny", "z"], mapping) == (True, [0.5, 0.25, 0.125, 0.125])

    @pytest.mark.parametrize(
        "count, swap, dense",
        [(1 << 13, None, True), (5000, None, True), (5000, 4097, False), (1 << 13, 8190, False)],
        ids=["full", "prefix-into-chunk-1", "swap-in-chunk-1", "swap-at-the-end"],
    )
    def test_keys_past_the_first_chunk_are_compared(self, count, swap, dense):
        frame = default_frame(13)
        keys = [subset_key(frame, s) for s in range(count)]
        if swap is not None:
            keys[swap], keys[swap + 1] = keys[swap + 1], keys[swap]
        mapping = dict.fromkeys(keys, 0.0)
        mapping[""] = 1.0
        expected = [1.0] + [0.0] * (frame.size - 1)
        assert parse_route(list(frame.labels), mapping) == (dense, expected)

    @pytest.mark.parametrize(
        "mapping, dense, error",
        [
            # canonical keys, but the type, the float conversion or the finite test sends them key by key
            ({"": 0.1, "a": True, "b": 0.3, "a|b": 0.6}, False, "value for 'a' is not a number: True"),
            ({"": 0.1, "a": 10**400, "b": 0.3}, False, "value for 'a' is too large for a float"),
            ({"": 0.1, "a": 0.2, "z": 0.3}, False, "label 'z' not in frame ('a', 'b', 'c')"),
            ({"": 0.1, "a": 0.2, "b": float("nan")}, False, "value for 'b' is not finite: nan"),
            # the whole table, then one key more
            ({**dict.fromkeys(["", "a", "b", "a|b", "c", "a|c", "b|c"], 0.0), "a|b|c": 1.0, "z": 0.0},
             False, "label 'z' not in frame ('a', 'b', 'c')"),
        ],
        ids=["bool", "400-digit-integer", "unknown-label", "nan", "key-past-the-table"],
    )
    def test_rejected_maps_keep_their_error(self, mapping, dense, error):
        assert parse_route(self.ABC, mapping) == (dense, error)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_is_named_on_both_routes(self, bad):
        rng = np.random.default_rng(0)
        values = rng.random(1 << 12)
        values /= values.sum()
        text = format_mass_document(MassFunction(default_frame(12), values))
        doc = json.loads(text)
        key = list(doc["masses"])[3001]
        doc["masses"][key] = bad
        dense = json.dumps(doc)
        doc["masses"] = dict(reversed(doc["masses"].items()))
        for text in (dense, json.dumps(doc)):
            with pytest.raises(InputError, match=f"value for '{key}' is not finite: {bad!r}"):
                parse_document(text)

    def test_infinite_number_text_is_named(self):
        # json reads 1e400 as inf
        with pytest.raises(InputError, match="value for 'a' is not finite: inf"):
            parse_document('{"frame":["a"],"masses":{"a":1e400}}')

    def test_written_documents_are_pinned(self):
        # SHA-256 of the writers' output, byte for byte; the two bel documents last moved when
        # the transforms of 2**12 entries and up became products (3 of 65 536 texts, one 12th digit)
        frame = default_frame(16)
        rng = np.random.default_rng(20261018)
        values = rng.random(frame.size) * (rng.random(frame.size) < 0.75)
        m = MassFunction(frame, values / values.sum())
        bel = bel_from_mass(m).values.copy()
        # notations where repr and .12g differ, or might
        notation = [1.0, 0.0, -0.0, 1e12, 1e15, 1e16, 1e-5, 5e-324, 123.0, 1.5e13, -2.5e14, 2.5e-7]
        bel[1 : 1 + len(notation)] = notation
        bel[100:300] = 9e-13  # beyond the 1e-10 budget of the zero rule: -0.0 and 5e-324 stay
        docs = [
            format_mass_document(m),
            format_value_document(bel_from_mass(m)),
            format_value_document(ValueFunction(frame, Kind.BELIEF, bel)),
        ]
        assert [hashlib.sha256(d.encode()).hexdigest() for d in docs] == [
            "63a78b45b6ed464778c21d31a0033b2d451e6f34df828841f597a726edca2ed5",
            "dafc788487c079346f1db8b07d50b0b32c126a5ca5dcb7def7c5efb230abf40b",
            "9be15821a9f12657ecddc19775046132766035fae787b04c364d0648eebb07d8",
        ]
        assert '"a|b": -0.0,\n    "c": 1000000000000.0,' in docs[2]
        assert '"b|c": 1e+16,\n    "a|b|c": 1e-05,\n    "d": 5e-324,' in docs[2]



# one label style per fuzzed frame: plain, a "}" that ends a piece early, an escaped quote, an
# escaped backslash before a colon, and a label that json escapes unless told not to
LABEL_STYLES = ("e", "}", '"', "\\:", "\u00e9")
EDIT_CHARACTERS = '{}[]",:|\\ 0123456789.e-a\u00e9'


def fuzzed_document(rng: np.random.Generator) -> str:
    """Writer output at n = 1..14, 30 % of it re-dumped by ``json``, with 0-2 one-character edits."""
    n = int(rng.integers(1, 15))
    style = LABEL_STYLES[rng.integers(len(LABEL_STYLES))]
    frame = Frame(tuple(f"{style}{i}" for i in range(n)))
    values = rng.random(frame.size) * (rng.random(frame.size) < rng.random())
    values[rng.integers(frame.size)] += 1.0
    m = MassFunction(frame, values / values.sum())
    convert = (None, bel_from_mass, pl_from_mass, q_from_mass, b_from_mass)[rng.integers(5)]
    text = format_mass_document(m) if convert is None else format_value_document(convert(m))
    if rng.random() < 0.3:
        layout = ({"indent": None}, {"indent": 1}, {"indent": 2, "ensure_ascii": False})[rng.integers(3)]
        text = json.dumps(json.loads(text), **layout)
    for _ in range(rng.integers(3)):
        at = int(rng.integers(len(text)))
        char = EDIT_CHARACTERS[rng.integers(len(EDIT_CHARACTERS))]
        text = text[:at] + (char, "", char + text[at])[rng.integers(3)] + text[at + 1 :]
    return text


def test_routes_agree_on_fuzzed_documents():
    # the route parse_document takes never changes what it reads or the error it raises
    rng = np.random.default_rng(20261021)
    texts = [fuzzed_document(rng) for _ in range(250)]
    in_pieces = 0
    for text in texts:
        with mock.patch.object(documents, "_load", wraps=documents._load) as load:
            read = outcome(text)
        in_pieces += not load.called
        assert read == outcome(text, whole=True), text[:200]
    # so the piecewise route is not left out: about a quarter of the texts take it
    assert in_pieces >= len(texts) // 5

def dense_mass_doc(labels, seed: int = 13) -> dict:
    """A mass document listing a mass on every subset but the full frame, at full precision."""
    rng = np.random.default_rng(seed)
    frame = Frame(tuple(labels))
    values = rng.random(frame.size - 1) + 0.5
    keys = [subset_key(frame, s) for s in range(frame.size - 1)]
    return {"frame": list(labels), "masses": dict(zip(keys, (values / values.sum()).tolist()))}


def with_number(doc: dict, index: int, number: str) -> str:
    """``json.dumps(doc)`` with the number text of the ``index``-th mass replaced by ``number``."""
    masses = dict(doc["masses"])
    key = list(masses)[index]
    masses[key] = "@"
    return json.dumps({**doc, "masses": masses}).replace('"@"', number)


LABELS_13 = [f"s{i:02d}" for i in range(13)]
# the key of subset 4096, the next chunk's first key, is "s12"; so is the tail of the key "a\"s12"
CUT_IN_A_STRING = ['a", "s12', *LABELS_13[1:]]
LAST_KEY = json.dumps("|".join(LABELS_13[1:]))


def proof_document(name: str) -> str:
    doc = dense_mass_doc(LABELS_13)
    number = name.split("-in-")[0]
    if name.startswith("label-with-"):
        sep = {"label-with-a-comma": ",", "label-with-a-comma-and-quote": ', "'}[name]
        return json.dumps(dense_mass_doc([f"x{sep}{i}" for i in range(13)]), indent=2)
    if name == "cut-inside-a-string":
        return json.dumps(dense_mass_doc(CUT_IN_A_STRING))
    if name == "map-before-frame":
        return json.dumps({"masses": doc["masses"], "frame": doc["frame"]})
    if name == "null-map-beside-a-string-holding-a-map":
        return json.dumps({"frame": ['{"": 1}'], "masses": None})
    if name == "repeated-key-in-a-nested-value":
        return json.dumps(doc)[:-1] + ', "kind": {"x": 1, "x": 2}}'
    if name == "repeated-key-in-the-last-piece":
        # the earlier of the two keys keeps its place, so only the colon count sees it
        return json.dumps(doc).replace(f"{LAST_KEY}: ", f"{LAST_KEY}: 0.5, {LAST_KEY}: ")
    if name.endswith("-in-the-first-piece"):
        return with_number(doc, 3, number)
    if name.endswith("-in-the-last-piece"):
        return with_number(doc, 8190, number)
    if name == "text-after-the-closing-brace":
        return json.dumps(doc) + " {}"
    if name == "map-then-another-key":
        return json.dumps(doc)[:-1] + ', "kind": "bel"}'
    return {
        "one-member-map": '{"frame": ["a", "b"], "masses": {"": 1}}',
        "empty-map": '{"frame": ["a", "b"], "masses": {}}',
    }[name]


NOT_FINITE_FIRST = "value for 's00|s01' is not finite: "
NOT_FINITE_LAST = f"value for {LAST_KEY[1:-1]!r} is not finite: "
# name: whether the map is read in pieces, and the error line, or None where the document reads
PROOF_CASES = {
    "label-with-a-comma": (True, None),
    "label-with-a-comma-and-quote": (True, None),
    "cut-inside-a-string": (False, None),
    "map-before-frame": (False, None),
    "null-map-beside-a-string-holding-a-map": (False, '"masses" must be a key-value map'),
    "repeated-key-in-a-nested-value": (False, "a JSON object in the document lists the same key twice"),
    "repeated-key-in-the-last-piece": (False, "a JSON object in the document lists the same key twice"),
    **{
        f"{number}-in-the-{where}-piece": (False, message + text)
        for where, message in (("first", NOT_FINITE_FIRST), ("last", NOT_FINITE_LAST))
        for number, text in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"))
    },
    "true-in-the-first-piece": (False, NOT_FINITE_FIRST.replace("finite", "a number") + "True"),
    "null-in-the-last-piece": (False, NOT_FINITE_LAST.replace("finite", "a number") + "None"),
    "text-after-the-closing-brace": (False, "not valid JSON: Extra data: line 1 column 429822 (char 429821)"),
    "one-member-map": (True, None),
    "empty-map": (False, "masses sum to 0.0, expected 1"),
    "map-then-another-key": (
        True, "unexpected key 'kind' in a mass document; it allows only frame, masses"
    ),
}


class TestReaderProof:
    """The piecewise reader gives the whole-text reading's values, exit code and error line.

    Every error line here is the one the whole-text reader gave before the
    piecewise route existed.
    """

    @pytest.mark.parametrize("name", PROOF_CASES)
    def test_outcome_is_the_whole_text_reading(self, tmp_path, capsys, name):
        pieces, error = PROOF_CASES[name]
        text = proof_document(name)
        path = tmp_path / "doc.json"
        path.write_text(text)
        code = main(["convert", str(path), "--to", "mass", "-o", str(tmp_path / "out.json")])
        if error is None:
            assert (code, capsys.readouterr().err) == (0, "")
            assert parse_document(text).values.tobytes() == reference_values(text).tobytes()
        else:
            assert (code, capsys.readouterr().err) == (2, f"error: {error}\n")
        assert read_in_pieces(text) == pieces

    # "a\"s12" ends in the mark of the next chunk's first key, so the first piece is one
    # member and the next would run across the 2**12 key chunk edge: read whole instead
    @pytest.mark.parametrize(
        "n, first",
        [*((n, "s00") for n in range(1, 17)), *((n, 'a"s12') for n in range(13, 17))],
        ids=[*(f"n={n}" for n in range(1, 17)), *(f"n={n}-across-chunks" for n in range(13, 17))],
    )
    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent-2"])
    def test_dense_document_reads_as_the_whole_text(self, n, first, indent):
        # the compact layout is the default json.dumps, which the benchmark writes
        labels = [first, *(f"s{i:02d}" for i in range(1, n))]
        mass_doc = dense_mass_doc(labels, seed=n)
        m = MassFunction(Frame(tuple(labels)), reference_values(json.dumps(mass_doc)))
        for doc in (mass_doc, json.loads(format_value_document(pl_from_mass(m)))):
            text = json.dumps(doc, indent=indent)
            pieces = read_in_pieces(text)
            assert pieces == (first == "s00")
            assert parse_document(text).values.tobytes() == reference_values(text).tobytes()

    @pytest.mark.parametrize("layout", ["sorted-keys", "gap-at-a-chunk-edge", "raw-non-ascii"])
    def test_no_piece_parsed_holds_more_than_a_chunk(self, monkeypatch, layout):
        # each misses the mark of a chunk's first key, so a piece would run far past its chunk
        doc = dense_mass_doc([*LABELS_13, "s13"])
        if layout == "sorted-keys":
            text = json.dumps(doc, sort_keys=True)
        elif layout == "gap-at-a-chunk-edge":
            doc["masses"][""] += doc["masses"].pop("s12")
            text = json.dumps(doc)
        else:
            doc = dense_mass_doc([f"é{i}" for i in range(14)])
            text = json.dumps(doc, ensure_ascii=False)
        sizes = []
        loads = json.loads

        def spy(s, *args, **kwargs):
            parsed = loads(s, *args, **kwargs)
            if s is not text:
                sizes.append(len(parsed))
            return parsed

        monkeypatch.setattr(json, "loads", spy)
        assert parse_document(text).values.tobytes() == reference_values(text).tobytes()
        assert max(sizes, default=0) <= 1 << 12


def session_documents(tmp_path, seed: int) -> list[bytes]:
    """The five documents of one benchmark-shaped session of CLI commands on 16 elements.

    A dense mass on every subset but the full frame and sparse evidence
    (32 subsets and 0.25 on the full frame), both written by plain
    ``json.dumps`` at full precision, then ``combine``, ``condition``,
    ``convert --to bel``, ``retract`` and ``enlarge``, each reading an
    earlier output.
    """
    rng = np.random.default_rng(seed)
    labels = [f"s{i:02d}" for i in range(16)]
    frame = Frame(tuple(labels))
    dense = rng.uniform(0.5, 1.5, frame.size - 1)
    evidence = np.zeros(frame.size)
    evidence[rng.choice(frame.size - 1, 32, replace=False)] = 0.75 * rng.dirichlet(np.ones(32))
    evidence[-1] = 0.25
    for name, values in (("a", np.append(dense / dense.sum(), 0.0)), ("b", evidence)):
        masses = {subset_key(frame, s): x for s, x in enumerate(values.tolist()) if x}
        (tmp_path / f"{name}.json").write_text(json.dumps({"frame": labels, "masses": masses}))
    on = ["|".join(sorted(rng.choice(labels, 4, replace=False).tolist())) for _ in range(2)]
    p = lambda name: str(tmp_path / f"{name}.json")  # noqa: E731
    for argv in (
        ["combine", p("a"), p("b"), "-o", p("ab")],
        ["condition", p("ab"), "--on", on[0], "-o", p("k")],
        ["convert", p("k"), "--to", "bel", "-o", p("kbel")],
        ["retract", p("ab"), "--evidence", p("b"), "-o", p("r")],
        ["enlarge", p("r"), "--on", on[1], "-o", p("e")],
    ):
        assert main(argv) == 0
    return [(tmp_path / f"{name}.json").read_bytes() for name in ("ab", "k", "kbel", "r", "e")]


@pytest.mark.parametrize(
    "seed, digests",
    [
        (1, ["5c8b782f0328e0a6", "d6614724c2bcd84d", "a7f008b332826838", "49d47e8bd3c1b35e",
             "86430375bb7db00d"]),
        (2, ["3ea33120b3c69714", "5c956dd57510eeba", "73ae6598c2d23b38", "e5cc2cc280b17a4b",
             "8e5354abfa8ed748"]),
    ],
)
def test_session_documents_are_pinned(tmp_path, seed, digests):
    # SHA-256 prefixes of the written bytes, the same before and after the reader and
    # writer went a piece at a time; "ab", "r" and "e" moved when the transforms of 2**12
    # entries and up became products (seed 1: 2 298, 4 371 and 204 value texts, by at most
    # 3.7e-15; "r" divides commonalities, so it moves most), "k" and "kbel" did not
    docs = session_documents(tmp_path, seed)
    assert [hashlib.sha256(doc).hexdigest()[:16] for doc in docs] == digests


ABC_VACUOUS = {"frame": ["a", "b", "c"], "masses": {"a|b|c": 1.0}}


@pytest.mark.parametrize(
    "argv",
    [
        ["combine", "@m", "@m"],
        ["condition", "@m", "--on", "a|b"],
        ["retract", "@m", "--evidence", "@e"],
        ["enlarge", "@m", "--on", "a|b"],
        ["convert", "@m", "--to", "mass"],
        ["convert", "@m", "--to", "bel"],
    ],
    ids=["combine", "condition", "retract", "enlarge", "convert-mass", "convert-bel"],
)
def test_failed_writer_check_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys, argv):
    # the output is opened only after every check of the writer has passed
    written = documents._written

    def planted(values, rebuild, dense):
        def failing(out):
            raise InputError("planted writer fault")

        return written(values, failing, dense)

    monkeypatch.setattr(documents, "_written", planted)
    (tmp_path / "m").write_text(json.dumps(PARTIAL))
    (tmp_path / "e").write_text(json.dumps(ABC_VACUOUS))
    out = tmp_path / "out.json"
    out.write_bytes(b"an earlier output\n")
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    assert main([*argv, "-o", str(out)]) == 2
    assert out.read_bytes() == b"an earlier output\n"
    assert capsys.readouterr().err == "error: planted writer fault\n"


class TestDocumentMemory:
    """A dense n=16 document is read and written without a Python object per key or value.

    Peaks traced by ``tracemalloc`` on Python 3.11: reading took 15.1 MB
    when the repeated-key hook built a list of pairs per object, 10.2 MB
    with ``json``'s own dicts, and 2.5 MB a piece at a time; writing the
    dense document took 7.8 MB with a string per value and 4.0 MB with one
    per chunk; ``combine`` 19.6, 13.8 and 7.5 MB, and ``convert --to bel``
    14.2 and 5.0 MB, before and after the writer went a chunk at a time.
    Writing the dense document then took 4.01 MB and ``convert --to bel``
    4.85 MB with an index array over the whole document, and 3.57 MB and
    4.38 MB (4.56 MB as a process's first command) with one array of a
    chunk's offsets shared by every chunk that lists all its subsets.
    """

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        # the shapes of the benchmark's session: a dense document and sparse evidence
        frame = Frame(tuple(f"s{i:02d}" for i in range(16)))
        rng = np.random.default_rng(16)
        dense = rng.random(frame.size)
        dense[-1] = 0.0
        evidence = np.zeros(frame.size)
        evidence[rng.choice(frame.size - 1, 32, replace=False)] = rng.random(32)
        evidence[-1] = evidence.sum() / 3
        tmp = tmp_path_factory.mktemp("dense")
        paths = {}
        for name, values in [("dense", dense), ("evidence", evidence)]:
            paths[name] = tmp / f"{name}.json"
            paths[name].write_text(format_mass_document(MassFunction(frame, values / values.sum())))
        paths["out"] = tmp / "out.json"
        return paths

    @staticmethod
    def traced_peak_mb(run) -> float:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_parse(self, paths):
        # the 0.5 MB vector and one piece of 4 096 members at a time
        text = paths["dense"].read_text()
        assert self.traced_peak_mb(lambda: parse_document(text)) < 4.0

    def test_write(self, paths):
        # the written vector, one string of values per chunk and one chunk's pieces
        m = parse_document(paths["dense"].read_text())

        def write():
            for _ in mass_document_chunks(m):
                pass

        assert self.traced_peak_mb(write) < 3.8

    def test_read_collects_no_garbage(self, paths):
        # a read makes a few containers per piece, not one per key
        text = paths["dense"].read_text()
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            parse_document(text)
        finally:
            gc.callbacks.remove(count)
        assert collections == []

    def test_combine(self, paths):
        argv = ["combine", str(paths["dense"]), str(paths["evidence"]), "-o", str(paths["out"])]
        assert self.traced_peak_mb(lambda: main(argv)) < 10.0

    def test_convert_to_bel(self, paths):
        # the vectors and the text of a dense 16-element output, but no index of its subsets
        argv = ["convert", str(paths["evidence"]), "--to", "bel", "-o", str(paths["out"])]
        assert self.traced_peak_mb(lambda: main(argv)) < 4.7


class TestConvert:
    def test_partial_knowledge_to_belief(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        assert main(["convert", path, "--to", "bel"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "bel"
        assert doc["values"]["a"] == 0.3
        assert doc["values"]["b|c"] == 0.5

    def test_vacuous_commonality_is_flat(self, tmp_path, capsys):
        path = write(tmp_path, "vac.json", {"frame": ["a", "b"], "masses": {"a|b": 1.0}})
        main(["convert", path, "--to", "q"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["values"].values()) == {1.0}

    def test_round_trip_through_commonality_is_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        q_path = str(tmp_path / "q.json")
        assert main(["convert", path, "--to", "q", "-o", q_path]) == 0
        main(["convert", q_path, "--to", "mass"])
        back = capsys.readouterr().out
        main(["convert", path, "--to", "mass"])
        canonical = capsys.readouterr().out
        assert back == canonical

    def test_plausibility_rounding_that_breaks_the_inversion_is_not_written(self, tmp_path):
        # every pl value sits 4.5e-13 from its 12-digit decimal, on the side that
        # the inversion adds up: rounded, the full frame's mass would be -2.9e-9
        n = 14
        size = 1 << n
        comp = np.arange(size) ^ (size - 1)
        start = np.full(size, 1.0 / (size - 2))
        start[0], start[-1] = 0.0, -5e-9
        pl0 = 1.0 - zeta_subsets(start / start.sum())[comp]
        signs = np.array([(-1) ** s.bit_count() for s in range(size)])
        pl = np.array([float(f"{x:.12g}") for x in pl0]) - signs * 4.5e-13
        pl[0], pl[-1] = 0.0, 1.0
        m = MassFunction(default_frame(n), mobius_subsets(1.0 - pl[comp]))
        assert 4e-9 < m.values[-1] < 5e-9 and m.values[1:-1].min() > 6e-5
        keys = [subset_key(m.frame, s) for s in range(size)]
        path = write(tmp_path, "m.json", {"frame": list(m.frame.labels),
                                          "masses": dict(zip(keys[1:], m.values[1:].tolist()))})
        pl_path, back_path = str(tmp_path / "pl.json"), str(tmp_path / "back.json")
        assert main(["convert", path, "--to", "pl", "-o", pl_path]) == 0
        assert main(["convert", pl_path, "--to", "mass", "-o", back_path]) == 0
        back = parse_document((tmp_path / "back.json").read_text())
        assert np.abs(back.values - m.values).max() <= 1e-12

    def test_unreadable_file_is_input_error(self, capsys):
        assert main(["convert", "/no/such/file.json", "--to", "bel"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_mass_file_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"frame": ["a"], "masses": {"a": 0.4}})
        assert main(["convert", path, "--to", "bel"]) == 2

    @pytest.mark.parametrize("extra", [{"kind": "bel"}, {"bogus": [1]}])
    def test_ambiguous_or_unknown_key_is_input_error(self, tmp_path, extra, capsys):
        path = write(tmp_path, "amb.json", {**PARTIAL, **extra})
        assert main(["convert", path, "--to", "bel"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unexpected key '{next(iter(extra))}'" in captured.err

    def test_subset_listed_twice_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "dup.json",
                     {"frame": ["a", "b", "c"], "masses": {"a|b": 0.3, "b|a": 0.3, "c": 0.7}})
        assert main(["convert", path, "--to", "bel"]) == 2
        assert "'b|a'" in capsys.readouterr().err


class TestCombine:
    def test_conjunctive_pair(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", PAIR0)
        p1 = write(tmp_path, "m1.json", PAIR1)
        assert main(["combine", p0, p1, "--rule", "conjunctive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["masses"] == {"": 0.2, "a": 0.3, "b": 0.2, "a|b": 0.3}

    def test_vacuous_file_is_neutral(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", PAIR0)
        vac = write(tmp_path, "vac.json", {"frame": ["a", "b"], "masses": {"a|b": 1.0}})
        main(["combine", p0, vac])
        combined = capsys.readouterr().out
        main(["convert", p0, "--to", "mass"])
        assert combined == capsys.readouterr().out

    def test_disjunctive_pair(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", PAIR0)
        p1 = write(tmp_path, "m1.json", PAIR1)
        main(["combine", p0, p1, "--rule", "disjunctive"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["masses"] == {"a|b": 1.0}

    def test_total_conflict_is_precondition_error(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", {"frame": ["a", "b"], "masses": {"a": 1.0}})
        p1 = write(tmp_path, "m1.json", {"frame": ["a", "b"], "masses": {"b": 1.0}})
        assert main(["combine", p0, p1, "--rule", "normalized"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_frame_mismatch_is_input_error(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", PAIR0)
        p1 = write(tmp_path, "m1.json", PARTIAL)
        assert main(["combine", p0, p1]) == 2


class TestConditionRetractEnlarge:
    def test_condition_moves_incompatible_mass_to_conflict(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        assert main(["condition", path, "--on", "b|c"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["masses"][""] == 0.3
        assert doc["masses"]["b|c"] == 0.7

    def test_retract_recovers_combined_file(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", PAIR0)
        p1 = write(tmp_path, "m1.json", PAIR1)
        combined = str(tmp_path / "combined.json")
        assert main(["combine", p0, p1, "-o", combined]) == 0
        main(["retract", combined, "--evidence", p1])
        recovered = capsys.readouterr().out
        main(["convert", p0, "--to", "mass"])
        assert recovered == capsys.readouterr().out

    def test_retract_non_invertible_is_precondition_error(self, tmp_path, capsys):
        p0 = write(tmp_path, "m0.json", PAIR0)
        singular = write(tmp_path, "s.json", {"frame": ["a", "b"], "masses": {"a": 0.5, "b": 0.5}})
        assert main(["retract", p0, "--evidence", singular]) == 3

    def test_enlarge_on_empty_set_is_identity(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        main(["enlarge", path, "--on", ""])
        enlarged = capsys.readouterr().out
        main(["convert", path, "--to", "mass"])
        assert enlarged == capsys.readouterr().out

    def test_enlarge_merges_focal_sets(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        main(["enlarge", path, "--on", "b"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["masses"] == {"a|b": 0.3, "b|c": 0.5, "a|b|c": 0.2}


class TestMatrix:
    def test_conditioning_on_everything_is_identity(self, capsys):
        assert main(["matrix", "--kind", "specialization", "--conditioning", "a|b|c"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        matrix = np.array([[float(x) for x in row.split()] for row in rows])
        assert np.array_equal(matrix, np.eye(8))

    def test_conditioning_with_explicit_frame(self, capsys):
        assert main(["matrix", "--kind", "specialization", "--conditioning", "b",
                     "--frame", "a,b"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        matrix = np.array([[float(x) for x in row.split()] for row in rows])
        expected = np.zeros((4, 4))
        for a in range(4):
            expected[a, a & 0b10] = 1.0
        assert np.array_equal(matrix, expected)

    def test_conditioning_takes_the_frame_of_an_input_file(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        assert main(["matrix", path, "--kind", "specialization", "--conditioning", "a"]) == 0
        assert capsys.readouterr().out == format_matrix(
            F3, conditioning_matrix(F3, 0b001).values, "conditioning-on-a specialization"
        )

    def test_dempsterian_export(self, tmp_path, capsys):
        path = write(tmp_path, "m1.json", PAIR1)
        assert main(["matrix", path, "--kind", "dempsterian"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("# dempsterian matrix on frame a|b")
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        matrix = np.array([[float(x) for x in row.split()] for row in rows])
        np.testing.assert_allclose(
            matrix, [[1, 0, 0, 0], [0.4, 0.6, 0, 0], [0, 0, 1, 0], [0, 0, 0.4, 0.6]], atol=1e-12
        )

    def test_matrix_text_matches_per_entry_format(self):
        # the reference formats each entry on its own
        m = random_mass(default_frame(5), np.random.default_rng(7))
        values = dempsterian_matrix(m).values.copy()
        values[1, :8] = [-0.0, 3.0, 1e12, 5e-324, 1e16, -2.5e-7, 123456789012345.0, 1 / 3]
        lines = [" ".join(f"{x:.12g}" for x in row) for row in values]
        text = format_matrix(default_frame(5), values, "dempsterian")
        assert text.splitlines()[2:] == lines
        assert text.endswith(lines[-1] + "\n")

    def test_disjunctive_export(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", PARTIAL)
        assert main(["matrix", path, "--kind", "disjunctive"]) == 0
        m = parse_document(json.dumps(PARTIAL))
        assert capsys.readouterr().out == format_matrix(
            m.frame, disjunctive_matrix(m).values, "disjunctive"
        )

    def test_singular_despecialization_is_precondition_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"frame": ["a", "b"], "masses": {"a": 0.5, "b": 0.5}})
        assert main(["matrix", path, "--kind", "despecialization"]) == 3
        assert "singular" in capsys.readouterr().err

    def test_specialization_kind_needs_conditioning_key(self, capsys):
        assert main(["matrix", "--kind", "specialization"]) == 2

    @pytest.mark.parametrize("conditioning", ["z", "x|y"])
    def test_separator_in_frame_label_is_input_error(self, conditioning, capsys):
        argv = ["matrix", "--kind", "specialization", "--frame", "x|y,z",
                "--conditioning", conditioning]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "separator '|'" in captured.err


class TestCheckCommand:
    def test_small_run_passes(self, capsys):
        assert main(["check", "--n", "1,2", "--samples", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out and "0 failed" in out

    def test_reproducible_per_seed(self, capsys):
        main(["check", "--n", "2", "--samples", "15", "--seed", "9"])
        first = capsys.readouterr().out
        main(["check", "--n", "2", "--samples", "15", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_fault_injection_fails_with_witness(self, monkeypatch, capsys):
        # the eigenstructure check's first matrix gets 1e-3 off the support
        real = verify._transfer_rows

        def fault(values, op):
            out = real(values, op)
            out[0, -1, 0] += 1e-3
            return out

        monkeypatch.setattr(verify, "_transfer_rows", fault)
        argv = ["check", "--n", "2", "--samples", "10", "--theorems", "eigenstructure"]
        assert main(argv) == 1
        witness = (
            '{"check":"eigenstructure","diagonal_deviation":0.0,"eigenrow_deviation":0.001,'
            '"m":[0.0,1.0,0.0,0.0],"n":2,"reconstruction_deviation":0.001}'
        )
        lines = capsys.readouterr().out.splitlines()
        assert "[FAIL]" in lines[1]
        assert [line for line in lines if "witness:" in line] == [f"    witness: {witness}"]

    def test_samples_header_names_the_exhaustive_check(self, capsys):
        # conditioning-idempotent enumerates its 20 instances at n=2 whatever --samples says
        assert main(["check", "--samples", "3", "--theorems", "conditioning-idempotent", "--n", "2"]) == 0
        out = capsys.readouterr().out
        header = "belief-dynamics checks: sizes=[2] seed=0 samples=3"
        assert out.splitlines()[0] == f"{header} (ignored by exhaustive conditioning-idempotent)"
        assert "instances=   20" in out
        # without the exhaustive check, or without --samples, the header has no note
        assert main(["check", "--samples", "3", "--theorems", "eigenstructure", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == header
        assert main(["check", "--theorems", "conditioning-idempotent", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "belief-dynamics checks: sizes=[2] seed=0 samples=default"
        )

    def test_check_selection_flag(self, capsys):
        assert main(["check", "--n", "2", "--samples", "10",
                     "--theorems", "conditioning-idempotent,eigenstructure"]) == 0
        out = capsys.readouterr().out
        assert "conditioning-idempotent" in out and "dynamics-invariants" not in out

    @pytest.mark.parametrize(
        "argv",
        [["--n", "7,8"], ["--n", "5", "--theorems", "conditioning-least-committed"],
         ["--theorems", ""]],
    )
    def test_selection_that_runs_nothing_is_input_error(self, argv, capsys):
        assert main(["check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_unknown_theorem_is_input_error(self, capsys):
        assert main(["check", "--theorems", "nope"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_input_error(self, samples, capsys):
        assert main(["check", "--n", "1", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "samples must be at least 1" in captured.err


def matrix_frame_doc(n: int) -> dict:
    labels = [f"e{i}" for i in range(n)]
    return {"frame": labels, "masses": {"|".join(labels): 1.0}}


# (files written to the test directory, command line with "@name" for a file's path, exit code)
ERROR_CASES = {
    "unreadable-file": ({}, ["convert", "@missing.json", "--to", "bel"], 2),
    "not-json": ({"m": "not json"}, ["convert", "@m", "--to", "bel"], 2),
    "not-utf-8": ({"m": b'\xff{"frame": ["a"]}'}, ["convert", "@m", "--to", "bel"], 2),
    "nested-too-deep": ({"m": "[" * 100_000 + "]" * 100_000}, ["convert", "@m", "--to", "bel"], 2),
    "integer-beyond-float": ({"m": '{"frame":["a"],"masses":{"a":1%s}}' % ("0" * 400)},
                             ["convert", "@m", "--to", "bel"], 2),
    "integer-of-4301-digits": ({"m": '{"frame":["a"],"masses":{"a":1%s}}' % ("0" * 4300)},
                               ["condition", "@m", "--on", "a"], 2),
    "mass-sum": ({"m": {"frame": ["a"], "masses": {"a": 0.4}}}, ["convert", "@m", "--to", "q"], 2),
    "non-finite": ({"m": '{"frame":["a"],"masses":{"a":NaN}}'}, ["convert", "@m", "--to", "q"], 2),
    "unknown-label": ({"m": {"frame": ["a"], "masses": {"b": 1.0}}}, ["convert", "@m", "--to", "b"], 2),
    "subset-twice": ({"m": '{"frame":["a","b"],"masses":{"a|b":0.5,"b|a":0.5}}'},
                     ["convert", "@m", "--to", "pl"], 2),
    "unknown-top-level-key": ({"m": {**PARTIAL, "bogus": 1}}, ["convert", "@m", "--to", "bel"], 2),
    "unknown-kind": ({"m": {"frame": ["a"], "kind": "x", "values": {"": 0.0, "a": 1.0}}},
                     ["convert", "@m", "--to", "mass"], 2),
    "frame-mismatch": ({"m0": PAIR0, "m1": PARTIAL}, ["combine", "@m0", "@m1"], 2),
    "retract-frame-mismatch": ({"m": PAIR0, "e": PARTIAL}, ["retract", "@m", "--evidence", "@e"], 2),
    "condition-key": ({"m": PAIR0}, ["condition", "@m", "--on", "z"], 2),
    "enlarge-key": ({"m": PAIR0}, ["enlarge", "@m", "--on", "a|a"], 2),
    "matrix-frame-cap": ({"m": matrix_frame_doc(11)}, ["matrix", "@m", "--kind", "dempsterian"], 2),
    "matrix-separator": ({}, ["matrix", "--kind", "specialization", "--frame", "x|y,z",
                              "--conditioning", "z"], 2),
    "matrix-repeated-label": ({}, ["matrix", "--kind", "specialization", "--frame", "a,a",
                                   "--conditioning", "a"], 2),
    "negative-seed": ({}, ["check", "--n", "1", "--seed", "-1"], 2),
    "sizes-not-integers": ({}, ["check", "--n", "1,x"], 2),
    "size-beyond-cap": ({}, ["check", "--n", "11"], 2),
    "samples-below-one": ({}, ["check", "--samples", "0"], 2),
    "unknown-check": ({}, ["check", "--theorems", "nope"], 2),
    "total-conflict": ({"m0": {"frame": ["a", "b"], "masses": {"a": 1.0}},
                        "m1": {"frame": ["a", "b"], "masses": {"b": 1.0}}},
                       ["combine", "@m0", "@m1", "--rule", "normalized"], 3),
    "non-invertible-evidence": ({"m": PAIR0, "e": {"frame": ["a", "b"], "masses": {"a": 1.0}}},
                                ["retract", "@m", "--evidence", "@e"], 3),
    "evidence-not-contained": ({"m": {"frame": ["a", "b"], "masses": {"a|b": 1.0}}, "e": PAIR0},
                               ["retract", "@m", "--evidence", "@e"], 3),
    "singular-despecialization": ({"m": {"frame": ["a", "b"], "masses": {"a": 0.5, "b": 0.5}}},
                                  ["matrix", "@m", "--kind", "despecialization"], 3),
}


def run_case(tmp_path, files, argv) -> int:
    """Write ``files`` to ``tmp_path`` and run the CLI on ``argv``."""
    for name, doc in files.items():
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return main([str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv])


@pytest.mark.parametrize("files, argv, code", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_error_exits_with_one_error_line(tmp_path, capsys, files, argv, code):
    assert run_case(tmp_path, files, argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


Q_DOC = {"frame": ["a"], "kind": "q", "values": {"": 1.0, "a": 0.5}}

# (files, command line, exit code, the error line with "@" for the test directory)
ERROR_MESSAGES = {
    "value-document-combined": ({"m": PAIR0, "q": Q_DOC}, ["combine", "@m", "@q"], 2,
                                "expected a mass document, got a value-function document"),
    "frame-only": ({"m": {"frame": ["a"]}}, ["convert", "@m", "--to", "bel"], 2,
                   'document needs a "masses" or a "kind" + "values" entry'),
    "not-an-object": ({"m": "5"}, ["convert", "@m", "--to", "bel"], 2,
                      "document must be a JSON object"),
    "q-anchor": ({"m": {**Q_DOC, "values": {"": 0.5, "a": 0.5}}}, ["convert", "@m", "--to", "mass"], 2,
                 "q must take value 1.0 on the empty set, got 0.5"),
    "bel-anchor": ({"m": {**Q_DOC, "kind": "bel", "values": {"": 0.5, "a": 1.0}}},
                   ["convert", "@m", "--to", "mass"], 2,
                   "bel must take value 0.0 on the empty set, got 0.5"),
    "matrix-needs-input": ({}, ["matrix", "--kind", "dempsterian"], 2,
                           "--kind dempsterian needs an input mass file"),
    "matrix-no-frame": ({}, ["matrix", "--kind", "specialization", "--conditioning", ""], 2,
                        "no frame: give an input file, --frame, or a non-empty --conditioning key"),
    "output-directory-missing": ({"m": PAIR0}, ["convert", "@m", "--to", "bel", "-o", "@none/x.json"],
                                 2, "[Errno 2] No such file or directory: '@none/x.json'"),
}


@pytest.mark.parametrize(
    "files, argv, code, message", ERROR_MESSAGES.values(), ids=ERROR_MESSAGES.keys()
)
def test_error_line_is_pinned(tmp_path, capsys, files, argv, code, message):
    assert run_case(tmp_path, files, argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('@', f'{tmp_path}/')}\n"


def test_utf_8_documents_under_an_ascii_locale(tmp_path):
    """Documents are UTF-8 (RFC 8259) whatever the locale says."""
    labels = ["\u00e9", "b"]
    (tmp_path / "m.json").write_bytes(json.dumps(
        {"frame": labels, "masses": {"\u00e9": 0.5, "\u00e9|b": 0.5}}, ensure_ascii=False
    ).encode("utf-8"))
    env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv in (["convert", "m.json", "--to", "bel", "-o", "bel.json"],
                 ["matrix", "m.json", "--kind", "dempsterian", "-o", "matrix.txt"]):
        proc = subprocess.run([sys.executable, "-m", "beliefdyn.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert parse_document((tmp_path / "bel.json").read_text(encoding="utf-8")).frame.labels == (
        "\u00e9", "b"
    )
    header = (tmp_path / "matrix.txt").read_text(encoding="utf-8").splitlines()[0]
    assert header == "# dempsterian matrix on frame \\u00e9|b"


def test_matrix_text_on_stdout_under_an_ascii_locale(tmp_path):
    """Matrix text escapes its labels as documents escape keys, so it is ASCII on any stdout."""
    (tmp_path / "m.json").write_text(json.dumps(
        {"frame": ["\u00e9", "b"], "masses": {"\u00e9": 0.5, "\u00e9|b": 0.5}}
    ))
    env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "beliefdyn.cli", "matrix", "m.json", "--kind", "dempsterian"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.isascii()
    assert proc.stdout.decode("ascii").splitlines()[0] == "# dempsterian matrix on frame \\u00e9|b"


def test_label_arguments_are_utf_8_under_an_ascii_locale(tmp_path):
    """--on, --conditioning and --frame are decoded from their bytes as UTF-8, as documents are."""
    (tmp_path / "m.json").write_text(json.dumps(
        {"frame": ["\u00e9", "b"], "masses": {"\u00e9": 0.5, "\u00e9|b": 0.5}}
    ))
    env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    e = "\u00e9".encode("utf-8")  # bytes, so the test's own locale need not encode them

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "beliefdyn.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, timeout=120)

    proc = run("condition", "m.json", "--on", e)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["masses"] == {"\u00e9": 1.0}
    proc = run("matrix", "--kind", "specialization", "--frame", e + b",b", "--conditioning", e)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[0] == b"# conditioning-on-\\u00e9 specialization matrix on frame \\u00e9|b"
    proc = run("enlarge", "m.json", "--on", b"\xff")
    assert proc.returncode == 2 and b"argument --on: not UTF-8: '\\udcff'" in proc.stderr


def test_matrix_header_escapes_kind_and_labels():
    frame = Frame(("a\nb", 'say "x"', "\u00e9"))
    text = format_matrix(frame, np.eye(8), "conditioning-on-\u00e9 specialization")
    assert text.isascii()
    assert text.splitlines()[0] == (
        '# conditioning-on-\\u00e9 specialization matrix on frame a\\nb|say \\"x\\"|\\u00e9'
    )
    assert len(text.splitlines()) == 2 + 8
    plain = default_frame(2)
    assert format_matrix(plain, np.eye(4), "dempsterian").splitlines()[0] == (
        f"# dempsterian matrix on frame {'|'.join(plain.labels)}"
    )
