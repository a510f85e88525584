import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefdyn import documents
from beliefdyn.cli import main
from beliefdyn.documents import (
    _dense_values,
    _unique_keys,
    _values_by_key,
    format_mass_document,
    format_matrix,
    format_value_document,
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
    bel_from_mass,
    mass_from,
    pl_from_mass,
    q_from_mass,
)
from beliefdyn.specialization import dempsterian_matrix, disjunctive_matrix
from beliefdyn.verify import random_mass
from oracles import reference_document

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


class TestDocuments:
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
            assert format_mass_document(m) == reference_document(frame.labels, values)
            for v in (bel_from_mass(m), q_from_mass(m)):
                expected = reference_document(frame.labels, v.values, v.kind.value)
                assert format_value_document(v) == expected

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
            # a ":" in a string and a repeated key both raise the colon count: neither hides the other
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
        # a literal ":" in a string raises the colon count, so the text is read again with the
        # repeated-key hook; written as an escape it is no colon of the text
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


def parse_route(frame_labels, mapping, field="masses"):
    """Whether the one-pass route takes ``mapping``, and what ``parse_document`` makes of it."""
    dense = _dense_values(Frame(tuple(frame_labels)), mapping) is not None
    doc = {"frame": list(frame_labels), field: mapping}
    if field == "values":
        doc["kind"] = "q"
    try:
        return dense, parse_document(json.dumps(doc)).values.tolist()
    except InputError as exc:
        return dense, str(exc)


class TestDocumentRoutes:
    """A canonical-order prefix of numbers is read in one pass; any other map key by key."""

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
            # canonical keys, but the type test or the float conversion sends them key by key
            ({"": 0.1, "a": True, "b": 0.3, "a|b": 0.6}, False, "value for 'a' is not a number: True"),
            ({"": 0.1, "a": 10**400, "b": 0.3}, False, "value for 'a' is too large for a float"),
            ({"": 0.1, "a": 0.2, "z": 0.3}, False, "label 'z' not in frame ('a', 'b', 'c')"),
            ({"": 0.1, "a": 0.2, "b": float("nan")}, True, "value for 'b' is not finite: nan"),
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
        # SHA-256 of the writers' output, byte for byte
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
            "215fde944b83f7acf2f1508ff42ec908e9207d01a6097df2d294da2971639f4c",
            "b52e18005108e0389e746dda4656ee50a075255d70d9be9923a3641185164d31",
        ]
        assert '"a|b": -0.0,\n    "c": 1000000000000.0,' in docs[2]
        assert '"b|c": 1e+16,\n    "a|b|c": 1e-05,\n    "d": 5e-324,' in docs[2]


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

    def planted(values, rebuild):
        def failing(out):
            raise InputError("planted writer fault")

        return written(values, failing)

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
    """A dense n=16 document is read and written without several whole copies of it.

    Peaks traced by ``tracemalloc`` on Python 3.11: reading took 15.1 MB
    when the repeated-key hook built a list of pairs per object, and 10.2 MB
    with ``json``'s own dicts; ``combine`` 19.6 and 13.8 MB, and ``convert
    --to bel`` 14.2 and 5.0 MB, before and after the writer went a chunk at
    a time.
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
        text = paths["dense"].read_text()
        assert self.traced_peak_mb(lambda: parse_document(text)) < 12.5

    def test_combine(self, paths):
        argv = ["combine", str(paths["dense"]), str(paths["evidence"]), "-o", str(paths["out"])]
        assert self.traced_peak_mb(lambda: main(argv)) < 17.0

    def test_convert_to_bel(self, paths):
        argv = ["convert", str(paths["evidence"]), "--to", "bel", "-o", str(paths["out"])]
        assert self.traced_peak_mb(lambda: main(argv)) < 10.0


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

    def test_fault_injection_fails_with_witness(self, capsys):
        assert main(["check", "--n", "2", "--samples", "10", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "witness:" in out
        witness = (
            '{"check":"eigenstructure","diagonal_deviation":0.0,"eigenrow_deviation":0.001,'
            '"m":[0.0,1.0,0.0,0.0],"n":2,"reconstruction_deviation":0.001}'
        )
        assert f"    witness: {witness}\n" in out

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
    assert header == "# dempsterian matrix on frame \u00e9|b"
