"""File formats: exact rational round-trips, load failures, the majorization table."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fairsignal.cli import SCHEME_KINDS, build_named_scheme, main
from fairsignal.fileio import (
    decimal_str,
    json_text,
    load_instance,
    load_scheme,
    payload_to_instance,
    save_scheme,
    scheme_text,
    write_majorization_table,
)
from fairsignal.market import MarketError, ValueDistribution, full_revelation, no_signal
from fairsignal.splitmatch import split_and_match

from conftest import random_scheme, structured_priors, write_instance

F = Fraction


class TestInstanceFiles:
    def test_round_trip(self, fig3_instance, tmp_path):
        path = str(tmp_path / "inst.json")
        write_instance(fig3_instance, path)
        assert load_instance(path) == fig3_instance

    def test_accepts_numbers_strings_and_decimals(self):
        payload = json.loads('{"values": [1, "3/2", 2.5], "masses": [0.2, "0.3", "1/2"]}',
                             parse_float=Fraction)
        dist = payload_to_instance(payload)
        assert dist.values == (F(1), F(3, 2), F(5, 2))
        assert dist.masses == (F(1, 5), F(3, 10), F(1, 2))

    def test_duplicate_values_merge(self):
        dist = payload_to_instance({"values": [1, 1, 2], "masses": ["1/4", "1/4", "1/2"]})
        assert dist.values == (F(1), F(2))
        assert dist.masses == (F(1, 2), F(1, 2))

    def test_rejects_missing_keys(self):
        with pytest.raises(MarketError):
            payload_to_instance({"values": [1]})

    def test_rejects_bad_mass_sum(self):
        with pytest.raises(MarketError):
            payload_to_instance({"values": [1, 2], "masses": ["1/2", "1/3"]})

    @pytest.mark.parametrize(
        "raw",
        [b"[" * 100_000 + b"]" * 100_000, b'{"values": [1], "masses": [', b"\xff\xfe"],
        ids=["deep", "truncated", "not-utf8"],
    )
    def test_malformed_content_raises_market_error(self, raw, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(MarketError):
            load_instance(str(path))

    def test_unopenable_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(str(tmp_path / "missing.json"))

    def test_duplicate_key_raises_market_error(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"values": [1, 2], "masses": ["1/2", "1/2"], "masses": ["1/4", "3/4"]}')
        with pytest.raises(MarketError, match="^duplicate key 'masses' in a JSON object$"):
            load_instance(str(path))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"values": [1, "x"], "masses": [1, 0]}, "cannot read 'x' as a rational"),
            ({"values": [1, 2], "masses": [True, 0]}, "bool is not a rational value"),
            ({"values": [None], "masses": [1]}, "cannot interpret NoneType as a rational"),
            ({"values": [1], "masses": ["1e-150000"]}, "rational longer than 100000 digits"),
            ({"values": [1, 2], "masses": [1]}, "values and masses must have equal length"),
        ],
    )
    def test_conversion_messages(self, payload, message):
        with pytest.raises(MarketError) as err:
            payload_to_instance(payload)
        assert str(err.value) == message


class TestSchemeFiles:
    def test_round_trip(self, running_example, tmp_path):
        scheme = split_and_match(running_example).to_signaling_scheme()
        path = str(tmp_path / "scheme.json")
        save_scheme(scheme, path)
        assert load_scheme(path, running_example) == scheme

    def test_text_shape(self, running_example):
        payload = json.loads(scheme_text(full_revelation(running_example)))
        assert payload == {
            "entries": [
                {"weight": "1/4", "support": {"0": "1"}},
                {"weight": "1/4", "support": {"1": "1"}},
                {"weight": "1/4", "support": {"2": "1"}},
                {"weight": "1/4", "support": {"3": "1"}},
            ]
        }

    @pytest.mark.parametrize(
        "raw, key",
        [
            ('{"entries": [{"weight": "1", "support": {"0": "1", "0": "1"}}]}', "'0'"),
            ('{"entries": [{"weight": "1", "weight": "1", "support": {"0": "1"}}]}', "'weight'"),
            ('{"entries": [], "entries": [{"weight": "1", "support": {"0": "1"}}]}', "'entries'"),
        ],
        ids=["support", "entry", "top-level"],
    )
    def test_duplicate_key_raises_market_error(self, raw, key, tmp_path):
        # one value class, so the last copy alone would load as a valid scheme
        path = tmp_path / "twice.json"
        path.write_text(raw)
        with pytest.raises(MarketError, match=f"^duplicate key {key} in a JSON object$"):
            load_scheme(str(path), ValueDistribution.from_pairs([3], [1]))

    @staticmethod
    def check_layout(text):
        """``text`` is json_text's layout of the JSON it holds, and a newline."""
        assert json_text(json.loads(text)) + "\n" == text

    def check_file(self, scheme, path):
        save_scheme(scheme, str(path))
        self.check_layout(path.read_text(encoding="utf-8"))

    def check_build(self, dist, kind, tmp):
        """build --format json's stdout and its --out file each hold
        json_text's layout, and stdout's scheme is the file's."""
        instance, out = str(tmp / "instance.json"), tmp / "scheme.json"
        write_instance(dist, instance)
        argv = ["build", "--in", instance, "--scheme", kind, "--format", "json", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        self.check_layout(stdout.getvalue())
        self.check_layout(text)
        assert json.loads(stdout.getvalue())["scheme"] == json.loads(text)

    def test_layout_round_trips_on_corpus(self, corpus, tmp_path):
        # every kind's file, and build --format json on every tenth instance
        rng = random.Random(24)
        for k, dist in enumerate(corpus):
            for kind in SCHEME_KINDS:
                if k % 10:
                    self.check_file(build_named_scheme(dist, kind), tmp_path / "scheme.json")
                else:
                    self.check_build(dist, kind, tmp_path)
            self.check_file(random_scheme(rng, dist), tmp_path / "scheme.json")

    @given(structured_priors())
    @settings(max_examples=25, deadline=None)
    def test_layout_round_trips_on_structured_priors(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            for kind in ("final", "splitmatch", "nosignal"):
                self.check_build(case[1], kind, pathlib.Path(tmp))

    def test_support_keys_sort_as_strings(self, tmp_path):
        # sort_keys orders "10" before "2"; integer shares are written "1"
        dist = ValueDistribution.from_pairs(range(1, 13), ["1/12"] * 12)
        path = tmp_path / "scheme.json"
        self.check_file(no_signal(dist), path)
        keys = json.loads(path.read_text())["entries"][0]["support"]
        assert list(keys) == ["0", "1", "10", "11"] + [str(i) for i in range(2, 10)]
        self.check_file(full_revelation(dist), path)
        assert '"10": "1"' in path.read_text()

    def test_shares_load_reduced(self, running_example, tmp_path):
        # unreduced, decimal, exponent and integer shares, and their reduced form
        reduced = {"0": "1/2", "1": "1/2", "2": "1/2", "3": "1/2"}
        written = {"0": "2/4", "1": "0.5", "2": "5e-1", "3": "1/2"}
        schemes = []
        for support in (reduced, written):
            path = tmp_path / "scheme.json"
            entries = [
                {"weight": "1/2", "support": {"0": support["0"], "1": support["1"]}},
                {"weight": "1/4", "support": {"2": support["2"], "3": support["3"]}},
                {"weight": "1/8", "support": {"2": "1"}},
                {"weight": "1/8", "support": {"3": "10e-1"}},
            ]
            path.write_text(json.dumps({"entries": entries}))
            schemes.append(load_scheme(str(path), running_example))
        assert schemes[0] == schemes[1]
        assert [s.shares for s in schemes[1].signals] == [
            ((0, (1, 2)), (1, (1, 2))),
            ((2, (1, 2)), (3, (1, 2))),
            ((2, (1, 1)),),
            ((3, (1, 1)),),
        ]

    def test_deterministic_bytes(self, running_example, tmp_path):
        scheme = split_and_match(running_example).to_signaling_scheme()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scheme(scheme, str(a))
        save_scheme(scheme, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestCsvWriters:
    # one row with a rival's columns and one without, as `cli.certify`
    # returns them in TABLE_FIELDS order
    ROWS = [(F(1, 2), F(1, 16), F(1, 16), F(3, 14), F(24, 7)), (F(1), F(1, 2), F(3, 8))]

    def test_majorization_table(self, tmp_path):
        path = tmp_path / "table.csv"
        write_majorization_table(str(path), self.ROWS, "csv")
        assert path.read_text(encoding="utf-8").splitlines() == [
            "m,m_decimal,integration_prefix,integration_prefix_decimal,sorted_prefix,"
            "sorted_prefix_decimal,adversary_prefix,adversary_prefix_decimal,ratio,ratio_decimal",
            "1/2,0.5,1/16,0.0625,1/16,0.0625,3/14,0.214285714286,24/7,3.428571428571",
            "1,1.0,1/2,0.5,3/8,0.375,,,,",
        ]

    def test_majorization_table_json(self, tmp_path):
        path = tmp_path / "table.json"
        write_majorization_table(str(path), self.ROWS, "json")
        assert json.loads(path.read_text(encoding="utf-8")) == [
            {"m": "1/2", "integration_prefix": "1/16", "sorted_prefix": "1/16",
             "adversary_prefix": "3/14", "ratio": "24/7"},
            {"m": "1", "integration_prefix": "1/2", "sorted_prefix": "3/8"},
        ]


def test_decimal_str_rounds_to_twelve_places():
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(1, 4)) == "0.25"


def test_decimal_str_beyond_float_range():
    # float(x) overflows; the exact value is rounded to 17 digits instead
    assert decimal_str(F(10**400)) == "1e+400"
    assert decimal_str(F(10**400, 3)) == "3.3333333333333333e+399"
    assert decimal_str(F(2 * 10**400 - 1, 2)) == "1e+400"
    assert decimal_str(F(10**300)) == repr(1e300)
