"""Command line front end: exit codes, reports, round trips."""

from __future__ import annotations

import csv
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from fairsignal.cli import SCHEME_KINDS, main, make_parser
from fairsignal.fileio import load_scheme, save_scheme, scheme_text
from fairsignal.market import (
    DERIVED_TOO_LONG,
    MAX_INT_DIGITS,
    InvariantViolation,
    MarketError,
    Signal,
    ValueDistribution,
    full_revelation,
)
from fairsignal.steps import StepFunction, scheme_surplus
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.oracles import adversary_grid, universal_lb_instance

from conftest import (
    max_min_surplus_lp,
    perfbench_module,
    universal_raw_masses,
    write_instance,
)

F = Fraction

# nested far deeper than the JSON parser's recursion limit
DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000

# what Python raises when printing an int past its digit limit, and an
# --out file that a failed command must leave as it is
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (100000 digits) for integer string conversion"
OLD_OUT = b"an earlier command's output\n"


@pytest.fixture
def instance_file(running_example, tmp_path):
    path = str(tmp_path / "instance.json")
    write_instance(running_example, path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def nine_value_files(tmp_path, capsys):
    """Instance file with 9 values, one above the adversary's default guard,
    and its final scheme file."""
    rng = random.Random(109)
    values = sorted(rng.sample(range(1, 40), 9))
    instance = str(tmp_path / "nine.json")
    write_instance(ValueDistribution.from_pairs(values, [F(1, 9)] * 9), instance)
    scheme = str(tmp_path / "nine_final.json")
    code, _, _ = run_cli(
        capsys, "build", "--in", instance, "--scheme", "final", "--out", scheme
    )
    assert code == 0
    return instance, scheme


class TestBuild:
    def test_final_scheme_profile(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        code, stdout, _ = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out
        )
        assert code == 0
        assert "surplus profile: [0, 1/4, 3/8, 3/8]" in stdout
        assert "monotone: true" in stdout

    def test_buyeropt_total(self, instance_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "buyeropt"
        )
        assert code == 0
        assert "buyer-optimal surplus: 1" in stdout
        assert "total consumer surplus: 1" in stdout

    def test_buyeropt_solves_once(self, instance_file, capsys, monkeypatch):
        from fairsignal import cli

        calls = []
        original = cli.buyer_optimal_scheme

        def counted(dist):
            calls.append(dist)
            return original(dist)

        monkeypatch.setattr(cli, "buyer_optimal_scheme", counted)
        code, _, _ = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "buyeropt"
        )
        assert code == 0
        assert len(calls) == 1

    def test_single_value_instance(self, tmp_path, capsys):
        path = str(tmp_path / "one.json")
        write_instance(ValueDistribution.from_pairs([3], [1]), path)
        for kind in ("splitmatch", "final", "buyeropt", "fullreveal", "nosignal"):
            code, stdout, _ = run_cli(capsys, "build", "--in", path, "--scheme", kind)
            assert code == 0
            assert "signals: 1" in stdout

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"values": [2, 1], "masses": ["1/2", "1/2"]}, fh)
        code, _, stderr = run_cli(capsys, "build", "--in", path, "--scheme", "final")
        assert code == 2
        assert "invalid instance" in stderr

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"values": "12", "masses": ["1/2", "1/2"]}',
            b'{"values": [true, 2], "masses": ["1/2", "1/2"]}',
            b'{"values": [1, 2], "masses": [{}, "1/2"]}',
            b'{"values": [1, 2], "masses": ["1/0", "1/2"]}',
            DEEP_ARRAY,
            b'{"values": [1, 2], "masses": ["1/2",',
            b'{"values": [1, 2], "masses": ["1/2", "\xff"]}',
            b'{"values": [1, 2], "masses": ["1/2", "1/2"], "masses": ["1/4", "3/4"]}',
        ],
        ids=[
            "string", "bool", "object", "zero-denominator", "deep", "truncated", "not-utf8",
            "duplicate-key",
        ],
    )
    def test_malformed_instance_shape_exits_2(self, raw, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, stdout, stderr = run_cli(capsys, "build", "--in", str(path), "--scheme", "final")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: invalid instance:")
        assert stderr.count("\n") == 1

    def test_mass_sum_error_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"values": [1, 2], "masses": ["1/2", "1/3"]}, fh)
        code, _, stderr = run_cli(capsys, "build", "--in", path, "--scheme", "final")
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"values": [1, 2], "masses": ["1e-150000", "1"]},
            {"values": ["1e-150000", 1], "masses": ["1/2", "1/2"]},
        ],
    )
    def test_oversized_rational_exits_2(self, payload, tmp_path, capsys):
        # 10**150000 is past the CLI's 100,000-digit int/str limit, so the
        # rational could be read but never printed
        path = str(tmp_path / "huge.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        code, stdout, stderr = run_cli(capsys, "build", "--in", path, "--scheme", "final")
        assert code == 2
        assert stdout == ""
        assert stderr == "error: invalid instance: rational longer than 100000 digits\n"

    @pytest.mark.parametrize(
        "scheme, values, masses",
        [
            # every input is inside the limit; the revenue is not
            ("final", [1, "1e99999", "2e99999"], lambda: ["1/3"] * 3),
            # nor is the sum of the masses, which the mass-sum error names
            ("nosignal", [1, 2], lambda: [f"1/{3**100_000}", f"1/{7**80_000}"]),
        ],
    )
    def test_oversized_derived_rational_exits_2(
        self, scheme, values, masses, tmp_path, capsys
    ):
        sys.set_int_max_str_digits(MAX_INT_DIGITS)  # as `main` does
        payload = {"values": values, "masses": masses()}
        path = str(tmp_path / "long.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        code, stdout, stderr = run_cli(capsys, "build", "--in", path, "--scheme", scheme)
        assert code == 2
        assert stdout == ""
        assert stderr == "error: a derived rational is longer than 100000 digits\n"

    def test_other_value_errors_propagate(self, instance_file, capsys, monkeypatch):
        from fairsignal import cli

        def broken(dist):
            raise ValueError("forced for the exit-code test")

        monkeypatch.setattr(cli, "monotone_fair_scheme", broken)
        with pytest.raises(ValueError, match="forced"):
            main(["build", "--in", instance_file, "--scheme", "final"])

    @pytest.mark.parametrize(
        "text",
        [
            '{"values": [1, 2], "masses": [0.5, 0.5], "note": 1e9999999}',
            '{"values": [1, 2], "masses": [0.5, 0.5], "note": 1e99999999}',
            '{"values": [1, 2], "masses": [1e-9999999, 1]}',
        ],
    )
    def test_long_exponent_literal_refused_at_once(self, text, tmp_path, capsys):
        # a JSON number literal is read by as_fraction, which refuses the
        # exponent before Fraction would build its power of ten
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, stdout, stderr = run_cli(
            capsys, "build", "--in", str(path), "--scheme", "final"
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: invalid instance: rational longer than 100000 digits\n"

    def test_unwritable_out_exits_2(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "missing" / "s.json")
        code, _, stderr = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out
        )
        assert code == 2
        assert stderr.startswith("error: ")
        assert stderr.count("\n") == 1

    def test_text_too_long_to_write_keeps_the_old_out(
        self, instance_file, tmp_path, capsys, monkeypatch
    ):
        # the scheme's text is built whole before the file is opened
        from fairsignal import fileio

        def too_long(scheme):
            raise ValueError(DIGIT_LIMIT_MESSAGE)

        monkeypatch.setattr(fileio, "scheme_text", too_long)
        out = tmp_path / "s.json"
        out.write_bytes(OLD_OUT)
        code, _, stderr = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "final", "--out", str(out)
        )
        assert (code, stderr) == (2, f"error: {DERIVED_TOO_LONG}\n")
        assert out.read_bytes() == OLD_OUT

    def test_json_format(self, instance_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "nosignal",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert "report" in payload and "scheme" in payload

    def test_deterministic_output(self, instance_file, capsys):
        _, first, _ = run_cli(capsys, "build", "--in", instance_file, "--scheme", "final")
        _, second, _ = run_cli(capsys, "build", "--in", instance_file, "--scheme", "final")
        assert first == second

    def test_invariant_violation_exits_3(self, instance_file, capsys, monkeypatch):
        from fairsignal import cli
        from fairsignal.market import InvariantViolation

        def broken(dist):
            raise InvariantViolation("forced for the exit-code test")

        monkeypatch.setattr(cli, "monotone_fair_scheme", broken)
        code, _, stderr = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "final"
        )
        assert code == 3
        assert "invariant" in stderr

    def test_buyeropt_mixture_fault_exits_3(self, instance_file, capsys, monkeypatch):
        # a fault in building the buyer-optimal scheme is a bug, not bad input
        from fairsignal import market

        original = market.scheme_from_rows

        def corrupted(dist, rows):
            rows = [list(row) for row in rows]
            i, (n, d) = rows[0][-1]
            rows[0][-1] = (i, (n, 2 * d))
            return original(dist, rows)

        monkeypatch.setattr(market, "scheme_from_rows", corrupted)
        code, stdout, stderr = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "buyeropt"
        )
        assert (code, stdout) == (3, "")
        assert stderr.startswith("error: internal invariant violated: buyer-optimal mixture: ")
        assert "mixture mass at value index" in stderr

    def test_buyeropt_total_fault_exits_3(self, instance_file, capsys, monkeypatch):
        # the check reads the Myerson revenue: E[v] - R* = 7/2 - 5/2 = 1
        original = ValueDistribution.myerson.func

        def misread(dist):
            price, revenue = original(dist)
            return price, revenue + F(1, 8)

        monkeypatch.setattr(ValueDistribution, "myerson", property(misread))
        code, stdout, stderr = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "buyeropt"
        )
        assert (code, stdout) == (3, "")
        assert stderr == (
            "error: internal invariant violated: buyer-optimal surplus 1 != 7/8 or inefficient\n"
        )

    def test_unfinalized_scheme_exits_3(self, instance_file, capsys, monkeypatch):
        # the final stage is checked at exactly half the ironed level
        from fairsignal import ironing

        monkeypatch.setattr(ironing, "finalize", lambda scheme, ironed: scheme)
        code, stdout, stderr = run_cli(
            capsys, "build", "--in", instance_file, "--scheme", "final"
        )
        assert (code, stdout) == (3, "")
        assert stderr == (
            "error: internal invariant violated: final surplus must be half the ironed level\n"
        )

    def test_unsmoothed_scheme_exits_3(self, lifted_instance, tmp_path, capsys, monkeypatch):
        # smoothing lifts class 25; without it the class is below half its level
        from fairsignal import ironing

        instance = str(tmp_path / "instance.json")
        write_instance(lifted_instance, instance)
        monkeypatch.setattr(ironing, "smooth", lambda base, ironed, pairings: base)
        code, stdout, stderr = run_cli(capsys, "build", "--in", instance, "--scheme", "final")
        assert (code, stdout) == (3, "")
        assert stderr == (
            "error: internal invariant violated: smoothed surplus fell below half the level\n"
        )

    @pytest.mark.parametrize("family", ["random", "clustered"])
    def test_buyeropt_at_n_512(self, family, tmp_path, capsys):
        # the event-driven peeling builds these in well under a second
        payload = perfbench_module("instances").make_instance(
            family, 512, random.Random(f"buyeropt:{family}:512")
        )
        instance = str(tmp_path / "instance.json")
        with open(instance, "w") as fh:
            json.dump(payload, fh)
        code, stdout, _ = run_cli(capsys, "build", "--in", instance, "--scheme", "buyeropt")
        assert code == 0
        report = dict(line.split(": ", 1) for line in stdout.splitlines())
        best = F(report["expected value"]) - F(report["myerson revenue"])
        assert F(report["buyer-optimal surplus"]) == best > 0

    def test_rationals_beyond_default_digit_limit(self, tmp_path, capsys):
        # the final scheme of this instance holds a 12,945-character rational;
        # no clustered instance with n <= 128 came near the 4,300-digit limit
        payload = perfbench_module("instances").make_instance(
            "clustered", 256, random.Random("2:1:clustered:256")
        )
        instance = str(tmp_path / "clustered.json")
        with open(instance, "w") as fh:
            json.dump(payload, fh)
        out = str(tmp_path / "final.json")
        code, _, _ = run_cli(
            capsys, "build", "--in", instance, "--scheme", "final", "--out", out
        )
        assert code == 0
        with open(out) as fh:
            assert max(len(digits) for digits in re.findall(r"\d+", fh.read())) > 4300
        code, _, _ = run_cli(capsys, "verify", "--in", instance, "--scheme", out)
        assert code == 0


class TestVerify:
    def test_round_trip(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", out,
            "--require", "efficient,monotone,majorized",
        )
        assert code == 0
        assert "certified alpha: 4" in stdout

    def test_nonmonotone_scheme_reported_and_failed(
        self, instance_file, nonmonotone_scheme, tmp_path, capsys
    ):
        path = str(tmp_path / "scheme.json")
        save_scheme(nonmonotone_scheme, path)
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", path
        )
        assert code == 0
        assert "monotone: false" in stdout
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", path,
            "--require", "monotone",
        )
        assert code == 1
        assert "failed requirements: monotone" in stdout

    def test_full_revelation_all_zero(self, instance_file, running_example, tmp_path, capsys):
        from fairsignal.market import full_revelation

        path = str(tmp_path / "reveal.json")
        save_scheme(full_revelation(running_example), path)
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", path,
            "--require", "efficient",
        )
        assert code == 0
        assert "efficient: true" in stdout
        assert "total consumer surplus: 0" in stdout

    @pytest.mark.parametrize(
        "case", ["lone_singleton", "no_entries", "doubled_weights", "extra_signal"]
    )
    def test_implausible_scheme_exits_2_with_index(
        self, case, instance_file, running_example, tmp_path, capsys
    ):
        # a weight total other than 1 is caught as a mixture off the prior
        entries = json.loads(scheme_text(full_revelation(running_example)))["entries"]
        if case == "lone_singleton":
            entries = [{"weight": "1", "support": {"0": "1"}}]
        elif case == "no_entries":
            entries = []
        elif case == "doubled_weights":
            entries = [dict(e, weight=str(2 * F(e["weight"]))) for e in entries]
        else:
            entries.append({"weight": "1/8", "support": {"3": "1"}})
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            json.dump({"entries": entries}, fh)
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", path
        )
        assert code == 2
        assert "scheme is not Bayes plausible at value index" in stderr

    def test_custom_grid_and_csv_export(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        table = str(tmp_path / "table.csv")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", out,
            "--adversary", "--grid", "1/2,1", "--out", table,
        )
        assert code == 0
        with open(table) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3  # header plus two grid rows

    def test_csv_table_beyond_float_range(self, tmp_path, capsys):
        # prefix sums past 1.8e308 once made the CSV writer's float() raise
        instance = str(tmp_path / "huge.json")
        with open(instance, "w") as fh:
            json.dump({"values": ["1e400", "3e400"], "masses": ["1/2", "1/2"]}, fh)
        scheme = str(tmp_path / "final.json")
        table = str(tmp_path / "table.csv")
        run_cli(capsys, "build", "--in", instance, "--scheme", "final", "--out", scheme)
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance, "--scheme", scheme, "--out", table
        )
        assert (code, stderr) == (0, "")
        with open(table) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["m_decimal"] for row in rows] == ["0.5", "1.0"]
        assert rows[1]["sorted_prefix"] == str(125 * 10**397)
        assert rows[1]["sorted_prefix_decimal"] == "1.25e+399"

    def test_support_guard_exits_2(self, nine_value_files, capsys):
        instance, scheme = nine_value_files
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance, "--scheme", scheme,
            "--adversary", "--grid", "1",
        )
        assert code == 2
        assert "adversary oracle limited to 8 values; got 9" in stderr

    @pytest.mark.parametrize(
        "flags", [("--adversary",), ("--require", "majorized")], ids=["adversary", "majorized"]
    )
    def test_support_guard_reads_no_scheme(
        self, nine_value_files, capsys, monkeypatch, flags
    ):
        from fairsignal import cli, fileio

        def refuse(*args):
            raise AssertionError("work done before the support guard")

        monkeypatch.setattr(fileio, "load_scheme", refuse)
        monkeypatch.setattr(cli, "scheme_surplus", refuse)
        instance, scheme = nine_value_files
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance, "--scheme", scheme, *flags
        )
        assert code == 2
        assert "adversary oracle limited to 8 values; got 9" in stderr

    def test_max_support_lifts_guard(self, nine_value_files, capsys):
        instance, scheme = nine_value_files
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", instance, "--scheme", scheme,
            "--adversary", "--grid", "1", "--max-support", "9",
        )
        assert code == 0
        assert "certified alpha: " in stdout

    @pytest.mark.parametrize("size", ["0", "-3", "x"])
    def test_max_support_that_is_not_a_positive_int_exits_2(self, nine_value_files, capsys, size):
        instance, scheme = nine_value_files
        with pytest.raises(SystemExit) as exit:
            run_cli(
                capsys, "verify", "--in", instance, "--scheme", scheme,
                "--adversary", "--grid", "1", "--max-support", size,
            )
        assert exit.value.code == 2
        stderr = capsys.readouterr().err
        assert "argument --max-support: " in stderr
        assert "adversary oracle limited" not in stderr

    def test_trace_counts_one_call_per_grid_mass(
        self, instance_file, running_example, tmp_path, capsys
    ):
        # the benchmark's trace wraps the names cli and oracles call;
        # certification must reach each prefix sum, the adversary sweep and
        # one LP per grid mass through them
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        recorder = perfbench_module("tracing").SpanRecorder()
        recorder.adversary_command = True  # as the benchmark sets it for this argv
        try:
            recorder.install()
            code, _, _ = run_cli(
                capsys, "verify", "--in", instance_file, "--scheme", out, "--adversary"
            )
        finally:
            recorder.uninstall()
        assert code == 0
        step = scheme_surplus(load_scheme(out, running_example))
        grid = adversary_grid(step)
        assert recorder.counts["steps.grid_points"] == len(grid)
        assert recorder.counts["oracles.adversary_calls"] == 1
        assert recorder.counts["lp.solve_calls"] == len(grid)
        # the trace keeps the step function each certified grid was made
        # from, and counts its sorted breakpoints
        assert recorder.breakpoints() == len(step.ascending.breakpoints)

    @pytest.mark.parametrize("grid", [None, "1/3,2/7,1"], ids=["own-grid", "off-lattice"])
    def test_prefix_sums_run_once_per_grid_mass(
        self, grid, instance_file, tmp_path, capsys, monkeypatch
    ):
        # the benchmark's steps.prefix_grid_s times the calls verify makes to
        # these two names and its steps.grid_points counts sorted_prefix's,
        # so each must run exactly once per row of the table, at its mass
        from fairsignal import cli

        calls = {"integration_prefix": [], "sorted_prefix": []}
        for name, masses in calls.items():
            def counted(step, m, original=getattr(cli, name), masses=masses):
                masses.append(m)
                return original(step, m)

            monkeypatch.setattr(cli, name, counted)
        out = str(tmp_path / "final.json")
        table = str(tmp_path / "table.csv")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        calls["integration_prefix"].clear()
        calls["sorted_prefix"].clear()
        argv = ["verify", "--in", instance_file, "--scheme", out, "--out", table]
        code, _, _ = run_cli(capsys, *argv, *(["--grid", grid] if grid else []))
        assert code == 0
        with open(table) as fh:
            rows = [F(row["m"]) for row in csv.DictReader(fh)]
        assert len(rows) == (3 if grid else 4)
        assert calls["integration_prefix"] == calls["sorted_prefix"] == rows

    @pytest.mark.parametrize("extra", [["--adversary"], ["--require", "efficient,monotone"]])
    def test_final_scheme_is_read_as_its_own_rearrangement(
        self, extra, instance_file, tmp_path, capsys, monkeypatch
    ):
        # a final scheme's surplus is non-decreasing, so its grid and its
        # sorted prefix sums read the step function itself
        from fairsignal import cli

        steps = []

        def recorded(scheme, original=cli.scheme_surplus):
            steps.append(original(scheme))
            return steps[-1]

        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        monkeypatch.setattr(cli, "scheme_surplus", recorded)
        code, _, _ = run_cli(capsys, "verify", "--in", instance_file, "--scheme", out, *extra)
        assert code == 0
        [step] = steps
        assert step.non_decreasing
        assert "ascending" not in step.__dict__

    def test_grid_off_the_lattice_table(self, tmp_path, capsys):
        # 1/3 and 2/7 are off the lattice of the breakpoints' common
        # denominator 4; the table is the one bisecting the Fraction
        # breakpoints themselves gives
        golden = os.path.join(os.path.dirname(__file__), "golden", "running_example")
        table = str(tmp_path / "table.csv")
        code, stdout, _ = run_cli(
            capsys, "verify", "--in", os.path.join(golden, "instance.json"),
            "--scheme", os.path.join(golden, "scheme_final.json"),
            "--grid", "1/3,2/7", "--out", table,
        )
        assert code == 0
        assert stdout.endswith("m | Pfv | PF\n2/7 | 1/112 | 1/112\n1/3 | 1/48 | 1/48\n")
        with open(table, "rb") as fh:
            assert fh.read() == (
                b"m,m_decimal,integration_prefix,integration_prefix_decimal,sorted_prefix,"
                b"sorted_prefix_decimal,adversary_prefix,adversary_prefix_decimal,ratio,"
                b"ratio_decimal\r\n"
                b"2/7,0.285714285714,1/112,0.008928571429,1/112,0.008928571429,,,,\r\n"
                b"1/3,0.333333333333,1/48,0.020833333333,1/48,0.020833333333,,,,\r\n"
            )

    def test_benchmark_trace_installs_and_uninstalls(self):
        # the traced benchmark wraps package names by hand, so renaming one
        # makes its install raise KeyError
        from fairsignal import cli, fileio, ironing, oracles
        from fairsignal.splitmatch import DecomposedScheme

        owners = (cli, fileio, ironing, oracles, DecomposedScheme)
        before = [dict(vars(owner)) for owner in owners]
        recorder = perfbench_module("tracing").SpanRecorder()
        try:
            recorder.install()
            wrapped = {
                (owner.__name__, name)
                for owner, names in zip(owners, before)
                for name, value in names.items()
                if vars(owner)[name] is not value
            }
        except KeyError as missing:
            pytest.fail(f"the benchmark's tracer wraps {missing}, which the package lacks")
        finally:
            recorder.uninstall()
        assert {
            ("fairsignal.cli", "adversary_sorted_prefix"),
            ("fairsignal.oracles", "solve_lp"),
            ("DecomposedScheme", "to_signaling_scheme"),
        } <= wrapped
        assert [dict(vars(owner)) for owner in owners] == before

    def test_bad_grid_exits_2(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", out, "--grid", "0,1"
        )
        assert code == 2

    def test_oversized_grid_mass_exits_2(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", out,
            "--grid", "1e-150000",
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")
        assert "longer than 100000 digits" in stderr

    @pytest.mark.parametrize("grid", ["1e-150000", "1e-99999999"])
    def test_long_grid_exponent_message(self, grid, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", out, "--grid", grid
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: rational longer than 100000 digits\n"

    def test_long_exponent_in_scheme_literal(self, instance_file, tmp_path, capsys):
        path = tmp_path / "scheme.json"
        path.write_text('{"entries": [{"weight": 1e-99999999, "support": {"0": "1"}}]}')
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", str(path)
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: invalid scheme file: rational longer than 100000 digits\n"

    def test_overlong_scheme_sum_exits_2(self, instance_file, tmp_path, capsys):
        # every rational and every signal's lcm is inside the limit, but the
        # mass of value 0 summed over the signals is not; the sum stops there
        # rather than growing with each signal
        sys.set_int_max_str_digits(MAX_INT_DIGITS)  # as `main` does
        rng = random.Random(5)
        entries = []
        for _ in range(3):
            d = rng.getrandbits(300_000) | 1
            support = {"0": f"1/{d}", "1": f"{d - 1}/{d}"}
            entries.append({"weight": "1/3", "support": support})
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"entries": entries}))
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", str(path)
        )
        assert code == 2
        assert stdout == ""
        assert stderr == (
            "error: invalid scheme file: a derived rational is longer than 100000 digits\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_out_exits_2(self, fmt, instance_file, tmp_path, capsys):
        scheme = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", scheme)
        out = str(tmp_path / "missing" / f"t.{fmt}")
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", scheme,
            "--out", out, "--format", fmt,
        )
        assert code == 2
        assert stderr.startswith("error: ")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_too_long_to_write_keeps_the_old_out(
        self, fmt, instance_file, tmp_path, capsys, monkeypatch
    ):
        # the CSV table once went out row by row, its header before any cell
        from fairsignal import fileio

        scheme = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", scheme)

        def too_long(value):
            raise ValueError(DIGIT_LIMIT_MESSAGE)

        monkeypatch.setattr(fileio, "as_text", too_long)
        out = tmp_path / f"t.{fmt}"
        out.write_bytes(OLD_OUT)
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", scheme,
            "--out", str(out), "--format", fmt,
        )
        assert (code, stderr) == (2, f"error: {DERIVED_TOO_LONG}\n")
        assert out.read_bytes() == OLD_OUT

    @pytest.mark.parametrize("grid", ["abc", "1/2,,1", "1/0"])
    def test_malformed_grid_exits_2(self, grid, instance_file, tmp_path, capsys):
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", out, "--grid", grid
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"entries": 5}',
            b'{"entries": [1]}',
            b'{"entries": [{"weight": "1", "support": ["1/4", "1/4", "1/4", "1/4"]}]}',
            b'{"entries": [{"weight": true, "support": {"0": "1"}}]}',
            b'{"entries": [{"weight": {}, "support": {"0": "1"}}]}',
            b'{"entries": [{"weight": "1", "support": {"x": "1"}}]}',
            DEEP_ARRAY,
            b'{"entries": [{"weight": "1",',
            b'{"entries": [{"weight": "\xff", "support": {"0": "1"}}]}',
        ],
        ids=[
            "entries-number", "entry-number", "support-array", "bool-weight", "object-weight",
            "support-key-x", "deep", "truncated", "not-utf8",
        ],
    )
    def test_malformed_scheme_file_exits_2(self, raw, instance_file, tmp_path, capsys):
        path = tmp_path / "bad_scheme.json"
        path.write_bytes(raw)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", str(path)
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: invalid scheme file:")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "support, message",
        [
            ('"0": "1/0", "1": "1/2"', "cannot read '1/0' as a rational"),
            ('"0": "-1/2", "1": "1/2"', "support masses must be positive, got -1/2"),
            ('"0": "0", "1": "1"', "support masses must be positive, got 0"),
            ('"0": "1/' + "9" * MAX_INT_DIGITS + '", "1": "1/2"',
             f"rational longer than {MAX_INT_DIGITS} digits"),
            ('"0": "1/2", "0": "1/2"', "duplicate key '0' in a JSON object"),
            ('"0": "1/2", "00": "1/2"', "duplicate support index 0"),
            # int() reads each of these keys, as 10, 3, 2 and 3, but the
            # writer writes none of them
            ('"0": "1/2", "1_0": "1/2"', "support index '1_0' is not written in ASCII digits"),
            ('"0": "1/2", " 3": "1/2"', "support index ' 3' is not written in ASCII digits"),
            ('"0": "1/2", "+2": "1/2"', "support index '+2' is not written in ASCII digits"),
            ('"0": "1/2", "\\u0663": "1/2"',
             "support index '\u0663' is not written in ASCII digits"),
            ('"0": "1/2", "5": "1/2"', "support index 5 out of range"),
            ('"0": "1/2"', "signal masses sum to 1/2, expected 1"),
            ('"1": "1/3", "0": "1/3"', "signal masses sum to 2/3, expected 1"),
            ("", "signal support must be nonempty"),
            # the shares are checked in the file's order, each fully
            # before the next, and the sum only after every share
            ('"1": "-1/2", "7": "1/2"', "support masses must be positive, got -1/2"),
            ('"7": "-1/2", "1": "1/2"', "support index 7 out of range"),
            ('"1": "1/4", "01": "1/4"', "duplicate support index 1"),
        ],
        ids=[
            "zero-denominator", "negative", "zero", "too-long", "duplicate-key",
            "duplicate-index", "underscore-index", "space-index", "plus-index",
            "arabic-indic-index", "out-of-range", "sum-half", "sum-two-thirds", "empty",
            "negative-then-range", "range-and-negative", "duplicate-before-sum",
        ],
    )
    def test_refused_share_exits_2(self, support, message, tmp_path, capsys):
        instance = str(tmp_path / "instance.json")
        write_instance(ValueDistribution.from_pairs([1, 2], ["1/2", "1/2"]), instance)
        path = tmp_path / "scheme.json"
        path.write_text('{"entries": [{"weight": "1", "support": {' + support + "}}]}")
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance, "--scheme", str(path)
        )
        assert (code, stdout, stderr) == (2, "", f"error: invalid scheme file: {message}\n")

    @pytest.mark.parametrize(
        "weight, message",
        [
            ('"1/0"', "cannot read '1/0' as a rational"),
            ('"-1/2"', "signal weights must be positive, got -1/2"),
            ('"0"', "signal weights must be positive, got 0"),
            ('"1/' + "9" * MAX_INT_DIGITS + '"', f"rational longer than {MAX_INT_DIGITS} digits"),
            ('"abc"', "cannot read 'abc' as a rational"),
            ('""', "cannot read '' as a rational"),
            ("true", "bool is not a rational value"),
            ("{}", "cannot interpret dict as a rational"),
            ("[]", "cannot interpret list as a rational"),
        ],
        ids=["zero-denominator", "negative", "zero", "too-long", "text", "empty", "bool",
             "object", "array"],
    )
    def test_refused_weight_exits_2(self, weight, message, tmp_path, capsys):
        instance = str(tmp_path / "instance.json")
        write_instance(ValueDistribution.from_pairs([1, 2], ["1/2", "1/2"]), instance)
        path = tmp_path / "scheme.json"
        support = '"support": {"0": "1/2", "1": "1/2"}'
        path.write_text('{"entries": [{"weight": ' + weight + ", " + support + "}]}")
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance, "--scheme", str(path)
        )
        assert (code, stdout, stderr) == (2, "", f"error: invalid scheme file: {message}\n")

    def test_grid_does_not_replace_the_certification_grid(self, capsys):
        # 1/5 misses every mass where full revelation's ratio binds; the
        # table shows it alone, but alpha is read on the scheme's own grid
        golden = os.path.join(os.path.dirname(__file__), "golden", "running_example")
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", os.path.join(golden, "instance.json"),
            "--scheme", os.path.join(golden, "scheme_fullreveal.json"),
            "--grid", "1/5", "--require", "majorized",
        )
        assert (code, stderr) == (1, "")
        assert "\ncertified alpha: inf\nmajorized (alpha <= 8): false\n" in stdout
        assert stdout.endswith(
            "m | Pfv | PF | adversary PF | ratio\n1/5 | 0 | 0 | 0 | 0\n"
            "failed requirements: majorized\n"
        )

    def test_many_given_masses_are_shown_in_order(self, tmp_path, capsys):
        # 350 masses: 1/2 and 1 are on the scheme's grid, 1/4 and 3/4 are on
        # it but not given, and the rest are off it.  The table shows exactly
        # the given masses, and alpha is the one of the scheme's grid
        golden = os.path.join(os.path.dirname(__file__), "golden", "running_example")
        argv = [
            "verify", "--in", os.path.join(golden, "instance.json"),
            "--scheme", os.path.join(golden, "scheme_splitmatch.json"), "--adversary",
        ]
        masses = [F(k, 350) for k in range(1, 351)]
        header = "m | Pfv | PF | adversary PF | ratio\n"
        code, own, _ = run_cli(capsys, *argv)
        assert code == 0
        own_rows = {F(line.split(" | ")[0]): line for line in own.split(header)[1].splitlines()}
        assert sorted(own_rows.keys() & set(masses)) == [F(1, 2), F(1)]
        assert sorted(own_rows.keys() - set(masses)) == [F(1, 4), F(3, 4)]

        out = str(tmp_path / "table.csv")
        code, given, _ = run_cli(capsys, *argv, "--grid", ",".join(map(str, masses)), "--out", out)
        assert code == 0
        alpha = re.search(r"^certified alpha: .*$", own, re.M).group()
        assert re.search(r"^certified alpha: .*$", given, re.M).group() == alpha
        table = given.split(header)[1].splitlines()
        assert [F(line.split(" | ")[0]) for line in table] == masses
        assert [line for line in table if F(line.split(" | ")[0]) in own_rows] == [
            own_rows[m] for m in masses if m in own_rows
        ]
        with open(out, encoding="utf-8", newline="") as fh:
            assert [F(row["m"]) for row in csv.DictReader(fh)] == masses

    def test_grid_leaves_alpha_unchanged_on_corpus(self, corpus, tmp_path, capsys):
        rng = random.Random(6)
        sample = rng.sample([dist for dist in corpus if dist.n <= 6], 40)
        instance, scheme = str(tmp_path / "instance.json"), str(tmp_path / "scheme.json")
        for dist in sample:
            write_instance(dist, instance)
            masses = sorted({F(rng.randint(1, 12), 12), F(rng.randint(1, 7), 7)})
            grid = ",".join(map(str, masses))
            for kind in SCHEME_KINDS:
                run_cli(capsys, "build", "--in", instance, "--scheme", kind, "--out", scheme)
                argv = ["verify", "--in", instance, "--scheme", scheme, "--adversary"]
                _, own, _ = run_cli(capsys, *argv)
                code, given, _ = run_cli(capsys, *argv, "--grid", grid)
                assert code == 0
                alpha = re.search(r"^certified alpha: .*$", own, re.M).group()
                assert re.search(r"^certified alpha: .*$", given, re.M).group() == alpha
                table = given.split("m | Pfv | PF | adversary PF | ratio\n")[1]
                assert [F(row.split(" | ")[0]) for row in table.splitlines()] == masses

    @pytest.mark.parametrize(
        "content, message",
        [
            ([1, 2], "instance file must hold an object"),
            ({"values": ["1", "2"], "masses": ["0", "0"]}, "no value carries positive mass"),
            ({"values": ["1", "2"], "masses": ["-1/2", "3/2"]},
             "masses must be non-negative, got -1/2"),
        ],
        ids=["array", "no-positive-mass", "negative-mass"],
    )
    def test_refused_instance_exits_2(self, content, message, instance_file, tmp_path, capsys):
        scheme = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", scheme)
        path = tmp_path / "bad_instance.json"
        path.write_text(json.dumps(content))
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", str(path), "--scheme", scheme
        )
        assert (code, stdout, stderr) == (2, "", f"error: invalid instance: {message}\n")

    def test_unknown_requirement_exits_2(self, instance_file, tmp_path, capsys):
        scheme = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", scheme)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", scheme, "--require", "foo"
        )
        assert (code, stdout, stderr) == (2, "", "error: unknown requirement 'foo'\n")

    def test_support_key_past_the_digit_limit_exits_2(self, instance_file, tmp_path, capsys):
        # the rest of the message is Python's own, which varies by version
        path = tmp_path / "scheme.json"
        key = "1" * (MAX_INT_DIGITS + 1)
        path.write_text('{"entries": [{"weight": "1", "support": {"' + key + '": "1"}}]}')
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", str(path)
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: invalid scheme file: ")

    def test_bad_grid_reported_before_scheme_is_read(self, instance_file, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code, stdout, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", missing, "--grid", "0,1"
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: grid mass 0 outside (0, 1]\n"


@pytest.mark.parametrize("instance", ["running_example", "fig3_instance"])
def test_each_signal_is_priced_once_per_scheme(instance, request, tmp_path, capsys, monkeypatch):
    # a signal is priced once, when built, and scheme_surplus, is_efficient
    # and scheme_revenue read that price; the prior's Myerson price is read
    # off its revenue curve, so the schemes' signals are the only ones priced
    original, priced = Signal.__post_init__, []

    def counted(signal):
        priced.append(signal)
        original(signal)

    monkeypatch.setattr(Signal, "__post_init__", counted)
    dist = request.getfixturevalue(instance)
    path = str(tmp_path / "instance.json")
    write_instance(dist, path)
    signals = []
    # both kinds that `build` converts from a pipeline stage, and the
    # buyer-optimal scheme, whose total check reads the Myerson revenue
    # that the report prints
    for kind, require in (
        ("final", "efficient,monotone"),
        ("splitmatch", "efficient"),
        ("buyeropt", "efficient"),
    ):
        scheme = str(tmp_path / f"{kind}.json")
        for argv in (
            ("build", "--in", path, "--scheme", kind, "--out", scheme),
            ("verify", "--in", path, "--scheme", scheme, "--require", require),
        ):
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            signals.append(int(re.search(r"^signals: (\d+)$", stdout, re.M).group(1)))
    assert len(priced) == sum(signals)
    assert len({id(signal) for signal in priced}) == len(priced)


def test_scheme_files_are_written_and_read_without_fractions(
    instance_file, tmp_path, capsys, monkeypatch
):
    # build writes each signal's shares as they are and verify sums them as
    # read; neither runs the generic JSON writer
    from fairsignal import fileio

    def refuse(*args):
        raise AssertionError("scheme file went through json_text")

    monkeypatch.setattr(fileio, "json_text", refuse)
    for kind in SCHEME_KINDS:
        scheme = str(tmp_path / f"{kind}.json")
        for argv in (
            ("build", "--in", instance_file, "--scheme", kind, "--out", scheme),
            ("verify", "--in", instance_file, "--scheme", scheme),
        ):
            code, _, stderr = run_cli(capsys, *argv)
            assert (code, stderr) == (0, "")


def test_two_commands_build_one_parser(instance_file, tmp_path, capsys, monkeypatch):
    from fairsignal import cli

    original, built = cli.make_parser, []

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "make_parser", counted)
    cli._parser.cache_clear()
    out = str(tmp_path / "final.json")
    for argv in (
        ("build", "--in", instance_file, "--scheme", "final", "--out", out),
        ("verify", "--in", instance_file, "--scheme", out),
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv", [("--help",), ("build", "--help"), ("build",), ("nosuch",), ()],
    ids=["help", "build-help", "missing-option", "unknown-command", "no-command"],
)
def test_help_and_usage_errors_as_from_a_fresh_parser(argv, capsys):
    with pytest.raises(SystemExit) as fresh:
        make_parser().parse_args(list(argv))
    expected = capsys.readouterr()
    for _ in range(2):  # the second call reuses the parser of the first
        with pytest.raises(SystemExit) as got:
            main(list(argv))
        assert got.value.code == fresh.value.code == (0 if "--help" in argv else 2)
        assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "instance, final_stages",
    [("running_example", 2), ("fig3_instance", 2), ("lifted_instance", 3)],
    ids=["running_example", "fig3_instance", "lifted_instance"],
)
def test_each_stage_is_summed_once_per_command(
    instance, final_stages, request, tmp_path, capsys, monkeypatch
):
    # build sums each pipeline stage it runs once and hands the output
    # stage's sums to its scheme; verify sums the scheme it reads, afresh.
    # Smoothing that lifts no class hands the base stage on unsummed.
    from fairsignal import market, splitmatch

    original, calls = market.class_sums, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(market, "class_sums", counted)
    monkeypatch.setattr(splitmatch, "class_sums", counted)
    path = str(tmp_path / "instance.json")
    write_instance(request.getfixturevalue(instance), path)
    counts = []
    for kind in ("final", "splitmatch"):
        scheme = str(tmp_path / f"{kind}.json")
        for argv in (
            ("build", "--in", path, "--scheme", kind, "--out", scheme),
            ("verify", "--in", path, "--scheme", scheme),
        ):
            calls.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            counts.append(len(calls))
    # final: the base, the smoothed if it differs, and the final stage;
    # splitmatch: its one stage
    assert counts == [final_stages, 1, 1, 1]


@pytest.mark.parametrize("instance", ["running_example", "fig3_instance", "lifted_instance"])
def test_each_binary_gets_its_shares_once(instance, request, tmp_path, capsys, monkeypatch):
    # the greedy makes one binary per round and smoothing one per freed
    # giver of each lifting pair; each computes that binary's shares, and
    # every later stage, the scheme and its file read them off the binary
    from fairsignal import ironing, splitmatch

    dist = request.getfixturevalue(instance)
    result = monotone_fair_scheme(dist)
    repaired = sum(
        sum(b.taker == pair.plus_index for b in result.base.binaries)
        for interval, pairs in zip(result.ironed.intervals, result.pairings)
        for pair in pairs
        if 2 * pair.minus_height > interval.level
    )
    assert (repaired > 0) == (instance == "lifted_instance")
    original, calls = splitmatch.binary_shares, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(splitmatch, "binary_shares", counted)
    monkeypatch.setattr(ironing, "binary_shares", counted)
    path = str(tmp_path / "instance.json")
    write_instance(dist, path)
    scheme = str(tmp_path / "final.json")
    counts = []
    for argv in (
        ("build", "--in", path, "--scheme", "final", "--out", scheme),
        ("verify", "--in", path, "--scheme", scheme),
    ):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        counts.append(len(calls))
    assert counts == [len(result.base.binaries) + repaired, 0]


# The class sums `build` runs per kind: a checked scheme's one, or one per
# pipeline stage it builds (the running example's smoothing lifts no class,
# so `final` builds the base and the final stage), whose schemes reuse them.
BUILD_SUMS = {
    "splitmatch": ["stage"],
    "final": ["stage", "stage"],
    "buyeropt": ["scheme"],
    "fullreveal": ["scheme"],
    "nosignal": ["scheme"],
}


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_each_command_sums_the_pie_and_the_surplus_once(
    kind, running_example, tmp_path, capsys, monkeypatch
):
    # E[v] is summed once per distribution; a total surplus is summed with
    # its other class sums, by the `class_sums` of the scheme or stage that
    # holds it, and `verify` runs one, which checks the file; the report
    # and the step function reuse both
    from fairsignal import market, splitmatch

    original_dot, calls = market.dot, []

    def counted_dot(xs, ys):
        xs, ys = tuple(xs), tuple(ys)
        calls.append((xs, ys))
        return original_dot(xs, ys)

    def counted_sums(module, label):
        original = module.class_sums

        def counted(dist, entries):
            calls.append(label)
            return original(dist, entries)

        monkeypatch.setattr(module, "class_sums", counted)

    monkeypatch.setattr(market, "dot", counted_dot)
    counted_sums(market, "scheme")
    counted_sums(splitmatch, "stage")
    path = str(tmp_path / "instance.json")
    write_instance(running_example, path)
    scheme = str(tmp_path / f"{kind}.json")
    pie = (running_example.values, running_example.masses)
    assert run_cli(capsys, "build", "--in", path, "--scheme", kind, "--out", scheme)[0] == 0
    assert [c for c in calls if c != pie] == BUILD_SUMS[kind]
    assert calls.count(pie) == 1
    calls.clear()
    assert run_cli(capsys, "verify", "--in", path, "--scheme", scheme)[0] == 0
    assert calls == ["scheme", pie]


@pytest.mark.parametrize("instance", ["running_example", "fig3_instance", "lifted_instance"])
def test_each_table_value_is_written_once(instance, request, monkeypatch):
    # on its own grid a monotone scheme's Pfv and PF are one object, and
    # the table turns it into text once per row
    from fairsignal import cli

    dist = request.getfixturevalue(instance)
    step = scheme_surplus(cli.build_named_scheme(dist, "final"))
    rows, _ = cli.certify(step, adversary_grid(step))
    assert all(pfv is pf for _, pfv, pf in rows)  # rows of three: no rival
    written = []
    monkeypatch.setattr(cli, "as_text", lambda value: written.append(value) or str(value))
    lines = cli._table_lines(rows)
    assert lines == ["m | Pfv | PF"] + [f"{m} | {pf} | {pf}" for m, _, pf in rows]
    assert sorted(written) == sorted(v for m, _, pf in rows for v in (m, pf))


def test_certify_needs_one_rival_value_per_mass():
    from fairsignal import cli

    step = StepFunction((F(1, 2), F(1)), (F(1), F(2)))
    with pytest.raises(ValueError):
        cli.certify(step, (F(1, 2), F(1)), [F(1)])


def run_with_closed_stdout(argv) -> tuple[int, bytes]:
    """Run the CLI in a child whose stdout is a pipe whose read end was
    closed before it started, as `| head -1` leaves it once head exits;
    return its exit code and its stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "fairsignal.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write)
    return child.returncode, child.stderr


@pytest.mark.parametrize("command", ["build", "verify"])
def test_closed_stdout_keeps_the_out_file(command, tmp_path, capsys):
    # the --out file is written before the report, and a reader that has
    # gone is no error: the child exits as a normal run does
    rng = random.Random(128)
    dist = ValueDistribution.from_pairs(sorted(rng.sample(range(1, 1000), 128)), [F(1, 128)] * 128)
    instance, scheme, expected, out = (
        str(tmp_path / name) for name in ("r128.json", "s.json", "expected", "out")
    )
    write_instance(dist, instance)
    build = ["build", "--in", instance, "--scheme", "final", "--out"]
    argv = build if command == "build" else ["verify", "--in", instance, "--scheme", scheme, "--out"]
    assert main([*build, scheme]) == 0
    assert main([*argv, expected]) == 0
    # longer than the child's stdout buffer, so its print meets the pipe
    assert len(capsys.readouterr().out) > 8192
    assert run_with_closed_stdout([*argv, out]) == (0, b"")
    with open(out, "rb") as got, open(expected, "rb") as want:
        assert got.read() == want.read()


class TestLowerbound:
    def test_buyeropt_ratio(self, capsys):
        code, stdout, _ = run_cli(capsys, "lowerbound", "buyeropt", "5")
        assert code == 0
        assert "min positive surplus ratio: 5" in stdout
        assert "verified: true" in stdout

    def test_buyeropt_calls_no_optimizer(self, capsys, monkeypatch):
        from fairsignal import cli, oracles

        def refuse(*args):
            raise AssertionError("optimizer called")

        monkeypatch.setattr(cli, "buyer_optimal_scheme", refuse)
        monkeypatch.setattr(oracles, "solve_lp", refuse)
        code, stdout, _ = run_cli(capsys, "lowerbound", "buyeropt", "5")
        assert code == 0
        assert "verified: true" in stdout

    def test_universal_matches_closed_form(self, capsys):
        code, stdout, _ = run_cli(capsys, "lowerbound", "universal", "1/1000")
        assert code == 0
        assert "match: true" in stdout

    @pytest.mark.parametrize("epsilon", ["1/100", "1/1000", "1e-50"])
    def test_universal_reads_max_min_off_the_sweep(self, epsilon, capsys):
        # the reported value is the adversary at F(v_2) over f_2; it must be
        # the reference max-min LP's optimum and the closed form
        code, stdout, _ = run_cli(capsys, "lowerbound", "universal", epsilon)
        assert code == 0
        [reported] = re.findall(r"^max-min LP value: (\S+)$", stdout, re.MULTILINE)
        inst = universal_lb_instance(epsilon)
        reference = max_min_surplus_lp(inst.dist.values, universal_raw_masses(F(epsilon)))
        assert F(reported) == reference.value == inst.best_min_surplus

    def test_universal_solves_only_the_sweep(self, capsys, monkeypatch):
        from fairsignal import lp, oracles

        captured = []

        def capture(program, start=None):
            captured.append(program)
            return lp.solve_lp(program, start=start)

        monkeypatch.setattr(oracles, "solve_lp", capture)
        code, _, _ = run_cli(capsys, "lowerbound", "universal", "1/1000")
        assert code == 0
        dist = universal_lb_instance(F(1, 1000)).dist
        grid = adversary_grid(scheme_surplus(monotone_fair_scheme(dist).final))
        assert len(captured) == len(grid)
        assert all(p.constraints == captured[0].constraints for p in captured)

    def test_degenerate_parameter_rejected(self, capsys):
        code, _, stderr = run_cli(capsys, "lowerbound", "buyeropt", "1")
        assert code == 2
        assert "parameter must exceed 1, got 1" in stderr

    def test_oversized_parameter_refused_up_front(self, capsys, monkeypatch):
        # no power of an oversized parameter is formed: the instance is not
        # built.  The long N passed the old buyeropt guard, which bounded
        # 4x N's bits, but its expected value printed past MAX_INT_DIGITS.
        from fairsignal import oracles

        def refuse(*args, **kwargs):
            raise AssertionError("instance built")

        monkeypatch.setattr(oracles, "ValueDistribution", refuse)
        sys.set_int_max_str_digits(MAX_INT_DIGITS)  # as `main` does
        long_n = f"{2**83048 - 1}/{2**83048 - 3}"
        for kind, parameter in [
            ("buyeropt", "1e99999"),
            ("buyeropt", long_n),
            ("universal", "1e-3000"),
        ]:
            code, stdout, stderr = run_cli(capsys, "lowerbound", kind, parameter)
            assert code == 2
            assert stdout == ""
            assert "MAX_PARAMETER_EXPONENT = 10**1000" in stderr

    @pytest.mark.parametrize(
        "kind, parameter", [("universal", "1e-99999999"), ("buyeropt", "1e99999999")]
    )
    def test_long_exponent_refused_at_once(self, kind, parameter, capsys):
        code, stdout, stderr = run_cli(capsys, "lowerbound", kind, parameter)
        assert code == 2
        assert stdout == ""
        assert stderr == "error: rational longer than 100000 digits\n"

    def test_longest_parameter_accepted(self, capsys):
        code, stdout, _ = run_cli(capsys, "lowerbound", "buyeropt", "1e1000")
        assert code == 0
        assert "verified: true" in stdout

    @pytest.mark.parametrize("kind", ["buyeropt", "universal"])
    def test_malformed_parameter_exits_2(self, kind, capsys):
        code, stdout, stderr = run_cli(capsys, "lowerbound", kind, "1/0")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")

    def test_epsilon_out_of_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "lowerbound", "universal", "1/50")
        assert code == 2
