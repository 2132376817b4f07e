"""Command line front end: exit codes, reports, round trips."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest

from fairsignal.cli import main
from fairsignal.fileio import load_scheme, save_instance, save_scheme
from fairsignal.market import ValueDistribution, scheme_surplus
from fairsignal.oracles import adversary_grid

from conftest import perfbench_module

F = Fraction


@pytest.fixture
def instance_file(running_example, tmp_path):
    path = str(tmp_path / "instance.json")
    save_instance(running_example, path)
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
    save_instance(ValueDistribution.from_pairs(values, [F(1, 9)] * 9), instance)
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
        save_instance(ValueDistribution.from_pairs([3], [1]), path)
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
        "payload",
        [
            {"values": "12", "masses": ["1/2", "1/2"]},
            {"values": [True, 2], "masses": ["1/2", "1/2"]},
            {"values": [1, 2], "masses": [{}, "1/2"]},
            {"values": [1, 2], "masses": ["1/0", "1/2"]},
        ],
    )
    def test_malformed_instance_shape_exits_2(self, payload, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        code, _, stderr = run_cli(capsys, "build", "--in", path, "--scheme", "final")
        assert code == 2
        assert stderr.startswith("error: invalid instance:")

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

    def test_implausible_scheme_exits_2_with_index(
        self, instance_file, running_example, tmp_path, capsys
    ):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            json.dump(
                {"entries": [{"weight": "1", "support": {"0": "1"}}]}, fh
            )
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", path
        )
        assert code == 2
        assert "value index" in stderr

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

    def test_trace_counts_one_call_per_grid_mass(
        self, instance_file, running_example, tmp_path, capsys
    ):
        # the benchmark's trace wraps the names cli calls; certification
        # must reach each prefix sum and the adversary through them
        out = str(tmp_path / "final.json")
        run_cli(capsys, "build", "--in", instance_file, "--scheme", "final", "--out", out)
        recorder = perfbench_module("tracing").SpanRecorder()
        try:
            recorder.install()
            code, _, _ = run_cli(
                capsys, "verify", "--in", instance_file, "--scheme", out, "--adversary"
            )
        finally:
            recorder.uninstall()
        assert code == 0
        grid = adversary_grid(scheme_surplus(load_scheme(out, running_example)))
        assert recorder.counts["steps.grid_points"] == len(grid)
        assert recorder.counts["oracles.adversary_calls"] == len(grid)

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
        "payload",
        [
            {"entries": 5},
            {"entries": [1]},
            {"entries": [{"weight": "1", "support": ["1/4", "1/4", "1/4", "1/4"]}]},
            {"entries": [{"weight": True, "support": {"0": "1"}}]},
            {"entries": [{"weight": {}, "support": {"0": "1"}}]},
        ],
    )
    def test_malformed_scheme_file_exits_2(self, payload, instance_file, tmp_path, capsys):
        path = str(tmp_path / "bad_scheme.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        code, _, stderr = run_cli(
            capsys, "verify", "--in", instance_file, "--scheme", path
        )
        assert code == 2
        assert stderr.startswith("error: invalid scheme file:")


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

    def test_degenerate_parameter_rejected(self, capsys):
        code, _, stderr = run_cli(capsys, "lowerbound", "buyeropt", "1")
        assert code == 2
        assert "parameter must exceed 1, got 1" in stderr

    @pytest.mark.parametrize("kind", ["buyeropt", "universal"])
    def test_malformed_parameter_exits_2(self, kind, capsys):
        code, stdout, stderr = run_cli(capsys, "lowerbound", kind, "1/0")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")

    def test_epsilon_out_of_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "lowerbound", "universal", "1/50")
        assert code == 2
