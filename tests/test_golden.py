"""Golden CLI outputs: stdout, scheme-file and table bytes must not drift.

The files under ``tests/golden/`` were written once by the CLI, the build
and ``verify_{final,splitmatch}.txt`` files before the construction
pipeline's mass accounting was consolidated, the per-mass tables, the
other verify reports and the lowerbound reports before the certification
code was merged; they are never regenerated, and any byte of difference is
a behaviour change.  ``buyeropt`` is left out because its LP optimum is not
unique.  ``nosignal`` and ``fullreveal`` leave some buyers without surplus,
so their tables carry infinite ratios.
"""

from __future__ import annotations

import os

import pytest

from fairsignal.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
INSTANCES = ("running_example", "fig3")
BUILD_KINDS = ("final", "splitmatch", "fullreveal", "nosignal")
VERIFY_KINDS = ("final", "splitmatch", "nosignal", "fullreveal")
TABLE_FORMATS = ("csv", "json")
LOWERBOUNDS = (("universal", "1/100"), ("buyeropt", "5"))


def golden(instance: str, name: str) -> str:
    return os.path.join(GOLDEN, instance, name)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("kind", BUILD_KINDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_build(instance, kind, tmp_path, capsysbinary):
    out = str(tmp_path / "scheme.json")
    code = main(
        ["build", "--in", golden(instance, "instance.json"), "--scheme", kind, "--out", out]
    )
    assert code == 0
    assert capsysbinary.readouterr().out == read_bytes(golden(instance, f"build_{kind}.txt"))
    assert read_bytes(out) == read_bytes(golden(instance, f"scheme_{kind}.json"))


@pytest.mark.parametrize("kind", VERIFY_KINDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_verify_adversary(instance, kind, capsysbinary):
    code = main(
        [
            "verify", "--in", golden(instance, "instance.json"),
            "--scheme", golden(instance, f"scheme_{kind}.json"), "--adversary",
        ]
    )
    assert code == 0
    assert capsysbinary.readouterr().out == read_bytes(golden(instance, f"verify_{kind}.txt"))


@pytest.mark.parametrize("fmt", TABLE_FORMATS)
@pytest.mark.parametrize("kind", VERIFY_KINDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_verify_adversary_table(instance, kind, fmt, tmp_path):
    out = str(tmp_path / f"table.{fmt}")
    code = main(
        [
            "verify", "--in", golden(instance, "instance.json"),
            "--scheme", golden(instance, f"scheme_{kind}.json"), "--adversary",
            "--out", out, "--format", fmt,
        ]
    )
    assert code == 0
    assert read_bytes(out) == read_bytes(golden(instance, f"table_{kind}.{fmt}"))


@pytest.mark.parametrize("fmt", TABLE_FORMATS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_verify_grid_without_adversary(instance, fmt, tmp_path, capsysbinary):
    out = str(tmp_path / f"table.{fmt}")
    code = main(
        [
            "verify", "--in", golden(instance, "instance.json"),
            "--scheme", golden(instance, "scheme_final.json"), "--grid", "1/4,1/2,1",
            "--out", out, "--format", fmt,
        ]
    )
    assert code == 0
    assert capsysbinary.readouterr().out == read_bytes(golden(instance, "verify_grid_final.txt"))
    assert read_bytes(out) == read_bytes(golden(instance, f"table_grid_final.{fmt}"))


@pytest.mark.parametrize("kind, parameter", LOWERBOUNDS)
def test_lowerbound(kind, parameter, capsysbinary):
    assert main(["lowerbound", kind, parameter]) == 0
    name = f"{kind}_{parameter.replace('/', '_')}.txt"
    assert capsysbinary.readouterr().out == read_bytes(golden("lowerbound", name))
