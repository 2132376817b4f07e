"""Golden CLI outputs: stdout and scheme-file bytes must not drift.

The files under ``tests/golden/`` were written once by the CLI before the
construction pipeline's mass accounting was consolidated, and are never
regenerated; any byte of difference is a behaviour change.  ``buyeropt``
is left out because its LP optimum is not unique.
"""

from __future__ import annotations

import os

import pytest

from fairsignal.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
INSTANCES = ("running_example", "fig3")
BUILD_KINDS = ("final", "splitmatch", "fullreveal", "nosignal")
VERIFY_KINDS = ("final", "splitmatch")


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
