"""Golden CLI outputs: stdout, scheme-file and table bytes must not drift.

The files under ``tests/golden/`` were written once by the CLI, the build
and ``verify_{final,splitmatch}.txt`` files before the construction
pipeline's mass accounting was consolidated, the per-mass tables, the
other verify reports and the lowerbound reports before the certification
code was merged; they are never regenerated, and any byte of difference is
a behaviour change.  ``buyeropt`` is left out because buyer-optimal schemes
are not unique.  ``nosignal`` and ``fullreveal`` leave some buyers without surplus,
so their tables carry infinite ratios.
"""

from __future__ import annotations

import os
import stat

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


# Each file the CLI writes, as the command that writes it to ``out`` and
# the golden file of its bytes.
OUTPUTS = ("scheme", "csv", "json")


def writer(instance: str, what: str, out: str) -> tuple[list[str], str]:
    source = ["--in", golden(instance, "instance.json")]
    if what == "scheme":
        argv = ["build", *source, "--scheme", "final", "--out", out]
        return argv, golden(instance, "scheme_final.json")
    argv = [
        "verify", *source, "--scheme", golden(instance, "scheme_final.json"),
        "--grid", "1/4,1/2,1", "--out", out, "--format", what,
    ]
    return argv, golden(instance, f"table_grid_final.{what}")


# 64 KiB, longer than any golden file, so a stale tail would show; and one
# byte, shorter than any
@pytest.mark.parametrize("old", [bytes(range(256)) * 256, b"x"], ids=["longer", "shorter"])
@pytest.mark.parametrize("what", OUTPUTS)
def test_an_existing_out_is_overwritten_whole(what, old, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(old)
    argv, expected = writer("fig3", what, str(out))
    assert main(argv) == 0
    assert read_bytes(str(out)) == read_bytes(expected)


@pytest.mark.parametrize("what", OUTPUTS)
def test_an_out_through_a_symlink_writes_its_target(what, tmp_path, capsys):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old text, longer than nothing")
    link.symlink_to(target)
    argv, expected = writer("running_example", what, str(link))
    assert main(argv) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert read_bytes(str(target)) == read_bytes(expected)


@pytest.mark.parametrize("what", OUTPUTS)
def test_an_existing_out_keeps_its_mode(what, tmp_path, capsys):
    # a new file would get 0o666 less the umask; an existing one is written
    # in place, not replaced
    out = tmp_path / "out"
    out.write_bytes(b"old")
    out.chmod(0o604)
    argv, expected = writer("running_example", what, str(out))
    assert main(argv) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
    assert read_bytes(str(out)) == read_bytes(expected)


@pytest.mark.parametrize("what", OUTPUTS)
def test_an_out_to_a_device_is_written_without_a_truncate(what, capsys):
    # /dev/null cannot be truncated, so only a regular file is
    argv, _ = writer("running_example", what, os.devnull)
    assert main(argv) == 0
