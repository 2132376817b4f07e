"""Instance and scheme files, plus the majorization table as CSV or JSON.

Rationals are serialized as "p/q" strings so nothing is lost to decimal
rounding; on input, plain numbers and decimal strings are also accepted
and converted exactly.  Every JSON output shares one layout
(``json_text``); `scheme_text` writes it for a scheme straight from the
signals' int-pair shares and weights, and `load_scheme` reads each back
into one (`market.rational_pair`).  The loaders raise MarketError for
any content they cannot read and OSError only when the file cannot be
opened.  Reports and tables write each value in one text form
(``as_text``): a table cell is the exact rational or ``inf``, and the
CSV table adds a 12-decimal rounding of each for plotting.  Every file
the CLI writes, the scheme file and both tables, is built whole and then
written by one writer, ``_write_text``, which overwrites an existing file
in place.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import os
import stat
from typing import Sequence

from .market import (
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    pair_text,
    rational_pair,
)

# the columns of a majorization table row, in order; a row without a
# rival holds the first three
TABLE_FIELDS = ("m", "integration_prefix", "sorted_prefix", "adversary_prefix", "ratio")


def decimal_str(x) -> str:
    """12-decimal rounding of a rational or float, for plot axes.

    A rational beyond float range is rounded exactly to 17 significant
    digits instead, written like a float's repr (``1.25e+400``).
    """
    try:
        return repr(round(float(x), 12))
    except OverflowError:
        with decimal.localcontext() as ctx:
            ctx.prec = 17
            d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
            return str(d.normalize()).replace("E", "e")


def as_text(x) -> str:
    """The one text form of a reported value, in reports and tables alike.

    A flag is ``true`` or ``false``; anything else, an exact rational or
    an infinite ratio (``inf``), is written by ``str``.
    """
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def json_text(payload) -> str:
    """The one JSON layout of every file and report: sorted keys, indent 2."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice raises MarketError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MarketError(f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # number literals go through as_fraction, so its length guards hold
            return json.load(fh, parse_float=as_fraction, object_pairs_hook=_unique_keys)
        except ValueError as e:  # undecodable bytes, bad JSON, an overlong integer
            raise MarketError(str(e)) from None
        except RecursionError:
            raise MarketError("JSON nested deeper than the parser allows") from None


def _write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``; the one writer of every output file.

    A truncate to zero makes ext4, XFS and btrfs flush the file on close
    (0.2-0.5 ms a file on an ext4 VM), so an existing file is written in
    place from its start and, if regular, cut to the written length (a
    device such as /dev/null cannot be cut); a symlink is followed and the
    mode bits kept.  Callers build the whole text first, so a text that
    cannot be built leaves the file as it was.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def payload_to_instance(payload) -> ValueDistribution:
    if not isinstance(payload, dict):
        raise MarketError("instance file must hold an object")
    try:
        values = payload["values"]
        masses = payload["masses"]
    except KeyError as missing:
        raise MarketError(f"instance file lacks key {missing}") from None
    if not isinstance(values, list) or not isinstance(masses, list):
        raise MarketError("values and masses must be arrays")
    return ValueDistribution.from_pairs(values, masses)


def load_instance(path: str) -> ValueDistribution:
    return payload_to_instance(_load_json(path))


def payload_to_scheme(dist: ValueDistribution, payload) -> SignalingScheme:
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise MarketError("scheme file must hold an object with an entries array")
    entries = []
    for entry in payload["entries"]:
        if (
            not isinstance(entry, dict)
            or "weight" not in entry
            or not isinstance(entry.get("support"), dict)
        ):
            raise MarketError("each scheme entry must hold a weight and a support object")
        weight = rational_pair(entry["weight"])
        shares = []
        for i, f in entry["support"].items():
            # the writer's keys are ASCII digits; int() would also read
            # "1_0", " 3", "+2" and other scripts' digits
            if not (i.isascii() and i.isdigit()):
                raise MarketError(f"support index {i!r} is not written in ASCII digits")
            try:
                index = int(i)
            except ValueError as e:  # digits past the int/str conversion limit
                raise MarketError(str(e)) from None
            shares.append((index, rational_pair(f)))
        entries.append((Signal(dist, tuple(shares)), weight))
    return SignalingScheme(dist, tuple(entries))


def load_scheme(path: str, dist: ValueDistribution) -> SignalingScheme:
    return payload_to_scheme(dist, _load_json(path))


def scheme_text(scheme: SignalingScheme) -> str:
    """The scheme's JSON in ``json_text``'s layout, written straight from
    the shares and weights: an object whose ``entries`` each hold a
    ``support`` (index to share) and a ``weight``.  No key or rational in
    it needs escaping; support keys sort as strings, as ``sort_keys``
    sorts them ("10" before "2")."""
    entries = []
    for signal, (wn, wd) in scheme.entries:
        support = sorted((str(i), pair_text(n, d)) for i, (n, d) in signal.shares)
        lines = ",\n".join(f'        "{i}": "{f}"' for i, f in support)
        weight = pair_text(wn, wd)
        entries.append(
            f'    {{\n      "support": {{\n{lines}\n      }},\n      "weight": "{weight}"\n    }}'
        )
    return '{\n  "entries": [\n' + ",\n".join(entries) + "\n  ]\n}"


def save_scheme(scheme: SignalingScheme, path: str) -> None:
    """The scheme file: `scheme_text` and a newline."""
    _write_text(path, scheme_text(scheme) + "\n")


def write_majorization_table(path: str, rows: Sequence[tuple], fmt: str) -> None:
    """Rows of `cli.certify` as ``csv`` or ``json``.  A row without a rival's
    columns leaves them blank in CSV and omits them in JSON."""
    if fmt == "json":
        table = [{k: as_text(v) for k, v in zip(TABLE_FIELDS, row)} for row in rows]
        _write_text(path, json_text(table) + "\n")
        return
    blank = ["", ""] * len(TABLE_FIELDS)
    sheet = io.StringIO(newline="")  # the csv module's "\r\n" ends each row
    writer = csv.writer(sheet)
    writer.writerow([name for f in TABLE_FIELDS for name in (f, f + "_decimal")])
    for row in rows:
        cells = [text for v in row for text in (as_text(v), decimal_str(v))]
        writer.writerow(cells + blank[len(cells):])
    _write_text(path, sheet.getvalue())
