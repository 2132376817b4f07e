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
CSV table adds a 12-decimal rounding of each for plotting.
"""

from __future__ import annotations

import csv
import decimal
import json
from typing import Mapping, Sequence

from .market import (
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    pair_text,
    rational_pair,
)


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


def _dump_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(payload) + "\n")


def _is_object(x) -> bool:
    """True for a JSON object; a parsed one is a plain dict, tested first."""
    return type(x) is dict or isinstance(x, Mapping)


def _is_array(x) -> bool:
    """True for a JSON array; a string is a Sequence but not an array."""
    return isinstance(x, Sequence) and not isinstance(x, (str, bytes))


def payload_to_instance(payload) -> ValueDistribution:
    if not _is_object(payload):
        raise MarketError("instance file must hold an object")
    try:
        values = payload["values"]
        masses = payload["masses"]
    except KeyError as missing:
        raise MarketError(f"instance file lacks key {missing}") from None
    if not _is_array(values) or not _is_array(masses):
        raise MarketError("values and masses must be arrays")
    return ValueDistribution.from_pairs(values, masses)


def load_instance(path: str) -> ValueDistribution:
    return payload_to_instance(_load_json(path))


def payload_to_scheme(dist: ValueDistribution, payload) -> SignalingScheme:
    if not _is_object(payload) or not _is_array(payload.get("entries")):
        raise MarketError("scheme file must hold an object with an entries array")
    entries = []
    for entry in payload["entries"]:
        if (
            not _is_object(entry)
            or "weight" not in entry
            or not _is_object(entry.get("support"))
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scheme_text(scheme) + "\n")


def write_majorization_table(path: str, rows: Sequence[Mapping], fmt: str) -> None:
    """Per-mass certification rows (see cli.certify) as ``csv`` or ``json``."""
    if fmt == "json":
        _dump_json([{k: as_text(v) for k, v in row.items()} for row in rows], path)
        return
    fields = [
        "m",
        "integration_prefix",
        "sorted_prefix",
        "adversary_prefix",
        "ratio",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = []
        for f in fields:
            header += [f, f + "_decimal"]
        writer.writerow(header)
        for row in rows:
            out = []
            for f in fields:
                val = row.get(f)
                if val is None:
                    out += ["", ""]
                else:
                    out += [as_text(val), decimal_str(val)]
            writer.writerow(out)
