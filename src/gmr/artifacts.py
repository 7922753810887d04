"""The one writer of CSV and JSON artifacts.

CSV files have a header row, CRLF row ends and every number written as
%.17g (a lossless float64 round-trip). JSON files are UTF-8 with sorted
keys, a two-space indent and a trailing newline. Identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json

__all__ = ["write_csv", "write_json"]


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of numbers, formatted as %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(["%.17g" % v for v in row] for row in rows)


def write_json(path, payload: dict) -> None:
    """Write ``payload`` with sorted keys, indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
