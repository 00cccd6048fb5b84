"""Check the JSON reports of a CLI corpus against the standard library's encoder.

Usage::

    python tests/check_corpus_json.py OUTDIR

OUTDIR holds the records that ``tests/cli_corpus.py`` wrote.  For every
command that exited 0 and wrote JSON (all but ``--csv``), the report, from
standard output or from the ``--out`` file, must be exactly
``json.dumps(json.loads(text), indent=2, allow_nan=False) + "\\n"``: the byte
contract of ``l0landscape.writer``, checked with whatever Python runs this.

Exits 1 when any report differs, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _report(record: str) -> str | None:
    """The JSON report of one record, or ``None`` when the command wrote none."""
    head, _, rest = record.partition("\n--- stdout\n")
    argv, code = head.split("\n")
    if code != "exit: 0" or "--csv" in argv.split():
        return None
    stdout, _, rest = rest.partition("--- stderr\n")
    _, _, out_file = rest.partition("--- out file\n")
    return out_file if "--out" in argv.split() else stdout


def main(outdir: Path) -> int:
    checked = differ = 0
    for path in sorted(outdir.iterdir()):
        text = _report(path.read_text())
        if text is None:
            continue
        checked += 1
        if text != json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n":
            differ += 1
            print(f"{path.name}: report differs from json.dumps", file=sys.stderr)
    print(f"{checked} JSON reports checked, {differ} differ")
    return 1 if differ or not checked else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(Path(sys.argv[1])))
