"""Record the reference reports that default-seed runs are compared against.

Usage (from the root of a checkout)::

    python3 perfbench/record_reference.py [workload ...]

Runs one round of each workload at the default seed, requires every command
to pass its checks, and writes ``perfbench/reference/<workload>.json.gz``,
mapping each command's key (command plus instance bytes) to its report.
Record only from a commit whose output is known to be right.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

import run
import workloads
from instances import InstanceSet


def record(cli, name: str) -> int:
    directory = run.WORK / f"reference-{name}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        ops = workloads.build_ops(workloads.WORKLOADS[name],
                                  InstanceSet(run.DEFAULT_SEED, directory), run.DEFAULT_SEED)
        reports: dict = {}
        rnd = run.run_round(cli.main, ops, directory, {}, reports=reports)
    finally:
        run.remove_workdir(directory)
    if rnd.failures:
        print(f"{name}: {rnd.failures} commands failed their checks; nothing written",
              file=sys.stderr)
        return 1
    run.REFERENCE.mkdir(exist_ok=True)
    path = run.REFERENCE / f"{name}.json.gz"
    payload = json.dumps(reports, separators=(",", ":"), sort_keys=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(payload.encode("utf-8"))
    print(f"{name}: {len(ops)} reports written to {path.relative_to(run.ROOT)}")
    return 0


def main(argv: list[str]) -> int:
    try:
        cli = run.import_program()
    except run.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = argv or sorted(workloads.WORKLOADS)
    status = 0
    for name in names:
        status |= record(cli, name)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
