"""Traced launcher for the ``repro run`` / ``repro serve`` children.

Usage: ``python perfbench/launch.py EVENTS.json ROLE -- REPRO-ARGS...``

Installs the :mod:`perfbench.tracer` wrappers for ``ROLE``, calls
``repro.cli.main(REPRO-ARGS)`` and writes the recorded call events to
``EVENTS.json`` when the command returns (for ``serve``: after SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, role, repro_args = argv[0], argv[1], argv[3:]
    recorder = tracer.Recorder()
    tracer.install(recorder, role)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
