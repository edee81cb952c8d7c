"""Start ``repro.api.serve`` on a free port for the ``serve-mixed`` workload.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/serve_launcher.py --store DIR [--trace OUT.json]

The server prints its address on the first line of standard output and runs
until SIGINT.  With ``--trace`` the launcher installs the benchmark's layer
timers, records telemetry for the whole life of the server (the event-loop
thread in one scope, each executor-thread call in a lane of its own) and
writes it to ``OUT.json`` on the way out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    import repro.api

    if not args.trace:
        repro.api.serve(port=0, store=args.store)
        return

    from repro import obs

    import layers

    lanes = layers.ThreadLanes()
    layers.install_timers(lanes)
    with obs.collect() as session:
        repro.api.serve(port=0, store=args.store)
    document = {"main": session.snapshot(), "lanes": lanes.drain()}
    Path(args.trace).write_text(json.dumps(document))


if __name__ == "__main__":
    main()
