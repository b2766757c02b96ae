"""The ``service_mixed`` daemon, in a process of its own.

Started by :class:`rep.DaemonProcess`.  Prints ``{"port": N}`` once the
daemon accepts connections, then answers one-word commands on stdin:
``usage`` -> its CPU seconds and peak RSS so far, ``stop`` (or EOF, when
the parent died) -> shut the daemon down, print the final usage, exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import bootstrap  # noqa: F401  (puts src/ on sys.path)

from repro.obs import trace
from repro.server import PassDaemon


def _usage() -> str:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return json.dumps({"cpu_s": time.process_time(), "rss_kb": peak_kb})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--obs-trace", action="store_true", help="enable repro.obs tracing")
    args = parser.parse_args()
    if args.obs_trace:
        trace.enable()
    daemon = PassDaemon(backend_url="memory://")
    address = daemon.start()
    try:
        print(json.dumps({"port": address.port}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                print(_usage(), flush=True)
            elif command == "stop":
                break
    finally:
        daemon.stop()
    print(_usage(), flush=True)


if __name__ == "__main__":
    main()
