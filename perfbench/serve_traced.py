"""Start ``repro serve`` with the service layer hooks installed.

Usage: ``python3 perfbench/serve_traced.py STATS_FILE serve [ARGS...]``

The service_mix traced run launches the server through this file
instead of ``python -m repro``. SIGUSR1 zeroes the totals (the client
sends it after its warm-up request); the totals are written to
STATS_FILE as JSON when the server exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    stats = Path(sys.argv[1])
    from repro import cli

    clock = layers.LayerClock()
    clock.install(layers.SERVICE_HOOKS)
    signal.signal(signal.SIGUSR1, lambda *_: clock.reset())
    try:
        return cli.main(sys.argv[2:])
    finally:
        clock.write(stats)


if __name__ == "__main__":
    sys.exit(main())
