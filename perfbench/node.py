"""Start a ``repro serve`` node with the benchmark's layer wrappers installed.

    python3 perfbench/node.py --spans FILE [--cache DIR] [--max-workers N]

Like ``python3 -m repro serve --port 0 --once``: it announces its ephemeral
port on stdout, serves one connection, and exits when that connection
closes. Before exiting it writes the spans it recorded to FILE.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--max-workers", type=int, default=None)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.service.server import run_server

    try:
        return run_server(
            port=0, cache_dir=args.cache, max_workers=args.max_workers, once=True
        )
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
