"""Run ``memtree serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/traced_serve.py --spans spans.npz serve --socket ... [serve args]

Installs the span wrappers of ``tracing.py``, runs the daemon through
``repro.cli.main`` (so SIGTERM shuts it down exactly as it shuts down an
untraced daemon), and writes every span it recorded to ``--spans`` once
the daemon has stopped.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (benchmark-local module)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        raise SystemExit(__doc__)
    spans, argv = sys.argv[2], sys.argv[3:]
    from repro.cli import main as cli_main

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        return cli_main(argv)
    finally:
        restore()
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
