"""Run ``repro server`` with the benchmark's spans ready to install.

Usage: ``python3 perfbench/traced_server.py server --dataset ... ``
(the arguments of ``python3 -m repro.cli``).  The server starts
untraced; SIGUSR1 installs the spans, and the ``metrics`` op then carries
the span totals (see :func:`spans.publish_in_metrics`).
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, publish_in_metrics  # noqa: E402


def main() -> int:
    from repro.cli import main as cli_main

    # Only the totals leave the server (through the metrics op), so it
    # keeps no spans.
    tracer = Tracer(keep_spans=0)
    publish_in_metrics(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.install())
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
