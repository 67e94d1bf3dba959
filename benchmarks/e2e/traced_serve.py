"""``repro serve`` with a span around each layer's public calls.

    python benchmarks/e2e/traced_serve.py SPANS.json --snapshot snap/ --port 0

Wraps the functions in :data:`tracing.POINTS`, then hands the remaining
arguments to ``repro.cli.main(["serve", ...])``.  Spans stay in memory;
when the server is stopped with SIGINT (or SIGTERM) it drains, ``main``
returns and the spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
