#!/usr/bin/env python3
"""Start ``repro.serve.app.serve`` with timing wrappers on its layers.

The traced ``serve-online`` run starts the control plane through this
launcher instead of ``python -m repro serve``. It wraps the public
methods of the serving layers (request handling, session stepping, the
write-ahead journal, Prometheus rendering), serves on an ephemeral
loopback port until SIGTERM, and then writes every recorded span to
``--spans-out`` as JSON. The ``src`` directory must be importable
(``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracing import Tracer


def install_wraps(tracer: Tracer) -> None:
    from repro.serve import app
    from repro.serve.journal import SessionJournal
    from repro.serve.session import ControlSession

    tracer.wrap(app.SessionManager, "advance", "serve.app.advance")
    tracer.wrap(ControlSession, "advance", "serve.session.advance")
    tracer.wrap(SessionJournal, "record_advance", "serve.journal.append")
    tracer.wrap(SessionJournal, "compact", "serve.journal.compact")
    # app imported the renderer by name, so the wrapper goes on app.
    tracer.wrap(app, "render_prometheus", "obs.render_prometheus")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    from repro.serve.app import serve

    tracer = Tracer()
    install_wraps(tracer)
    try:
        return serve("127.0.0.1", port=0, journal_dir=args.journal_dir)
    finally:
        tracer.unwrap()
        Path(args.spans_out).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
