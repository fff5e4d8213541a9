"""Traced server launcher: install the layer wrappers, then serve.

``python3 perfbench/launch_serve.py SPANS_PATH --port 0 --shards 2``
runs :func:`repro.server.app.serve` in this process exactly as
``repro serve`` does (same accept loop, same shard threads), with the
benchmark's span wrappers installed first.  On SIGINT the server drains
and the spans are written to ``SPANS_PATH``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    args = parser.parse_args(argv)

    import tracing
    from repro.server import app

    tracer = tracing.Tracer()
    tracing.install(tracer, server=True)
    code = app.serve("127.0.0.1", args.port, shards=args.shards)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
