"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/traced_serve.py SPANS.json serve --db DB.fdbp ...

The arguments after SPANS.json are those of ``repro``.  SIGUSR1
writes the span totals so far to ``SPANS.json.mark``; when SIGTERM has
drained the server, the final totals go to ``SPANS.json``.  The
benchmark subtracts the two to get the server's share of its timed
window.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from common import require_program


def _write(path: str, document) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)


def main(argv) -> int:
    require_program()
    import spans
    from repro.cli import main as repro_main

    path, repro_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install_server(tracer)
    signal.signal(
        signal.SIGUSR1,
        lambda signum, frame: _write(path + ".mark", tracer.snapshot()),
    )
    code = repro_main(repro_args)
    _write(path, tracer.snapshot())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
