"""Traced stand-in for the ``qgspectra`` console script.

Usage: ``python3 bench/cli_boot.py COMMAND [ARGS...]`` with ``src`` on
``PYTHONPATH``.  Times ``import qgspectra``, runs ``qgspectra.cli.main``
with spans and cosine counters installed, then writes the spans as one
JSON line, prefixed with ``SPANS_PREFIX``, as the last line of stderr.
The exit code is the command's own.
"""

import json
import sys

from tracer import CLI_PATCHES, Tracer

SPANS_PREFIX = "qgspectra-bench-spans "


def main() -> int:
    tracer = Tracer()
    with tracer.span("import"):
        import qgspectra.cli
    with tracer.installed(CLI_PATCHES):
        code = qgspectra.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(SPANS_PREFIX + json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
