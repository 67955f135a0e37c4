"""Run one ntdice command with layer tracing, for the traced ``cli`` passes.

Usage: python traced_cli.py SPANS_FILE ARG...

Behaves as ``python -m ntdice ARG...`` (same stdout and exit code) and
writes the process's spans and counters to SPANS_FILE as JSON when the
command returns.
"""

import json
import sys

import ntdice.cli
import tracing


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install(sys.modules)
    try:
        code = ntdice.cli.main(argv)
    finally:
        sys.stdout.flush()
        rows, counters = tracer.take()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "counters": counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
