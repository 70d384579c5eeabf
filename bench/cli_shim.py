"""Run one CLI command in a fresh interpreter with spans recorded.

Usage: python3 bench/cli_shim.py SPANS_JSON ARGV...

Behaves like `virtualspin ARGV...` (same output, exit code and uncaught
tracebacks) and writes the spans and counters of the call to SPANS_JSON
when it ends.  cli-cold uses it for its traced calls.
"""

import json
import sys

import spans
from virtualspin import cli


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse usage errors and --version
        return exc.code
    finally:
        tracer.uninstall()
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)


if __name__ == "__main__":
    sys.exit(main())
