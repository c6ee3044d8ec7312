"""Run one dualpell CLI command with spans, as ``python -m dualpell`` would.

Usage: python3 bench/traced_child.py SPANS_FILE CLI_ARG...

Installs the wrappers from spans.py, calls ``dualpell.cli.main`` and writes
the spans to SPANS_FILE even when the command raises; the exit code and the
traceback are the CLI's own.
"""

import sys
from pathlib import Path

import spans

import dualpell.cli


def main() -> int:
    path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return dualpell.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
