"""Run one eaqec CLI command traced, for the traced runs of the desk workload.

Usage: python childtrace.py SPANS_JSON <eaqec cli arguments...>

The import of `eaqec.cli` is recorded as a `cli.import` span, the command
runs under the same wrappers as the in-process workloads, and the spans
are written to SPANS_JSON for the parent to merge.  The exit code is the
command's.
"""

import json
import sys

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    token = tracer.open("cli.import")
    import eaqec.cli
    import eaqec.oracle  # noqa: F401  (imported by eaqec.cli; named for the wrappers)

    tracer.close(token)
    tracer.install()
    try:
        rc = eaqec.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.child_doc(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
