"""Run one nclab CLI request with every public nclab function traced.

    python -X importtime nclbench/launcher.py SPANS_FILE REQUEST_ID -- ARGS...

behaves like `python -m nclab ARGS...` (same output, same exit code) and
writes the spans of the request to SPANS_FILE as JSON when it exits.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_file, request_id, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE REQUEST_ID -- ARGS...")
    import nclab.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = nclab.cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.records(request_id), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
