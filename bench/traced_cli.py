"""Run one prior-forge CLI call with the span tracer installed.

    python3 bench/traced_cli.py SPANS.json <prior-forge arguments>

The CLI's stdout and exit code pass through unchanged; the spans are
written to SPANS.json when the call ends.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from prior_forge import cli

    tracer = Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
