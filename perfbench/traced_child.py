"""Run one ``surgerycalc`` command with span recording, for the traced run.

Usage: python3 traced_child.py SPANS_FILE ARG...

Equivalent to ``python -m surgerycalc ARG...`` except that the layers
are wrapped first and the spans, plus one ``cli.import`` span for the
package import, are written to SPANS_FILE as JSON when the command
ends. The exit code is the command's.
"""

import json
import sys

from spans import Tracer


def run(spans_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    span = tracer.open("cli.import")
    import surgerycalc.cli as cli

    tracer.close(span)
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as error:
        code = error.code if isinstance(error.code, int) else 2
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
