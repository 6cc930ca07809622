"""Run one trxsave CLI stage with layer spans recorded.

Usage: python3 bench/traced_cli.py SPANS_JSON STAGE [STAGE OPTIONS...]

Wraps the layer functions (see ``tracing.install``) before it calls
``trxsave.cli.main`` and writes the spans to SPANS_JSON when the stage ends,
whether it succeeds or exits with an error code. The caller puts the
repository's ``src`` directory on PYTHONPATH.
"""

import json
import sys

import tracing


def main(argv: list[str]) -> None:
    spans_path, stage = argv[0], argv[1]
    tracer = tracing.Tracer()
    tracing.install(tracer, stage)
    from trxsave import cli

    try:
        cli.main(argv[1:], prog_name="trxsave")
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    main(sys.argv[1:])
