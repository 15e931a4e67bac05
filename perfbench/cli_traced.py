"""Run one qchansim CLI call, or a bare import, with span tracing on.

Usage: python cli_traced.py SPANS_OUT ITEM_ID [CLI ARGS...]

Writes the spans as JSON to SPANS_OUT and exits with the CLI's exit code.
The parent benchmark places them under its span for this subprocess.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_out, item_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.item_id = item_id
    with tracer.span("import.qchansim"):
        import qchansim
    code = 0
    if argv:
        with tracer.span("import.qchansim_cli"):
            import qchansim.cli
        with tracer.installed(), tracer.span("cli.main"):
            code = qchansim.cli.main(argv)
    Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
