"""Traced ``switchdwell`` CLI run in a fresh interpreter, so import stays cold.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/cli_driver.py SPANS_FILE run --scenario FILE --out DIR

Imports the package inside an ``import`` span, wraps the public functions
where the CLI looks them up, calls ``switchdwell.cli.main`` with the
remaining arguments inside a ``cli.main`` span, writes the spans to
SPANS_FILE and exits with the CLI's status.
"""

import sys

import spans


def main() -> int:
    spans_file, cli_args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.span("import"):
        import switchdwell.cli
    with tracer.installed(), tracer.span("cli.main"):
        status = switchdwell.cli.main(cli_args)
    tracer.dump(spans_file)
    return status


if __name__ == "__main__":
    sys.exit(main())
