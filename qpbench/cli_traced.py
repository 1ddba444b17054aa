"""Run `qpscat.cli.main` in this fresh process with the span wrappers installed.

    PYTHONPATH=src python3 qpbench/cli_traced.py <spans.jsonl> lap --config c.ini

Used for the traced operations of `guided_lap`; exits with the CLI's code.
"""
import sys

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["qpscat.cli"].main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])
    sys.exit(code)
