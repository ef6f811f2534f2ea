"""Run one ``cptwb`` command with every cptwb layer traced.

    python3 perfbench/cli_traced.py STEM COMMAND [ARGS...]

Stands in for ``python -m cptwb.cli COMMAND [ARGS...]`` in the traced run
of the ``cli_multcheck`` workload: stdout and the exit code are the CLI's
own.  At exit it writes the spans to ``STEM.npz`` and their summary to
``STEM.json``.  Needs the checkout's ``src`` on ``PYTHONPATH``.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from cptwb import cli

    tracer.current_op = 0
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
    tracer.write(stem + ".npz", {"argv": argv})
    with open(stem + ".json", "w") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
