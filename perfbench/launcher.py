"""Run `isacnet.cli.main(argv)` under the tracer and save what it recorded.

Usage: python3 perfbench/launcher.py SUMMARY.json SPANS.npz OP_ID -- CLI ARGS...

The benchmark starts each traced `figure` invocation through this file
instead of `python -m isacnet.cli`, so the wrappers are in place before the
CLI runs.  The summary (counts, self and inclusive times, simulator
statistics) goes to SUMMARY.json and the raw spans to SPANS.npz.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    summary_path, spans_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py SUMMARY.json SPANS.npz OP_ID -- ARGS...")
    import isacnet.cli

    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    try:
        code = isacnet.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
