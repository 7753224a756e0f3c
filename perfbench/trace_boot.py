"""Run the affectmtl CLI with every public function of the package traced.

Usage: python3 perfbench/trace_boot.py SPANS_OUT [affectmtl CLI arguments ...]

The spans stay in memory and are written to SPANS_OUT when the process exits.
"""

import atexit
import sys

from tracing import Tracer


def main() -> None:
    out_path = sys.argv[1]
    sys.argv = ["affectmtl"] + sys.argv[2:]
    import affectmtl

    tracer = Tracer()
    tracer.instrument(affectmtl)
    atexit.register(tracer.dump, out_path)
    from affectmtl import cli

    sys.exit(cli.main())


if __name__ == "__main__":
    main()
