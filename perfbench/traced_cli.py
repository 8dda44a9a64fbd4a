"""Run the aeroforecast CLI with spans recorded around its module calls.

    PERFBENCH_SPANS=<dir> PYTHONPATH=src python perfbench/traced_cli.py grid ...

The wrappers are installed at import time, outside the ``__main__``
check, so a spawn-started pool worker, which re-imports this file as
its main module, records its spans too.  Forked workers inherit them.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

spans.install(spans.Recorder(os.environ["PERFBENCH_SPANS"]))

if __name__ == "__main__":
    from aeroforecast import cli
    sys.exit(cli.main(sys.argv[1:]))
