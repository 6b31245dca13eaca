"""Run the lplc CLI with spans around its layers, for the traced cli rounds.

    PYTHONPATH=src python perfbench/cli_child.py <lplc arguments>

Behaves as `python -m lplc.cli <arguments>` on stdin, stdout and the exit
code, and then writes one JSON line to stderr: the clock at the first
statement, the spans (cli.import, cli.main and the layers under it) and
the counters.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    import lplc.cli

    t1 = time.perf_counter()
    import tracer

    rec = tracer.Recorder()
    rec.add("cli.import", t0, t1)
    tracer.install(rec)
    idx = rec.begin("cli.main")
    code = lplc.cli.main(sys.argv[1:])
    sys.stdout.flush()
    rec.end(idx)
    sys.stderr.write("\n" + json.dumps({"t_start": T_START, "spans": rec.spans, "counts": rec.counts}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
