"""Set-up probe of a library workload.

    PYTHONPATH=src python perfbench/probe.py <workload> <seed>

Imports lplc, generates the workload's corpus and decodes it into the
objects classify_interval takes, then prints the clock: the point where
the first timed operation would start.
"""

import sys

import corpus
import workloads

if __name__ == "__main__":
    problems = corpus.CORPORA[sys.argv[1]](int(sys.argv[2]))
    workloads.build_subjects(problems)
    import time

    print(repr(time.perf_counter()))
