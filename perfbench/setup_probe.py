"""One workload's set-up in a fresh interpreter: import macrohom and make
the inputs, then exit.  ``run.py`` times the whole process as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <workdir> <seed> <pulses>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

if __name__ == "__main__":
    name, workdir, seed, pulses = sys.argv[1:5]
    workloads.prepare(name, workdir, int(seed), int(pulses))
