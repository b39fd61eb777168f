"""Set-up probe: interpreter start, import, and one input generation.

``python3 perfbench/probe.py WORKLOAD SEED`` — the benchmark times this
whole process to get ``setup_s`` for the construction workloads.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402  (imports every layer)

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].make_input(int(sys.argv[2]), 0)
