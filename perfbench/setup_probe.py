"""One benchmark set-up in a fresh interpreter, timed by its parent.

Imports poleswap, builds the workload's first input and makes a first small
call, then exits.  ``run.py`` times several of these processes end to end
and reports the median as ``setup_s``, so that work moved into import time
or into the first call shows up there.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap

if __name__ == "__main__":
    if not bootstrap.use_checkout_source():
        sys.exit(2)
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
