"""Rewrite ``reference.json`` from the current source tree.

    python3 perfbench/record_reference.py

Each workload's first operation at the reference seed is run under the
layer tracer, and its counts (sweeps and type II moves for the solve
workloads, the NEW-method histogram for the swap study, the ratio bins and
exclusions for the accuracy study) are written out.  ``run.py`` fails any
run whose counts differ, so rerun this only for a change that is meant to
alter those counts, and say so in the change.
"""

import bootstrap  # noqa: I001  (pins BLAS threads; must precede numpy)

import json
import sys

if __name__ == "__main__":
    if not bootstrap.use_checkout_source():
        sys.exit(f"no poleswap source under {bootstrap.SRC}")
    import run
    import workloads

    recorded = {}
    for name, wl in workloads.WORKLOADS.items():
        counts, problems = run.reference_check(wl)
        if problems:
            sys.exit(f"{name}: {problems}")
        recorded[name] = counts
    run.REFERENCE_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(json.dumps(recorded, sort_keys=True))
