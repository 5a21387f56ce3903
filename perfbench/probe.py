"""Set-up probe: one fresh interpreter pays one workload's start-up.

    python3 perfbench/probe.py WORKLOAD SEED

Times importing ghlab.cli, loading the config and building the
workload's HolomorphicData, and prints {"raw_s": ..., "adjusted_s": ...}
(see hostspeed.py).  run.py starts it with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread variables set to 1.
"""

import json
import sys

from hostspeed import HostClock


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    clock = HostClock()
    with clock.interval():
        from workloads import WORKLOADS

        WORKLOADS[name].setup(seed)
    print(json.dumps({"raw_s": clock.raw[0], "adjusted_s": clock.adjusted[0]}))


if __name__ == "__main__":
    main()
