"""dsim codec benchmark: round-trip throughput per workload, with layer traces.

    python3 perfbench/run.py --workload density-1e6 --seed 7 --seconds 15 --trace 0

See README.md in this directory for the workloads, metrics and traced run.
"""

import sys

import checkout


def main() -> int:
    checkout.use_checkout_sources()
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
