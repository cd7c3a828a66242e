"""Rewrite golden.json: digests of pass 0 of every workload at the reference seed.

Run only when a change is meant to alter container bytes or decoded samples;
a speed-up must leave them as they are.

    python3 perfbench/record_golden.py
"""

import sys

import checkout


def main() -> int:
    checkout.use_checkout_sources()
    import bench

    bench.record_golden()
    return 0


if __name__ == "__main__":
    sys.exit(main())
