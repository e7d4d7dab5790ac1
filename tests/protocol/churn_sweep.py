"""Seed sweep of the churn-routing property.

``test_routing_correct_under_churn_and_loss`` checks a fixed handful of
seeds on every run; this script checks an explicit range (0-199 by
default) and names every failing seed::

    PYTHONPATH=src python -m tests.protocol.churn_sweep [first] [stop]

Exits non-zero when any seed fails.
"""

import sys

from tests.protocol.test_shortcuts import check_routing_under_churn


def main(argv):
    first, stop = (int(arg) for arg in argv) if argv else (0, 200)
    failed = []
    for seed in range(first, stop):
        try:
            check_routing_under_churn(seed)
        except Exception as exc:  # every failure kind is a finding
            failed.append(seed)
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
    print(f"{stop - first - len(failed)}/{stop - first} seeds passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
