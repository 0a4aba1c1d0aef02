"""Record the digests of three of the tables workload's cold builds in golden.json.

The tables workload pins ``value_polynomials(80)``, the closed-form
``negative_value_table(60)`` and the Dyck dynamic program at n = 150 to the
digests recorded here; its cross-route checks hold every other cold build to
one of these.  Re-record only when a change is meant to alter those exact
outputs:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json

from workloads import GOLDEN, cold_key, digest, golden_ops


def main() -> None:
    recorded = {cold_key(op): digest(op.fn(*op.args)) for op in golden_ops()}
    GOLDEN.write_text(json.dumps({"tables": recorded}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
