"""Regenerate reference_counts.json, the class count of every signature the
classify workloads list, at the workloads' base depth and shift bound:

    python3 benchmarks/make_reference.py

The counts are the behaviour contract of `classify`; a change that moves
one must say why, and regenerate this table in the same change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT_ROOT, REFERENCE, import_program

from bench_inputs import BASE_DEPTH, E_BOUND, cert_signatures, classify_op, enum_signatures, sig_key


def main() -> int:
    cli = import_program()
    work = OUT_ROOT / "reference"
    work.mkdir(parents=True, exist_ok=True)
    counts = {}
    try:
        for m, J in enum_signatures() + cert_signatures():
            op = classify_op(m, J, work / "out.json")
            if cli.main(list(op.argv)) != 0:
                print(f"classify {sig_key(m, J)} failed", file=sys.stderr)
                return 1
            counts[sig_key(m, J)] = json.loads(op.out.read_text())["classes"]
            print(sig_key(m, J), counts[sig_key(m, J)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"base_depth": BASE_DEPTH, "e_bound": E_BOUND, "classes": counts},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
