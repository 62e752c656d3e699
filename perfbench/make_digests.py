"""Regenerate ``digests.json``, the expected series of the ``series_sides`` ops.

Run from the repository root:  python3 perfbench/make_digests.py

A digest is written only after the series is checked against the
identity's other side: each sum side against its product side, each
s-graded product side against its enumeration side, and the
``ln_series`` slices by summing them to the ``cor22`` enumeration side.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import import_package


def main():
    pkg = import_package()
    out = {}
    summed = set()
    for op in workloads.digest_ops():
        kw = dict(op.kwargs)
        if op.kind == "sum_side":
            series = pkg.sum_side(*op.args)
            other = pkg.product_side(op.args[0], qcap=op.args[1])
        elif op.kind == "product_side":
            series = pkg.product_side(*op.args, **kw)
            other = pkg.enum_side(*op.args, **kw) if "scap" in kw else pkg.sum_side(
                op.args[0], kw["qcap"]
            )
        else:
            n, qcap = op.args
            series = pkg.ln_series(n, qcap)
            if qcap not in summed:
                total = pkg.trivariate_context(qcap).zero()
                for k in range(2 * qcap + 2):
                    total = total + pkg.ln_series(k, qcap)
                if total != pkg.enum_side("cor22", qcap=qcap):
                    sys.exit(f"ln_series slices at cap {qcap} do not sum to the cor22 enumeration")
                summed.add(qcap)
            other = series
        if series != other:
            sys.exit(f"{op.label} disagrees with the other side; no digest written")
        out[op.label] = workloads.series_digest(series)
        print(op.label, out[op.label][:12], flush=True)
    workloads.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
