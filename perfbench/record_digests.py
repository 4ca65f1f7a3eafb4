"""Record the output digests that stand in for a closed-form reference.

The sim classes of endo3 and endo4, and the `lpa sg` reports on endo3,
have no closed form; the benchmark checks them against digests of the
output of the seed commit, which this script writes to digests.json.  Run
it only on a commit whose output is known to be right:

    PYTHONPATH=src python3 perfbench/record_digests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import lpatrace as lpa
import lpatrace.cli as lpa_cli

import workloads as W


def main() -> None:
    digests = {}
    for n in (3, 4):
        G = lpa.parse_cayley(W.cayley_text(W.endo(n), 0))
        digests[f"semigroups.endo{n}"] = W.sim_partition_digest(lpa.sim_classes(G).classes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "endo3.cayley"
        path.write_text(W.cayley_text(W.endo(3), 0), encoding="utf-8")
        for action in ("classes", "minimal"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                lpa_cli.main(["sg", str(path), action])
            result = json.loads(out.getvalue())["result"]
            digests[f"cli.sg.{action}.endo3"] = W.short_hash(json.dumps(result, sort_keys=True))
    W.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
