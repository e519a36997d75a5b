"""Record the sha256 digests of the shipped-model JSON reports.

The ``shipped`` workload compares every report it produces with these
digests.  They were recorded once, at the commit that introduced the
benchmark; re-record only when a change is meant to alter report bytes:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import DIGESTS, Shipped, run_cli  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for model in Shipped.MODELS:
            digests[model] = {}
            for s in Shipped.SAMPLING_SEEDS:
                path = ROOT / "models" / f"{model}.model"
                code, _, err = run_cli(["analyze", str(path), "--seed", str(s), "--json", str(out)])
                if code != 0:
                    sys.stderr.write(f"{model} --seed {s}: exit {code}: {err}")
                    return 1
                digests[model][str(s)] = hashlib.sha256(out.read_bytes()).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.name}: {len(digests)} models x {len(Shipped.SAMPLING_SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
