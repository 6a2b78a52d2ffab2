"""Record the reference outputs the benchmark's correctness gate compares with.

    python3 perfbench/record_references.py [--seeds 20240901 7 1 ...]

Runs every CLI operation of the CLI workloads once per seed (``--jobs 1``
legs only; ``--jobs 2`` must match them byte for byte anyway) and writes
``perfbench/references.json``. The file is recorded from the seed
implementation; re-recording it after a change to the package would
make the gate compare the change with itself.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _parsed(op, res) -> object:
    argv = op.run.args[0]
    command = argv[0]
    if res.code != 0 or res.error:
        raise RuntimeError(f"{op.key}: exit {res.code} {res.error or ''}")
    if command in ("verify", "bounds"):
        return json.loads(res.stdout)
    text = res.stdout
    if command == "figure":
        text = Path(argv[argv.index("--out") + 1]).read_text(encoding="ascii")
    rows, errs = checks.parse_csv(text)
    if errs:
        raise RuntimeError(f"{op.key}: {errs}")
    return rows


def record(seeds: list[int]) -> dict:
    doc = {"fixed": {}, "seeds": {}}
    for seed in seeds:
        by_workload = doc["seeds"].setdefault(str(seed), {})
        for cls in (workloads.CampaignSmall, workloads.CampaignLarge,
                    workloads.SweepFixedPair):
            with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
                wl = cls(seed, Path(workdir))
                wl.setup()
                for op in wl.ops(traced=True):
                    value = _parsed(op, op.run())
                    if op.key.startswith("figure"):
                        doc["fixed"][op.key] = value
                    else:
                        by_workload.setdefault(wl.name, {})[op.key] = value
    return doc


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[20240901, 7, 1, 2, 3, 4, 5, 6, 8, 9])
    args = parser.parse_args()
    references = record(args.seeds)
    workloads.REFERENCES.write_text(json.dumps(references, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCES} for seeds {args.seeds}")
