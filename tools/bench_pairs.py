"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent REF --out BENCH_<n>.json [--pairs 10]

Run from the repository root. REF is exported (``git archive``) into a
temporary directory; the change is the working tree itself. For every
workload ``BENCHMARK.json`` lists, each pair runs its ``command`` with
``--workload NAME`` once in both trees (perfbench's own defaults for the
seed, the run length and tracing), the parent first in even pairs and
the change first in odd ones, so a drift of the host's speed does not
favour either side. The output holds, per workload, every run's
``record`` line and result line, the per-metric quartiles and median of
both sides, the change/parent ratio of the medians and, for the metrics
``BENCHMARK.json`` lists as end-to-end, in how many pairs the change was
better. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(record, result) of one perfbench run's standard output: the last
    ``record {...}`` line and the last line, a JSON object."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    records = [ln for ln in lines if ln.startswith("record ")]
    if not records:
        raise ValueError("perfbench printed no record line")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the last line is not a perfbench result")
    return json.loads(records[-1][len("record "):]), result


def quartiles(results: list[dict]) -> dict:
    """[first quartile, median, third quartile] of every metric present
    in all of `results`; the quartiles of a single run are its value."""
    names = set.intersection(*(set(r["metrics"]) for r in results)) if results else set()
    out = {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = [q1, statistics.median(values), q3]
    return out


def wins(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Pairs in which the change's value beat the parent's, per metric
    whose direction ('lower' or 'higher') is given in `better`."""
    out = {}
    for name, direction in better.items():
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if pairs:
            sign = -1.0 if direction == "lower" else 1.0
            out[name] = f"{sum(sign * (c - p) > 0 for p, c in pairs)}/{len(pairs)}"
    return out


def summarize(runs: list[dict], better: dict) -> dict:
    """Quartiles, ratios of the medians and wins of one workload's runs
    (each a dict with 'tree', 'pair' and 'result')."""
    side = {t: [r["result"] for r in sorted(runs, key=lambda r: r["pair"]) if r["tree"] == t]
            for t in ("parent", "change")}
    q = {t: quartiles(side[t]) for t in side}
    ratio = {n: q["change"][n][1] / q["parent"][n][1]
             for n in q["change"] if n in q["parent"] and q["parent"][n][1]}
    return {"quartiles": q, "ratio_of_medians": ratio,
            "change_better_pairs": wins(side["parent"], side["change"], better)}


def _git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", ref], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, command: list[str], workload: str):
    cmd = [*command, "--workload", workload]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_sha = _git("rev-parse", args.parent)
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    out = {"parent": parent_sha,
           "change": _git("rev-parse", "HEAD") + (" + working tree" if dirty else ""),
           "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_tree = Path(tmp)
        _export(parent_sha, parent_tree)
        trees = {"parent": parent_tree, "change": root}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for tree in order:
                    record, result = _run(trees[tree], spec["command"], workload)
                    runs.append({"tree": tree, "pair": pair, "record": record,
                                 "result": result})
                    print(f"{workload} pair {pair} {tree}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}", flush=True)
            out["workloads"][workload] = {"runs": runs, **summarize(runs, better)}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
