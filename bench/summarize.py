"""Summarize saved benchmark outputs: median and quartile spread per metric.

    python3 bench/summarize.py OUT [OUT ...] [--json summary.json]

Each OUT is the stdout of one ``bench/run.py`` run.  Runs are grouped by
workload and trace mode (read from the record line before the result).
For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> tuple[dict, dict]:
    lines = path.read_text().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(paths: list[Path]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[str, dict] = {}
    for path in paths:
        record, result = load(path)
        key = f"{record['workload']} trace={record['trace']}"
        group = groups.setdefault(key, {
            "runs": 0, "all_correct": True, "seeds": [], "environment": record["environment"],
            "fail_frac": set(), "wrong_frac": set(), "values": {},
        })
        group["runs"] += 1
        group["all_correct"] &= result["correct"]
        group["seeds"].append(record["environment"]["seed"])
        group["fail_frac"].add(record["fail_frac"])
        group["wrong_frac"].add(record["wrong_frac"])
        for name, metric in result["metrics"].items():
            group["values"].setdefault(name, (metric["unit"], []))[1].append(metric["value"])

    summary = {}
    for key, group in groups.items():
        metrics = {}
        for name, (unit, values) in group["values"].items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bounds.get(name),
            }
        summary[key] = {
            "runs": group["runs"],
            "seeds": group["seeds"],
            "all_correct": group["all_correct"],
            "fail_frac": sorted(group["fail_frac"]),
            "wrong_frac": sorted(group["wrong_frac"]),
            "environment": {k: v for k, v in group["environment"].items() if k != "seed"},
            "metrics": metrics,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outputs", nargs="+", type=Path)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    summary = summarize(args.outputs)
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, correct={group['all_correct']}, "
              f"fail_frac={group['fail_frac']}, wrong_frac={group['wrong_frac']}")
        for name, m in group["metrics"].items():
            bound = "" if m["bound"] is None else f"bound {m['bound']}"
            print(f"  {name:<48} {m['median']:>14.6g} {m['unit']:<6} spread {m['spread']:.4f} {bound}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
