"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads fit-medium,...]
                                 [--trace 0] [--out summary.json]

Each run is a fresh `perfbench/run.py` process. For every metric this
prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, and it checks that every run was
correct. `--out` writes the summary, artifact fingerprints per seed
included, in the layout of perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    detail = ROOT / ".perfbench" / f"{workload}-s{seed}-t{trace}" / "result.json"
    return line, json.loads(detail.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"metrics": {}, "fingerprints": {}, "provenance": None,
               "run_seconds": args.seconds, "seeds": args.seeds}
    all_correct = True
    for workload in args.workloads.split(","):
        values, prints = {}, {}
        for seed in args.seeds:
            line, detail = run_once(workload, seed, args.seconds, args.trace)
            all_correct &= line["correct"]
            prints[str(seed)] = detail["fingerprints"]
            summary["provenance"] = detail["provenance"]
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {shown}", flush=True)
        stats = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else None
            stats[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals),
                           "spread": spread}
            print(f"  {workload:16s} {name:32s} median {median:14.6g} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {spread}")
        summary["metrics"][workload] = stats
        summary["fingerprints"][workload] = prints
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("all runs correct" if all_correct else "SOME RUNS INCORRECT")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
