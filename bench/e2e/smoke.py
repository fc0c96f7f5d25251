#!/usr/bin/env python3
"""Smoke test for drs_bench: every workload at 1/50 of its units (--quick).

    smoke.py DRS_BENCH BENCHMARK_JSON [--sabotage]

Without --sabotage, each workload must exit 0 untraced and traced, print
exactly BENCHMARK.json's end_to_end metrics (untraced) or per_layer metrics
(traced) with their units, and, when traced, write a Chrome trace whose
spans share one run id and link to existing parents.

With --sabotage each workload's output check is broken on purpose, and the
run must exit 1 with "correct": false: every check can fail.
"""
import json
import pathlib
import subprocess
import sys
import tempfile


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_trace(path):
    trace = json.loads(pathlib.Path(path).read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    if not spans:
        return "trace has no spans"
    ids = {e["args"]["span_id"] for e in spans}
    if len({e["args"]["run_id"] for e in spans}) != 1:
        return "spans carry more than one run id"
    orphans = [e for e in spans if e["args"]["parent_id"] not in ids | {0}]
    return f"{len(orphans)} spans name a missing parent" if orphans else None


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    sabotage = "--sabotage" in sys.argv[3:]
    spec = json.loads(pathlib.Path(spec_path).read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for traced in (False,) if sabotage else (False, True):
                label = f"{workload}{' traced' if traced else ''}"
                trace_path = pathlib.Path(tmp) / f"{workload}.trace.json"
                cmd = [binary, "--workload", workload, "--seed", "7", "--quick"]
                if traced:
                    cmd += ["--trace-out", str(trace_path)]
                if sabotage:
                    cmd.append("--sabotage")
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
                result = result_line(proc.stdout)
                if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{label}: no result line")
                    continue
                if sabotage:
                    if proc.returncode != 1 or result["correct"]:
                        problems.append(f"{label}: sabotaged check still passed")
                    continue
                if proc.returncode != 0 or not result["correct"]:
                    problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[traced]:
                    problems.append(f"{label}: metrics {units} != BENCHMARK.json's")
                if traced and (why := check_trace(trace_path)):
                    problems.append(f"{label}: {why}")
    for problem in problems:
        print(problem)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
