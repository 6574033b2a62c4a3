#!/usr/bin/env python3
"""Per-metric deltas between two perfbench results, gated by BENCHMARK.json.

    python3 tools/bench_diff.py OLD NEW        # compare two results
    python3 tools/bench_diff.py --median R...  # fold runs into one result
    python3 tools/bench_diff.py --self-test    # prove the gate still bites

OLD and NEW are files holding a perfbench result: either the captured
stdout of `python3 perfbench/run.py ...` (the last JSON line is the
result line) or a committed BENCH_<workload>.json. Every metric present
in both is printed with its relative change, marked `better` / `worse`
by the direction BENCHMARK.json declares for it.

The exit status is 1 when NEW regresses an end-to-end metric of
BENCHMARK.json by more than that metric's bound (relative to OLD), when
NEW is not `correct`, or when NEW fails a larger share of its attempted
operations than OLD; 0 otherwise. Per-layer metrics are printed, never
gated.

`--median` reads several result files of one workload (one run per seed)
and prints one result object whose metrics are the per-metric medians,
plus the run count: the format of the committed BENCH_<workload>.json
files. `--self-test` injects regressions into a synthetic result and
exits non-zero unless every one is flagged and an in-bound change is
not.
"""

import argparse
import copy
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec(path):
    """Metric name -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads(pathlib.Path(path).read_text())
    metrics = {}
    for m in spec.get("end_to_end", []):
        metrics[m["name"]] = (m["better"], float(m["bound"]))
    for m in spec.get("per_layer", []):
        metrics.setdefault(m["name"], (m["better"], None))
    return metrics


def load_result(path):
    """The last JSON object line of `path` that looks like a result."""
    result = None
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "metrics" in obj and "correct" in obj:
            result = obj
    if result is None:
        # A pretty-printed BENCH_<workload>.json spans several lines.
        try:
            obj = json.loads(pathlib.Path(path).read_text())
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict) and "metrics" in obj:
            result = obj
    if result is None:
        raise SystemExit(f"bench_diff: no perfbench result in {path}")
    return result


def metric_values(result):
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def failed_share(result):
    attempted = float(result.get("attempted", 0) or 0)
    return float(result.get("failed", 0) or 0) / attempted if attempted else 0.0


def diff(old, new, spec):
    """Returns (report lines, regression lines)."""
    lines, regressions = [], []
    old_v, new_v = metric_values(old), metric_values(new)
    width = max((len(n) for n in new_v), default=10)
    for name in sorted(set(old_v) & set(new_v),
                       key=lambda n: (spec.get(n, ("", None))[1] is None, n)):
        a, b = old_v[name], new_v[name]
        better, bound = spec.get(name, (None, None))
        rel = (b - a) / abs(a) if a != 0 else (0.0 if b == a else float("inf"))
        verdict = ""
        if better in ("lower", "higher") and b != a:
            improved = (b < a) == (better == "lower")
            verdict = "better" if improved else "worse"
        gate = f"bound {bound:.0%}" if bound is not None else "per-layer"
        lines.append(f"{name:<{width}}  {a:>14.6g} -> {b:<14.6g} "
                     f"{rel:+8.1%}  {verdict:<6}  ({gate})")
        if bound is None or verdict != "worse":
            continue
        if abs(rel) > bound:
            regressions.append(f"{name} worsened {rel:+.1%} "
                               f"(bound {bound:.0%}): {a:.6g} -> {b:.6g}")
    if not new.get("correct", False):
        regressions.append("new result is not correct")
    if failed_share(new) > failed_share(old):
        regressions.append(f"failed share rose: {failed_share(old):.3%} -> "
                           f"{failed_share(new):.3%}")
    return lines, regressions


def median_result(results):
    names = set.intersection(*(set(r["metrics"]) for r in results))
    out = {
        "correct": all(r.get("correct", False) for r in results),
        "attempted": sum(int(r.get("attempted", 0)) for r in results),
        "failed": sum(int(r.get("failed", 0)) for r in results),
        "runs": len(results),
        "metrics": {},
    }
    for name in sorted(names):
        values = [float(r["metrics"][name]["value"]) for r in results]
        out["metrics"][name] = {
            "value": statistics.median(values),
            "unit": results[0]["metrics"][name].get("unit", ""),
        }
    return out


def self_test(spec):
    """Exits non-zero unless injected regressions are caught."""
    base = {"correct": True, "attempted": 1000, "failed": 0, "metrics": {}}
    for name in spec:
        base["metrics"][name] = {"value": 100.0, "unit": ""}
    gated = [n for n, (_, bound) in spec.items() if bound is not None]
    failures = []

    def check(label, new, want_flag):
        _, regressions = diff(base, new, spec)
        if bool(regressions) != want_flag:
            failures.append(f"{label}: expected "
                            f"{'a regression' if want_flag else 'a pass'}, "
                            f"got {regressions or 'a pass'}")

    check("identical", copy.deepcopy(base), False)
    for name in gated:
        better, bound = spec[name]
        sign = 1 if better == "lower" else -1
        worse = copy.deepcopy(base)
        worse["metrics"][name]["value"] = 100.0 * (1 + sign * 2 * bound)
        check(f"{name} worsened 2x its bound", worse, True)
        within = copy.deepcopy(base)
        within["metrics"][name]["value"] = 100.0 * (1 + sign * bound / 2)
        check(f"{name} worsened half its bound", within, False)
        improved = copy.deepcopy(base)
        improved["metrics"][name]["value"] = 100.0 * (1 - sign * 3 * bound)
        check(f"{name} improved", improved, False)
    wrong = copy.deepcopy(base)
    wrong["correct"] = False
    check("incorrect result", wrong, True)
    failing = copy.deepcopy(base)
    failing["failed"] = 10
    check("more failed operations", failing, True)
    for f in failures:
        print("bench_diff self-test:", f, file=sys.stderr)
    if failures:
        return 1
    print(f"bench_diff self-test passed: {len(gated)} gated metrics, every "
          "injected regression flagged")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", nargs="*", type=pathlib.Path)
    ap.add_argument("--median", action="store_true",
                    help="print the per-metric median of the given results")
    ap.add_argument("--self-test", action="store_true",
                    help="verify injected regressions are flagged")
    args = ap.parse_args()
    spec = load_spec(ROOT / "BENCHMARK.json")
    if args.self_test:
        return self_test(spec)
    if args.median:
        if not args.results:
            ap.error("--median needs at least one result file")
        print(json.dumps(median_result([load_result(p) for p in args.results]),
                         indent=2))
        return 0
    if len(args.results) != 2:
        ap.error("give exactly two result files: OLD NEW")
    old, new = (load_result(p) for p in args.results)
    lines, regressions = diff(old, new, spec)
    for line in lines:
        print(line)
    for r in regressions:
        print("REGRESSION:", r)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
