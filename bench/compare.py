"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl

``A`` (the baseline) and ``B`` are files written by
``bench/run.py --out``, one JSON record per run. For every (workload,
metric) pair the script prints both medians with their run counts.
End-to-end rows also get a verdict against the metric's bound in
``BENCHMARK.json``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — A's own quartile spread is wider than the bound, so a
  change of that size cannot be told from noise (unless every run of B
  is better than every run of A, which reads ``ok``);
* ``ok`` — otherwise.

The per-layer values in ``metrics.EXACT`` are gates: a seed run in both
sets must give the same value in both, or the row reads ``changed``.
Other per-layer rows carry no bound and show the change only. The exit
code is 1 when any row regressed or changed or any run failed a check.
"""

import json
import os
import statistics
import sys

if not __package__:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from bench import metrics  # noqa: E402


def load_runs(path):
    """``{(workload, metric): [(seed, value)]}`` and the number of
    failed runs."""
    samples = {}
    failed = 0
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            failed += not record["correct"]
            for name, metric in record["metrics"].items():
                samples.setdefault((record["workload"], name), []).append(
                    (record["seed"], metric["value"])
                )
    return samples, failed


def verdict(base, new, better, bound):
    """``ok``, ``regressed`` or ``unresolved`` for one end-to-end row."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    if base_median and sign * (new_median - base_median) / abs(
            base_median) > bound:
        return "regressed"
    if metrics.spread(base) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        return "ok" if all_better else "unresolved"
    return "ok"


def exact_verdict(base, new):
    """``exact``, ``changed`` or ``unresolved`` (no seed in both sets)
    for one :data:`metrics.EXACT` row of ``(seed, value)`` pairs."""
    def by_seed(pairs):
        values = {}
        for seed, value in pairs:
            values.setdefault(seed, set()).add(value)
        return values

    base_values, new_values = by_seed(base), by_seed(new)
    common = set(base_values) & set(new_values)
    if not common:
        return "unresolved"
    if any(base_values[seed] != new_values[seed] for seed in common):
        return "changed"
    return "exact"


def compare(base_samples, new_samples, spec):
    """Rows of ``(workload, metric, unit, base, new, change, verdict)``
    with ``base`` and ``new`` the value lists."""
    declared = {entry["name"]: entry
                for entry in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(base_samples) & set(new_samples)):
        workload, name = key
        entry = declared.get(name)
        if entry is None:
            continue
        base = [value for _, value in base_samples[key]]
        new = [value for _, value in new_samples[key]]
        base_median = statistics.median(base)
        new_median = statistics.median(new)
        change = ((new_median - base_median) / abs(base_median)
                  if base_median else 0.0)
        if name in metrics.EXACT:
            mark = exact_verdict(base_samples[key], new_samples[key])
        elif "bound" in entry:
            mark = verdict(base, new, entry["better"], entry["bound"])
        else:
            mark = "-"
        rows.append((workload, name, entry["unit"], base, new, change,
                     mark))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = metrics.load_benchmark()
    base_samples, base_failed = load_runs(argv[0])
    new_samples, new_failed = load_runs(argv[1])
    rows = compare(base_samples, new_samples, spec)
    print(f"{'workload':<14} {'metric':<32} {'unit':<6} {'nA':>3} "
          f"{'median A':>12} {'nB':>3} {'median B':>12} {'change':>8} "
          f"{'spread A':>8}  verdict")
    for workload, name, unit, base, new, change, mark in rows:
        print(f"{workload:<14} {name:<32} {unit:<6} {len(base):>3} "
              f"{statistics.median(base):>12.6g} {len(new):>3} "
              f"{statistics.median(new):>12.6g} {100 * change:>+7.1f}% "
              f"{100 * metrics.spread(base):>7.1f}%  {mark}")
    for label, failed in (("A", base_failed), ("B", new_failed)):
        if failed:
            print(f"{label}: {failed} run(s) failed a correctness check")
    bad = any(row[-1] in ("regressed", "changed") for row in rows)
    return 1 if bad or base_failed or new_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
