"""Compare two result files written by ``run.py``.

    python3 perfbench/compare.py OLD.json NEW.json

Result files are under ``.perfbench_out/results/``. The comparison is
refused (exit code 2) when the two runs come from different machines
or settings, that is when the machine parts of their fingerprints
differ, or when they ran different workloads or trace modes. Otherwise
every metric is printed with both values and the relative change.
"""

import json
import sys


def load(path):
    with open(path) as handle:
        return json.load(handle)


def refusal(old, new):
    """Why the two results must not be compared, or None."""
    reasons = []
    m_old, m_new = old["fingerprint"]["machine"], new["fingerprint"]["machine"]
    for key in sorted(set(m_old) | set(m_new)):
        if m_old.get(key) != m_new.get(key):
            reasons.append(f"fingerprint {key}: {m_old.get(key)!r} vs {m_new.get(key)!r}")
    if old["fingerprint"]["run"]["workload"] != new["fingerprint"]["run"]["workload"]:
        reasons.append("different workloads")
    if set(old["result"]["metrics"]) != set(new["result"]["metrics"]):
        reasons.append("different metric sets (traced against untraced?)")
    return "; ".join(reasons) or None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    why = refusal(old, new)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    for name, m_old in old["result"]["metrics"].items():
        a, b = m_old["value"], new["result"]["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:40s} {a:12.6g} {b:12.6g} {m_old['unit']:10s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
