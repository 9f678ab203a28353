"""Compare two `speclab verify --report` JSON files key by key.

    python scripts/compare_reports.py a.json b.json

Every value must be equal, except each check's `wall_time`. Prints each
difference and exits 1 if there is one, else prints the number of checks
compared and exits 0.
"""

import argparse
import json
import sys

IGNORED = "wall_time"


def differences(a, b):
    """Lines naming each key whose values differ."""
    out = []
    for key in sorted(set(a) | set(b)):
        if key != "checks" and a.get(key) != b.get(key):
            out.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    ca, cb = a.get("checks", []), b.get("checks", [])
    if len(ca) != len(cb):
        out.append(f"checks: {len(ca)} records != {len(cb)}")
    for k, (x, y) in enumerate(zip(ca, cb)):
        for key in sorted(set(x) | set(y)):
            if key != IGNORED and x.get(key) != y.get(key):
                out.append(f"checks[{k}] {x.get('name')} {key}: "
                           f"{x.get(key)!r} != {y.get(key)!r}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    diff = differences(a, b)
    for line in diff:
        print(line)
    if diff:
        return 1
    print(f"equal: {len(a.get('checks', []))} checks ({IGNORED} ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
