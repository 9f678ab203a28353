"""Compare two `speclab verify --report` JSON files key by key.

    python scripts/compare_reports.py a.json b.json

Checks are paired by name and occurrence (the second record of a name with
the second), so a record missing on one side is listed as such and does not
shift the pairing of the records after it. Every value must be equal, except
each check's `wall_time`. Prints each difference and exits 1 if there is
one, else prints the number of checks compared and exits 0.
"""

import argparse
import json
import sys
from collections import Counter

IGNORED = "wall_time"


def _by_name(checks):
    """{(name, occurrence): record}, in report order."""
    seen = Counter()
    out = {}
    for check in checks:
        name = check.get("name")
        out[(name, seen[name])] = check
        seen[name] += 1
    return out


def _label(key):
    name, occurrence = key
    return name if occurrence == 0 else f"{name} (#{occurrence + 1})"


def differences(a, b):
    """Lines naming each key whose values differ and each check on one side only."""
    out = []
    for key in sorted(set(a) | set(b)):
        if key != "checks" and a.get(key) != b.get(key):
            out.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    ca, cb = _by_name(a.get("checks", [])), _by_name(b.get("checks", []))
    out += [f"only in a: {_label(k)}" for k in ca if k not in cb]
    out += [f"only in b: {_label(k)}" for k in cb if k not in ca]
    for k, x in ca.items():
        y = cb.get(k)
        if y is None:
            continue
        for key in sorted(set(x) | set(y)):
            if key != IGNORED and x.get(key) != y.get(key):
                out.append(f"{_label(k)} {key}: {x.get(key)!r} != {y.get(key)!r}")
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
