#!/usr/bin/env python3
"""Per-technique sums of every integer field of a study's telemetry JSONL.

Usage:
  python3 tools/telemetry_sums.py STUDY.jsonl            # print the sums
  python3 tools/telemetry_sums.py STUDY.jsonl --check F  # compare with F

Each line of `evaluate --telemetry` is one study row.  Integer fields are
summed per `technique`, nested objects (`oracle`, `sat`, `eval`, `spaces`)
under dotted names; booleans, strings, the float `elapsed_ms` and the
`phases` timers are not counters and are skipped, as is a final
`{"scheduler":...}` line.  `--check` exits 1 unless the sums equal the
committed file's (artifacts/study_sample1_counters.json holds those of
`evaluate --sample 1 --jobs 1`).
"""
import json
import sys


def ints(obj, prefix=""):
    for key, value in obj.items():
        if type(value) is int:
            yield prefix + key, value
        elif isinstance(value, dict) and key != "phases":
            yield from ints(value, prefix + key + ".")


def sums(path):
    out = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if "technique" not in row:
                continue
            acc = out.setdefault(row["technique"], {})
            for key, value in ints(row):
                acc[key] = acc.get(key, 0) + value
    return out


def main(argv):
    got = sums(argv[1])
    if len(argv) == 4 and argv[2] == "--check":
        with open(argv[3]) as f:
            want = json.load(f)
        diffs = [
            (t, k, want.get(t, {}).get(k), got.get(t, {}).get(k))
            for t in sorted(set(want) | set(got))
            for k in sorted(set(want.get(t, {})) | set(got.get(t, {})))
            if want.get(t, {}).get(k) != got.get(t, {}).get(k)
        ]
        for t, k, w, g in diffs:
            print("%s %s: expected %s, got %s" % (t, k, w, g))
        print("Telemetry sums: %d techniques, %d differences" % (len(got), len(diffs)))
        return 1 if diffs else 0
    # one technique per line, so a diff of the committed file names the row
    print("{\n" + ",\n".join(
        " %s: %s" % (json.dumps(t), json.dumps(got[t])) for t in got) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
