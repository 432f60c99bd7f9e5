#!/usr/bin/env python3
"""Compare an `mgx_run --all --json` artifact against the committed digest.

    check_digest.py RESULTS.json DIGEST.tsv

Every record must have a digest line (workload, platform, scheme) with
exactly the same cycles, traffic breakdown, DRAM accesses and metadata-
cache hits/misses/writebacks. The digest is only read here; it is
regenerated by `mgxbench --make-digest` when a change is meant to move
simulated results. Exits nonzero, listing the differing cells, on any
mismatch or when the artifact does not hold the full 215-cell grid.
"""
import json
import sys

EXPECTED_CELLS = 215


def record_stats(r):
    t = r["traffic"]
    mc = r["metaCache"]
    return (r["cycles"], t["data"], t["expand"], t["mac"], t["vn"],
            t["tree"], r["dramAccesses"], mc["hits"], mc["misses"],
            mc["writebacks"])


def load_digest(path):
    cells = {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            cells[tuple(fields[:3])] = tuple(int(v) for v in fields[3:])
    return cells


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    records = json.load(open(sys.argv[1]))["records"]
    digest = load_digest(sys.argv[2])
    bad = []
    for r in records:
        key = (r["workload"], r["platform"], r["scheme"])
        want = digest.get(key)
        got = record_stats(r)
        if want != got:
            bad.append(f"{'|'.join(key)}: digest {want} run {got}")
    for line in bad:
        print(line)
    print(f"{len(bad)}/{len(records)} cells differ from the digest")
    if len(records) != EXPECTED_CELLS:
        print(f"expected {EXPECTED_CELLS} records")
    if bad or len(records) != EXPECTED_CELLS:
        sys.exit(1)


if __name__ == "__main__":
    main()
