#!/usr/bin/env python3
"""Turns a span file from a traced run into the layer table.

    python3 perfbench/spans.py .bench_build/perfbench/spans/person-batch-seed1.jsonl

Each line of the file is one span: name, start_us, end_us, id, parent and
owner (the entity or session it served). A span's self time is its
duration minus the time its direct children cover. Spans are grouped by
the name of their root span (core.resolve for the engine drive,
service.client.* / service.manager.* for the daemon legs, data.generate
for set-up); each group lists its span names by self time, with the share
of the group's root time they account for.
"""

import json
import sys
from collections import defaultdict


def layer_table(spans):
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end_us"] - s["start_us"] for s in spans}
    self_us = dict(dur)
    for s in spans:
        if s["parent"] >= 0:
            self_us[s["parent"]] -= dur[s["id"]]

    def root(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s["name"].rsplit(".", 1)[0] if s["name"].startswith(
            "service.") else s["name"]

    groups = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    group_wall = defaultdict(float)
    for s in spans:
        g = root(s)
        row = groups[g][s["name"]]
        row[0] += 1
        row[1] += self_us[s["id"]]
        if s["parent"] < 0:
            group_wall[g] += dur[s["id"]]
    lines = []
    for g in sorted(groups, key=lambda k: -group_wall[k]):
        wall = group_wall[g]
        lines.append(f"{g}  (root time {wall / 1e3:.1f} ms)")
        lines.append(f"  {'span':28s} {'calls':>8s} {'self_ms':>11s} "
                     f"{'ms/call':>10s} {'share':>7s}")
        for name, (calls, us) in sorted(groups[g].items(),
                                        key=lambda kv: -kv[1][1]):
            share = us / wall if wall > 0 else 0.0
            lines.append(f"  {name:28s} {calls:8d} {us / 1e3:11.2f} "
                         f"{us / 1e3 / calls:10.4f} {share:7.1%}")
    return "\n".join(lines)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        spans = [json.loads(line) for line in f if line.strip()]
    print(layer_table(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
