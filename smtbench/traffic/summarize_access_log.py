#!/usr/bin/env python3
"""Summarize an `smtstore --access-log` capture for the store-churn workload.

Reads the JSONL access log (one object per request: method, route,
target, status, bytes_in, bytes_out, ...) and writes a JSON document
with the route/status histogram and the per-digest call sequences, in
the order each digest's requests reached the server. The benchmark
replays the most common per-digest sequence as its churn traffic.

The committed fig5-2shard.json was made from a loopback capture of a
2-shard fig5 sweep plus its merge pass:

    smtstore --dir STORE --port 0 --access-log access.jsonl &
    smtsweep-dist --experiment fig5 --shards 2 \\
        --store-url http://127.0.0.1:PORT --cycles 2000 --warmup 1000
    python3 smtbench/traffic/summarize_access_log.py access.jsonl \\
        --source "..." > smtbench/traffic/fig5-2shard.json
"""

import argparse
import collections
import json
import sys


def summarize(records, source):
    histogram = collections.OrderedDict()
    sequences = collections.defaultdict(list)
    for r in records:
        key = (r["method"], r["route"], int(r["status"]))
        h = histogram.setdefault(key, {"count": 0, "bytes_in": 0,
                                       "bytes_out": 0})
        h["count"] += 1
        h["bytes_in"] += int(r.get("bytes_in", 0))
        h["bytes_out"] += int(r.get("bytes_out", 0))
        parts = r["target"].split("/")
        # /v1/<route>/<digest>[/...]: a digest-addressed call.
        if len(parts) >= 4 and len(parts[3]) == 32:
            sequences[parts[3]].append("%s %s %d" % key)

    by_sequence = collections.Counter(" > ".join(s)
                                      for s in sequences.values())
    dominant, _ = by_sequence.most_common(1)[0]
    return {
        "source": source,
        "requests": len(records),
        "histogram": [
            {"method": m, "route": route, "status": status,
             "count": h["count"],
             "mean_bytes_in": round(h["bytes_in"] / h["count"], 1),
             "mean_bytes_out": round(h["bytes_out"] / h["count"], 1)}
            for (m, route, status), h in sorted(histogram.items())
        ],
        "digests": len(sequences),
        "per_digest_sequences": dict(by_sequence.most_common()),
        "per_digest_sequence": dominant.split(" > "),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("access_log")
    ap.add_argument("--source", default="",
                    help="how the capture was made (recorded verbatim)")
    args = ap.parse_args()
    with open(args.access_log) as f:
        records = [json.loads(line) for line in f if line.strip()]
    if not records:
        sys.exit("no requests in %s" % args.access_log)
    json.dump(summarize(records, args.source), sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
