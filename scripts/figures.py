#!/usr/bin/env python3
"""Render the paper's red-black-tree figure tables from bench_suite results.

    figures.py RESULTS.json                 print every table that has points
    figures.py RESULTS.json --write FILE    rewrite FILE's generated blocks

RESULTS.json is a document written by `bench_suite --tier paper` (any tier
works; tables without points are left out). Each table below is a
declarative spec:

  where  field values every point of the table has; a list means "one of"
         and also orders that field's rows
  rows   the fields whose values label a row
  cols   one spec per column: its header, the metric, `pick` (field values
         the column adds to the row's) and, for a ratio, `ref` (field values
         that replace the picked ones to find the reference point)

A selector value of None means the key is absent. A point is selected only
if its selector names every override key it carries (a key outside BASE),
so a Ch. 7 extension point never stands in for plain HLE. Points are found
by field values, never by their `figure` label. A cell whose point or
reference point is missing, or matched twice, is an error (exit 1).

In FILE, a block runs from `<!-- figures.py BLOCK -->` to
`<!-- figures.py end -->`; --write replaces its body with the block's
tables, and fails if one renders nothing.
"""
import json
import sys

BASE = {"id", "tier", "figure", "kind", "lock", "scheme", "size",
        "update_pct", "threads", "seeds", "duration_sec", "seed",
        "telemetry", "metrics"}

# Every table's defaults: the registry's 8-thread, 3 ms RB points.
DEFAULTS = {"kind": "rb", "threads": 8, "duration_sec": 0.003}

# name: (value of one point, decimals, scale)
METRICS = {
    "mops": (lambda p, ghz: throughput(p, ghz), 2, 1e-6),
    "speedup": (lambda p, ghz: throughput(p, ghz), 2, 1.0),
    "attempts": (lambda p, ghz: p["metrics"]["attempts"] / p["metrics"]["ops"],
                 2, 1.0),
    "nonspec": (lambda p, ghz: p["metrics"]["nonspec_fraction"], 3, 1.0),
}

MIXES = [0, 20, 100]
SIZES = [2, 8, 32, 128, 512, 2048, 8192, 32768]
TTAS_MCS = ["TTAS", "MCS"]


def col(head, metric, pick=None, ref=None):
    return {"head": head, "metric": metric, "pick": pick or {}, "ref": ref}


def speedups(schemes, ref):
    return [col(s, "speedup", {"scheme": s}, {"scheme": ref}) for s in schemes]


TABLES = [
    {"block": "fig3.4", "title": "HLE speedup over the standard lock, 4 threads",
     "where": {"threads": 4, "update_pct": MIXES, "lock": TTAS_MCS,
               "size": SIZES},
     "rows": ["update_pct", "lock", "size"],
     "cols": speedups(["hle"], "standard")},
    {"block": "fig3.4", "title": "HLE speedup over the standard lock, 8 threads",
     "where": {"update_pct": MIXES, "lock": TTAS_MCS, "size": SIZES},
     "rows": ["update_pct", "lock", "size"],
     "cols": speedups(["hle"], "standard")},
    {"block": "fig3.5", "title": "HLE- and RTM-based elision over the "
     "standard lock",
     "where": {"update_pct": MIXES, "lock": TTAS_MCS, "size": SIZES},
     "rows": ["update_pct", "lock", "size"],
     "cols": speedups(["hle", "rtm-elide"], "standard")},
] + [
    {"block": "fig5.2", "title": f"Speedup over plain HLE, {mix}% updates",
     "where": {"update_pct": mix, "lock": TTAS_MCS, "size": SIZES},
     "rows": ["lock", "size"],
     "cols": speedups(["hle-scm", "pes-slr", "opt-slr", "opt-slr-scm"], "hle")}
    for mix in MIXES
] + [
    {"block": "fig5.3", "title": "MCS, 100% updates: HLE against HLE-SCM",
     "where": {"update_pct": 100, "lock": "MCS", "size": SIZES},
     "rows": ["size"],
     "cols": [col("hle att/op", "attempts", {"scheme": "hle"}),
              col("hle nonspec", "nonspec", {"scheme": "hle"}),
              col("hle-scm att/op", "attempts", {"scheme": "hle-scm"}),
              col("hle-scm nonspec", "nonspec", {"scheme": "hle-scm"}),
              col("hle-scm speedup", "speedup", {"scheme": "hle-scm"},
                  {"scheme": "hle"})]},
    {"block": "fig5.3", "title": "TTAS, 100% updates: the software-assisted "
     "schemes",
     "where": {"update_pct": 100, "lock": "TTAS", "size": SIZES,
               "scheme": ["hle-scm", "opt-slr", "opt-slr-scm"]},
     "rows": ["size", "scheme"],
     "cols": [col("att/op", "attempts"), col("nonspec", "nonspec"),
              col("speedup over hle", "speedup", ref={"scheme": "hle"})]},
] + [
    {"block": "ch7", "title": f"HLE with and without the extension, "
     f"{mix}% updates",
     "where": {"update_pct": mix, "lock": TTAS_MCS,
               "size": [8, 128, 2048, 32768], "scheme": "hle",
               "duration_sec": 0.00075},
     "rows": ["lock", "size"],
     "cols": [col("hle Mops/s", "mops"),
              col("ext Mops/s", "mops", {"hardware_extension": True}),
              col("ext speedup", "speedup", {"hardware_extension": True},
                  {"hardware_extension": None}),
              col("hle att/op", "attempts"),
              col("ext att/op", "attempts", {"hardware_extension": True}),
              col("hle nonspec", "nonspec"),
              col("ext nonspec", "nonspec", {"hardware_extension": True})]}
    for mix in MIXES
] + [
    {"block": "ch6", "title": "Fair locks, 20% updates",
     "where": {"update_pct": 20, "size": [64, 2048, 32768],
               "lock": ["Ticket", "CLH", "Ticket-adj", "CLH-adj", "MCS"],
               "scheme": ["hle", "hle-scm"]},
     "rows": ["lock", "size", "scheme"],
     "cols": [col("speedup over standard", "speedup",
                  ref={"scheme": "standard"}),
              col("att/op", "attempts"), col("nonspec", "nonspec")]},
    {"block": "abl-conflict-policy", "title": "TTAS, 100% updates",
     "where": {"update_pct": 100, "lock": "TTAS", "size": [16, 128, 2048],
               "conflict_policy": [None, "oldest-wins"],
               "scheme": ["opt-slr", "opt-slr-scm"]},
     "rows": ["size", "conflict_policy", "scheme"],
     "labels": {"conflict_policy": {None: "requestor-wins"}},
     "cols": [col("Mops/s", "mops"), col("att/op", "attempts"),
              col("nonspec", "nonspec")]},
    {"block": "abl-scm-nested", "title": "TTAS",
     "where": {"lock": "TTAS", "size": [64, 2048], "update_pct": [20, 100]},
     "rows": ["size", "update_pct"],
     "cols": [col("workaround Mops/s", "mops", {"scheme": "hle-scm"}),
              col("nested Mops/s", "mops",
                  {"scheme": "hle-scm-nested", "allow_hle_in_rtm": True}),
              col("nested / workaround", "speedup",
                  {"scheme": "hle-scm-nested", "allow_hle_in_rtm": True},
                  {"scheme": "hle-scm", "allow_hle_in_rtm": None})]},
    {"block": "abl-tuning", "title": "SCM MAX_RETRIES: MCS, 128 keys, "
     "100% updates",
     "where": {"lock": "MCS", "size": 128, "update_pct": 100,
               "scheme": ["hle-scm:scm-retries=0", "hle-scm:scm-retries=1",
                          "hle-scm:scm-retries=2", "hle-scm:scm-retries=5",
                          "hle-scm", "hle-scm:scm-retries=20",
                          "hle-scm:scm-retries=50"]},
     "rows": ["scheme"],
     "cols": [col("Mops/s", "mops")]},
    {"block": "abl-tuning", "title": "Spurious-abort rate: HLE on MCS, "
     "2048 keys, lookups only",
     "where": {"lock": "MCS", "size": 2048, "update_pct": 0, "scheme": "hle",
               "spurious_per_begin": [0, 1e-05, 0.0001, 0.001, 0.01],
               "spurious_per_access": [0, None, 2e-06, 2e-05, 0.0002]},
     "rows": ["spurious_per_begin", "spurious_per_access"],
     "labels": {"spurious_per_access": {None: "2e-07"}},
     "cols": [col("Mops/s", "mops"), col("nonspec", "nonspec")]},
    {"block": "abl-tuning", "title": "Backoff against SCM: 128 keys, "
     "100% updates",
     "where": {"size": 128, "update_pct": 100, "scheme": ["hle", "hle-scm"],
               "lock": ["TTAS", "TTAS-backoff"]},
     "rows": ["scheme", "lock"],
     "cols": [col("Mops/s", "mops"), col("att/op", "attempts"),
              col("nonspec", "nonspec")]},
]


def throughput(p, ghz):
    m = p["metrics"]
    seconds = m["elapsed_cycles"] / (ghz * 1e9)
    return m["ops"] / seconds


def matches(point, selector):
    for key, want in selector.items():
        have = point.get(key)
        if isinstance(want, list):
            if have not in want:
                return False
        elif have != want:
            return False
    return all(key in BASE or key in selector for key in point)


def render(table, points, ghz):
    where = {**DEFAULTS, **table["where"]}
    order = {k: v for k, v in where.items() if isinstance(v, list)}

    def sort_key(row):
        return tuple(order[f].index(v) if f in order else v
                     for f, v in zip(table["rows"], row))

    rows = {tuple(p.get(f) for f in table["rows"])
            for c in table["cols"] for p in points
            if matches(p, {**where, **c["pick"]})}
    if not rows:
        return None

    def find(selector, what):
        found = [p for p in points if matches(p, selector)]
        if len(found) != 1:
            shown = {k: v for k, v in selector.items() if k not in DEFAULTS}
            sys.exit(f"figures.py: {table['block']}: {len(found)} points "
                     f"match the {what} {shown}")
        return found[0]

    labels = table.get("labels", {})
    lines = [f"**{table['block']}: {table['title']}**", "",
             "| " + " | ".join(table["rows"] + [c["head"] for c in
                                                table["cols"]]) + " |",
             "|" + "---|" * (len(table["rows"]) + len(table["cols"]))]
    for row in sorted(rows, key=sort_key):
        cells = [str(labels.get(f, {}).get(v, v))
                 for f, v in zip(table["rows"], row)]
        for c in table["cols"]:
            selector = {**where, **dict(zip(table["rows"], row)), **c["pick"]}
            value, digits, scale = METRICS[c["metric"]]
            x = value(find(selector, "cell"), ghz)
            if c["ref"] is not None:
                x /= value(find({**selector, **c["ref"]}, "reference point"),
                           ghz)
            else:
                x *= scale
            cells.append(f"{x:.{digits}f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_blocks(doc):
    points = [p for p in doc["points"] if p.get("kind") == "rb"]
    ghz = doc["run"]["machine"]["ghz"]
    blocks = {}
    for table in TABLES:
        text = render(table, points, ghz)
        if text is not None:
            blocks.setdefault(table["block"], []).append(text)
    return {name: "\n\n".join(texts) for name, texts in blocks.items()}


def write(path, blocks):
    out, block = [], None
    for line in open(path).read().split("\n"):
        if block is None:
            out.append(line)
            if line.startswith("<!-- figures.py ") and line != END:
                block = line[len("<!-- figures.py "):-len(" -->")]
                if block not in blocks:
                    sys.exit(f"figures.py: no points for block {block}")
                out.append(blocks[block])
        elif line == END:
            out.append(line)
            block = None
    if block is not None:
        sys.exit(f"figures.py: block {block} has no end marker")
    open(path, "w").write("\n".join(out))


END = "<!-- figures.py end -->"


def main(argv):
    if len(argv) not in (2, 4) or (len(argv) == 4 and argv[2] != "--write"):
        sys.exit(__doc__)
    blocks = render_blocks(json.load(open(argv[1])))
    if len(argv) == 4:
        write(argv[3], blocks)
        return
    for name, text in blocks.items():
        print(f"<!-- figures.py {name} -->\n{text}\n{END}\n")


if __name__ == "__main__":
    main(sys.argv)
