#!/usr/bin/env python3
"""scripts/figures.py against a small results document.

The fixture (data/figures_fixture.json) holds sixteen real paper-tier points:
Fig 3.4/3.5's lookup-only corner, the nested-SCM pair and a conflict-policy
pair. The rendering must equal data/figures_golden.md byte for byte, --write
must fill a document's blocks with the same text, and a missing reference
point must fail the run instead of leaving a blank cell.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "scripts", "figures.py")
FIXTURE = os.path.join(HERE, "data", "figures_fixture.json")
GOLDEN = os.path.join(HERE, "data", "figures_golden.md")


def figures(*args):
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True)


def main():
    failures = []

    out = figures(FIXTURE)
    if out.returncode != 0 or out.stdout != open(GOLDEN).read():
        failures.append(f"rendering differs from the golden:\n{out.stdout}"
                        f"{out.stderr}")

    with tempfile.TemporaryDirectory() as tmp:
        md = os.path.join(tmp, "doc.md")
        with open(md, "w") as f:
            f.write("intro\n<!-- figures.py fig3.5 -->\nstale\n"
                    "<!-- figures.py end -->\noutro\n")
        out = figures(FIXTURE, "--write", md)
        block = open(GOLDEN).read().split("\n\n<!-- figures.py ")[1]
        want = "intro\n<!-- figures.py " + block + "\noutro\n"
        if out.returncode != 0 or open(md).read() != want:
            failures.append(f"--write did not fill the fig3.5 block:\n"
                            f"{open(md).read()}{out.stderr}")

        doc = json.load(open(FIXTURE))
        doc["points"] = [p for p in doc["points"]
                         if p["id"] != "rb-s8-u0-t8-mcs-standard"]
        broken = os.path.join(tmp, "broken.json")
        json.dump(doc, open(broken, "w"))
        out = figures(broken)
        if out.returncode == 0 or "reference point" not in out.stderr:
            failures.append("a missing reference point did not fail the run:"
                            f"\n{out.stdout}{out.stderr}")

    for f in failures:
        print("FAIL:", f)
    print(f"figures_script_test: {3 - len(failures)}/3 checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
