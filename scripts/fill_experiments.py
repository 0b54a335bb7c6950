#!/usr/bin/env python3
"""Patch EXPERIMENTS.md with measured tables from results/*.tsv.

Each `<!-- MARKER -->` in EXPERIMENTS.md is replaced by a markdown
rendering of the corresponding TSV files. Re-runnable: markers are kept in
the output so the file can be regenerated after new harness runs.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "results")
DOC = os.path.join(ROOT, "EXPERIMENTS.md")


def tsv_to_md(path, max_rows=None):
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    if not rows:
        return "(empty)"
    head, body = rows[0], rows[1:]
    if max_rows:
        body = body[:max_rows]
    out = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    out += ["| " + " | ".join(r) + " |" for r in body]
    return "\n".join(out)


def section(marker, files, title_fmt="**{name}**"):
    parts = [f"<!-- {marker} -->"]
    for path in files:
        if not os.path.exists(path):
            parts.append(f"_missing: {os.path.basename(path)}_")
            continue
        name = os.path.basename(path).replace(".tsv", "")
        parts.append(title_fmt.format(name=name))
        parts.append("")
        parts.append(tsv_to_md(path))
        parts.append("")
    return "\n".join(parts)


def main():
    scale = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    r = lambda n: os.path.join(RESULTS, n)
    blocks = {
        "TABLE1": section("TABLE1", [r(f"table1_stats_{scale}.tsv")]),
        "FIG4": section(
            "FIG4",
            [r(f"fig4_{d}_{scale}.tsv") for d in ["digg", "yelp", "tmall", "dblp"]],
        ),
        "TABLE36": section(
            "TABLE36",
            [r(f"table3_6_{d}_{scale}.tsv") for d in ["digg", "yelp", "tmall", "dblp"]],
        ),
        "TABLE7": section("TABLE7", [r(f"table7_ablation_{scale}.tsv")]),
        "TABLE8": section("TABLE8", [r(f"table8_timing_{scale}.tsv")]),
        "FIG5": section(
            "FIG5",
            [
                r(f"fig5_{s}_{scale}.tsv")
                for s in ["margin", "walk_length", "log2_p", "log2_q"]
            ],
        ),
        "EXT": section(
            "EXT",
            [r(f"ext_{e}_{scale}.tsv") for e in ["kernel", "bidir", "dim", "nodeclass"]],
        ),
    }
    with open(DOC) as f:
        text = f.read()
    import re

    for marker, content in blocks.items():
        # Replace the marker plus any previously generated block (up to the
        # next heading or horizontal rule).
        pattern = re.compile(
            rf"<!-- {marker} -->.*?(?=\n## |\n---|\Z)", re.DOTALL
        )
        if not pattern.search(text):
            print(f"warning: marker {marker} not found", file=sys.stderr)
            continue
        text = pattern.sub(content + "\n", text)
    with open(DOC, "w") as f:
        f.write(text)
    print(f"patched {DOC} from {RESULTS} (scale={scale})")


if __name__ == "__main__":
    main()
