#!/usr/bin/env python3
"""Write the full markdown report and the JSON definition of each builtin.

The reports are the same documents `latticealg report` prints; the JSON
files are loadable back through `latticealg ... --input FILE` and are a
convenient starting point for custom algebras.

Usage:
    python scripts/build_reports.py --out reports/
"""

import argparse
from pathlib import Path

import latticealg as la
from latticealg.cli import build_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("reports"))
    parser.add_argument(
        "--skip-json", action="store_true", help="only write the markdown reports"
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for name in la.BUILTIN_NAMES:
        alg = la.builtin(name)
        doc = build_report(alg, la.builtin_meta(name))
        md_path = args.out / f"{name}.md"
        md_path.write_text(doc)
        print(f"wrote {md_path}")
        if not args.skip_json:
            json_path = args.out / f"{name}.json"
            la.save_algebra(alg, json_path)
            print(f"wrote {json_path}")


if __name__ == "__main__":
    main()
