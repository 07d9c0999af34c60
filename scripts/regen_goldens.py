#!/usr/bin/env python3
"""Regenerate the frozen golden outputs under tests/goldens/.

For every corpus script this writes <stem>.json (the final bindings) and
<stem>.svg (the final scene); for every built-in demo figure it writes
figure_<name>.svg.  Run with --check to compare instead of write, exiting
nonzero on any drift or on a stale golden that nothing produces.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from taxisect.export import emit_json, emit_svg  # noqa: E402
from taxisect.figures import FIGURES  # noqa: E402
from taxisect.script import run_source  # noqa: E402

CORPUS = ROOT / "corpus"
GOLDENS = ROOT / "tests" / "goldens"


def generate() -> dict[str, str]:
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for script_path in sorted(CORPUS.glob("*.taxi")):
            result = run_source(script_path.read_text(encoding="utf-8"), output_root=Path(scratch))
            if result.failures:
                raise SystemExit(f"{script_path.name}: corpus script has failing assertions")
            out[f"{script_path.stem}.json"] = emit_json(result.env)
            out[f"{script_path.stem}.svg"] = emit_svg(result.scene)
    for name, build in sorted(FIGURES.items()):
        out[f"figure_{name}.svg"] = emit_svg(build())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true", help="compare instead of write")
    args = parser.parse_args()

    generated = generate()
    GOLDENS.mkdir(parents=True, exist_ok=True)
    drift = []
    for name, text in generated.items():
        target = GOLDENS / name
        if args.check:
            if not target.is_file() or target.read_text(encoding="utf-8") != text:
                drift.append(name)
        else:
            target.write_text(text, encoding="utf-8")
            print(f"wrote {target.relative_to(ROOT)}")
    stale = sorted(set(p.name for p in GOLDENS.iterdir()) - set(generated))
    if stale:
        note = "stale goldens that nothing produces" if args.check else "note: stale golden files not touched"
        print(f"{note}: {stale}", file=sys.stderr)
    if drift:
        print(f"goldens differ: {drift}", file=sys.stderr)
    if drift or (args.check and stale):
        return 1
    if args.check:
        print(f"all {len(generated)} goldens match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
