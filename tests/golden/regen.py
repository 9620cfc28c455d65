"""Rewrite the golden annotation files from the current code.

    PYTHONPATH=src python tests/golden/regen.py

Run it only after a change that is meant to move the annotations, and
state in CHANGES.md which lines changed, by how much and why.
"""

import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

from test_golden import FIXTURE_RUNS, WORLD_RUNS, fixture_run, world_run  # noqa: E402
from world import build_world  # noqa: E402


def main() -> int:
    corpus, snapshot = build_world()
    runs = {name: fixture_run(name, corpus, snapshot) for name in FIXTURE_RUNS}
    for name in WORLD_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = world_run(name, Path(tmp))
    for name, lines in runs.items():
        (GOLDEN / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines),
                                              encoding="utf-8")
        print(f"{name}.jsonl: {len(lines)} annotations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
