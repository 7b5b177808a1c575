"""The output ledger: the sha256 of every file ``heatlab all --plot`` writes
at delta = 3 and 9.9, and ``construct-weights``, ``iterate`` and
``verify-convexity`` write at delta = 3 on a grid of M = 768 intervals (not a
power of two, where rounding of the time grid shows), committed as
``tests/golden/all.sha256``.

A byte that moves in any CSV, SVG, verdict, summary or manifest fails the
test below, which names every moved file.  Manifests are hashed without
their ``out =`` line and their ``*_version`` lines, which name the output
directory and the installed versions rather than the results.  The ledger's
header records the numpy version and the platform it was written under, and
a failure says so when this run's differ.

A change that moves bytes on purpose regenerates the ledger with

    python tests/test_output_ledger.py

which, before it rewrites the ledger, prints each file that moved, is new or
is no longer written against the committed one.  The change commits the new
ledger and lists each moved file in CHANGES.md.
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "all.sha256"
DELTAS = ("3", "9.9")
GRID_M_COMMANDS = ("construct-weights", "iterate", "verify-convexity")
GRID_M = "768"


def environment() -> list[str]:
    """The header lines: what the ledger's bytes may depend on besides the code."""
    return [f"numpy {np.__version__}", f"platform {platform.system()} {platform.machine()}"]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        lines = data.decode().splitlines(keepends=True)
        keys = (line.partition(" = ")[0] for line in lines)
        data = "".join(
            line for line, key in zip(lines, keys) if key != "out" and not key.endswith("_version")
        ).encode()
    return hashlib.sha256(data).hexdigest()


def hash_trees(root: Path) -> dict[str, str]:
    """Run the ledger's commands under ``root`` and hash every file written."""
    from heatlab.cli import main  # here: run as a script, src/ joins sys.path first

    for delta in DELTAS:
        main(["all", "--delta", delta, "--plot", "--out", str(root / f"delta-{delta}")])
    for command in GRID_M_COMMANDS:
        main([command, "--delta", "3", "--grid-M", GRID_M, "--out", str(root / f"delta-3-M{GRID_M}")])
    files = sorted(path for path in root.rglob("*") if path.is_file())
    return {path.relative_to(root).as_posix(): digest(path) for path in files}


def read_ledger() -> tuple[list[str], dict[str, str]]:
    lines = LEDGER.read_text().splitlines()
    header = [line[2:] for line in lines if line.startswith("# ")][1:]
    rows = (line.split("  ", 1) for line in lines if not line.startswith("#"))
    return header, {path: sha for sha, path in rows}


def moved_files(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Each path whose hash differs between ``want`` and ``got``, marked when
    ``got`` lacks it (not written) or ``want`` does (new)."""
    return [
        path + ("" if path in got else " (not written)") + ("" if path in want else " (new)")
        for path in sorted(want.keys() | got.keys())
        if want.get(path) != got.get(path)
    ]


def test_heatlab_all_writes_the_ledger_bytes(tmp_path):
    header, want = read_ledger()
    got = hash_trees(tmp_path)
    moved = moved_files(want, got)
    env = environment()
    note = "" if header == env else f"; ledger written under {header}, run under {env}"
    assert not moved, f"{len(moved)} files moved{note}:\n" + "\n".join(moved)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # as pytest's pythonpath setting does
    with tempfile.TemporaryDirectory() as scratch:
        hashes = hash_trees(Path(scratch))
    head = (
        f"heatlab all --plot at delta = 3 and 9.9, and {', '.join(GRID_M_COMMANDS)} at delta = 3"
        f" --grid-M {GRID_M}; python tests/test_output_ledger.py rewrites it"
    )
    moved = moved_files(read_ledger()[1] if LEDGER.exists() else {}, hashes)
    print(f"{len(moved)} files moved against the committed ledger", *moved, sep="\n  ")
    lines = [f"# {line}" for line in [head, *environment()]]
    lines += [f"{sha}  {path}" for path, sha in hashes.items()]
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(hashes)} hashes to {LEDGER.relative_to(ROOT)}")
