"""The frame files of :meth:`heatlab.heat.Trajectory.save`, from the standard library only.

``python -I -S framecsv.py DIRECTORY FIRST N`` writes frames FIRST, FIRST + 1, ...
from stdin: the x column, then each frame's N (re, im) pairs, as native float64
bytes.  Without numpy or the package to import, it starts in tens of milliseconds.
"""

import sys


def frame_name(index: int) -> str:
    return f"frame_{index:04d}.csv"


def write_frames(directory, first: int, x, frames) -> None:
    """Frames ``first``, ``first + 1``, ... from flat (re, im) lists, as ``write_csv`` bytes."""
    template = "x,re,im\n" + "".join("%.12g,%%.12g,%%.12g\n" % v for v in x)
    for index, pairs in enumerate(frames, start=first):
        with open(f"{directory}/{frame_name(index)}", "w") as fh:
            fh.write(template % tuple(pairs))


if __name__ == "__main__":
    directory, first, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    read = sys.stdin.buffer.read
    x = memoryview(read(8 * n)).cast("d").tolist()
    chunks = iter(lambda: read(16 * n), b"")
    write_frames(directory, first, x, (memoryview(chunk).cast("d").tolist() for chunk in chunks))
