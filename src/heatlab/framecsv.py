"""The frame files of :meth:`heatlab.heat.Trajectory.save`, from the standard library only.

``python -I -S framecsv.py DIRECTORY FIRST N`` writes frames FIRST, FIRST + 1, ...
from stdin: the x column, then each frame's N (re, im) pairs, as native float64
bytes.  Without numpy or the package to import, it starts in tens of milliseconds.
"""

import sys


def frame_name(index: int) -> str:
    return f"frame_{index:04d}.csv"


def frame_template(x) -> str:
    """The bytes of ``write_csv(path, "x,re,im", x, re, im)``, a ``%.12g`` slot per re and im."""
    return "x,re,im\n" + "".join("%.12g,%%.12g,%%.12g\n" % v for v in x)


def write_frame(directory, index: int, template: str, pairs) -> None:
    with open(f"{directory}/{frame_name(index)}", "w") as fh:
        fh.write(template % tuple(pairs))


if __name__ == "__main__":
    directory, first, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    template = frame_template(memoryview(sys.stdin.buffer.read(8 * n)).cast("d").tolist())
    while chunk := sys.stdin.buffer.read(16 * n):
        write_frame(directory, first, template, memoryview(chunk).cast("d").tolist())
        first += 1
