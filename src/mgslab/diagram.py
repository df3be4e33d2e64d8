"""ASCII diagrams of strings: southeast arrows for direct letters,
southwest for inverses.  Layout is best effort; the JSON payloads carry
the authoritative data."""

from __future__ import annotations

from .words import Walk


def render_diagram(w: Walk) -> list[str]:
    if w.length == 0:
        return [w.vertices[0]]
    heights = [0]
    for letter in w.letters:
        heights.append(heights[-1] + (-1 if letter.bit else 1))
    base = min(heights)
    heights = [h - base for h in heights]

    labels = list(w.vertices)
    cell = max(max(len(s) for s in labels), max(len(l.arrow) for l in w.letters)) + 2
    width = cell * (len(labels) + 1)
    rows = 2 * max(heights) + 1
    grid = [[" "] * width for _ in range(rows)]

    def put(r: int, c: int, text: str):
        for i, ch in enumerate(text):
            if 0 <= c + i < width:
                grid[r][c + i] = ch

    for i, v in enumerate(labels):
        put(2 * heights[i], cell * i, v)
    # a letter sits below its upper end: its start if direct, its end if inverse
    for i, (arrow, bit) in enumerate(w.letters):
        put(2 * heights[i + bit] + 1, cell * i + 1, "\\/"[bit] + arrow)
    return [("".join(row)).rstrip() for row in grid]
