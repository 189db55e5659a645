"""Atomic CSV emission shared by the trace, surface, and report writers."""

import csv
import os
import tempfile

import numpy as np


def format_cell(value):
    """Render one cell deterministically; floats keep full round-trip precision."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    """Write a CSV atomically (temp file in the target dir, then rename).

    Every row must have the same arity as the header; identical inputs
    produce byte-identical files.
    """
    header = list(header)
    directory = os.path.dirname(path) or os.curdir  # an error names it as given
    created = []  # the directories this call makes, deepest first
    parent = directory
    while parent and not os.path.exists(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                cells = [format_cell(c) for c in row]
                if len(cells) != len(header):
                    raise ValueError(
                        f"row arity {len(cells)} does not match header arity {len(header)}"
                    )
                writer.writerow(cells)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        for made in created:
            if not os.listdir(made):
                os.rmdir(made)
        raise
