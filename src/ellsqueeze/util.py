"""Seeded sampling helpers and deterministic output formatting.

All randomness in the package flows through the two generators below.
Sphere directions use a scrambled Sobol sequence: the low-discrepancy
cloud keeps min-over-samples statistics stable across seeds, and the
first ``k`` points of a longer draw coincide with a shorter draw, so
sample sets grow monotonically with the requested count.  scipy, which
supplies the Sobol sequence and the inverse normal CDF, is imported inside
:func:`complex_sphere`, so importing the package and building domains do not
load it; it loads when the first cloud is drawn.
"""

from __future__ import annotations

import json
import warnings

import numpy as np


def philox(seed: int) -> np.random.Generator:
    """Counter-based generator; streams are reproducible and splittable."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def complex_sphere(count: int, cdim: int, seed: int) -> np.ndarray:
    """`count` quasi-random points on the unit sphere of C^cdim, prefix-stable in count.

    Normalized inverse-normal images of a scrambled Sobol sequence in
    R^(2 cdim), whose first cdim coordinates are the real parts.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    from scipy.special import ndtri
    from scipy.stats import qmc

    sob = qmc.Sobol(d=2 * cdim, scramble=True, seed=int(seed))
    with warnings.catch_warnings():
        # non power-of-two draws are fine here; we only need the prefix property
        warnings.simplefilter("ignore", UserWarning)
        u01 = sob.random(count)
    g = ndtri(np.clip(u01, 1e-15, 1.0 - 1e-15))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    g = g / norms[:, None]
    return g[:, :cdim] + 1j * g[:, cdim:]


def fmt(x) -> str:
    """Canonical 17-significant-digit text for floats (byte-stable output)."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    """Plain deterministic CSV writer; floats go through :func:`fmt`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """Deterministic JSON writer: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
