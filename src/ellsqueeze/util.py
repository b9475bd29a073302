"""Seeded sampling helpers and deterministic output formatting.

All randomness in the package flows through the two generators below.
Sphere directions come from a seeded R_d Kronecker sequence (Roberts 2018,
"The unreasonable effectiveness of quasirandom sequences"): the
low-discrepancy cloud keeps min-over-samples statistics stable across seeds,
and each point depends only on its index, so the first ``k`` points of a
longer draw coincide with a shorter draw and sample sets grow monotonically
with the requested count.
"""

from __future__ import annotations

import json

import numpy as np

# rows per block of the cloud kernels: a block's temporaries stay a few MB
# however large the cloud
BLOCK = 1 << 14


def blocks(count: int):
    """Consecutive row slices of at most BLOCK rows covering range(count)."""
    for lo in range(0, count, BLOCK):
        yield slice(lo, min(lo + BLOCK, count))


def philox(seed: int) -> np.random.Generator:
    """Counter-based generator; streams are reproducible and splittable."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def complex_sphere(count: int, cdim: int, seed: int) -> np.ndarray:
    """`count` quasi-random points on the unit sphere of C^cdim, prefix-stable in count.

    Point i is x_i = frac(s + i alpha) in [0, 1)^(2 cdim), with alpha_k =
    phi^-k for the root phi of x^(2 cdim + 1) = x + 1 and the shift s drawn
    from ``philox(seed)``.  Its first cdim coordinates give the moduli of a
    standard complex Gaussian, |g_k|^2 = -ln(1 - x_k), and its last cdim
    the phases; normalizing g keeps the sphere's measure exactly.  The
    output is filled BLOCK rows at a time; each point depends only on its
    index, so the blocks change no bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d = 2 * cdim
    phi = 2.0
    for _ in range(64):  # fixed-point iteration, a contraction onto the root
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    shift = philox(seed).random(d)
    u = None
    for rows in blocks(count):
        x = shift + np.arange(rows.start, rows.stop)[:, None] * alpha
        x -= np.floor(x)
        r = -np.log1p(-x[:, :cdim])
        r /= r.sum(axis=1, keepdims=True)
        np.sqrt(r, out=r)
        angle = 2.0 * np.pi * x[:, cdim:]
        if u is None:
            # allocated above the first block's temporaries: the malloc heap
            # then keeps their space for the caller's next temporaries, where
            # an output allocated first lets it trim and fault them in again
            u = np.empty((count, cdim), dtype=complex)
        block = u[rows]
        np.multiply(r, np.cos(angle), out=block.real)
        np.multiply(r, np.sin(angle), out=block.imag)
    return u


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
