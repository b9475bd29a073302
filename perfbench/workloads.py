"""Seeded inputs, the two workloads and their output checks.

A workload is a list of operations; one operation is one experiment call
into the package.  A pass runs the list once, each call starting only after
the previous one returned (one closed-loop client, no added threads).  The
package sees only files written here: a mixed-weight domain table and one
JSON config per CLI call.

Package functions are always reached through their module (for example
``scaling.limit_diagnostics``), never bound by name here, so that the tracer
can swap them for timed wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

import ellsqueeze.cli as cli
import ellsqueeze.domain as domain
import ellsqueeze.scaling as scaling
import ellsqueeze.wpoly as wpoly

# Input sets per run: pass k uses set k mod INPUT_SETS, so a run's median is
# taken over passes with different seeded inputs rather than one draw.
INPUT_SETS = 16

# Sizes.  A pass takes roughly 2-9 s on a 2-CPU Xeon virtual machine; see README.md.
CLOUD_QUARTIC_SAMPLES = 1 << 17
CLOUD_MIXED_SAMPLES = 1 << 13
CLOUD_CONVERGENCE_SAMPLES = 1 << 15
GRID_FLOOR_RADII = (0.25, 0.5, 0.75)
GRID_FLOOR_POINTS = 64
GRID_SAMPLES = 1 << 14
GRID_WBSCAN_SAMPLES = 1 << 12
FRAME_LEVELS = (1e-2, 1e-3, 1e-4)
FRAME_STARTS = 1
LIMITS_AGRID = [0.5, 0.9, 0.99, 0.999, 0.9999]

# Output tolerances; the first two are the package manifest's own bounds.
BOUNDARY_RESIDUAL = 1e-10
LEVI_PSD = -1e-8
IDENTITY_TOL = 1e-12
ORTHONORMAL_TOL = 1e-10
TAU_NORMAL_TOL = 1e-6
ORIGIN_TOL = 1e-10

PROFILE_INDICES = (10, 100, 1000, 10000)
CLASSIFY_VERDICTS = {"tangential": "tangential", "normal": "nontangential",
                     "cone": "nontangential"}


@dataclass
class InputSet:
    """One seeded draw of every input a pass needs."""

    table: Path
    configs: Dict[str, Path]
    frame_seed: int


@dataclass
class Op:
    """One experiment call and the check of what it produced.

    `check(result, stdout)` returns a list of problems; empty means correct.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, str], List[str]]


@dataclass
class OpOutcome:
    name: str
    seconds: float
    problems: List[str] = field(default_factory=list)


def mixed_table(rng: np.random.Generator) -> dict:
    """m = (2, 3) table: seeded |z1|^4, |z2|^6 weights and a small z1^2 conj(z2)^3 term.

    With a, b >= 0.8 and |c| <= 0.1 the form a|x|^2 + b|y|^2 + 2 Re(c x conj y)
    is positive definite, so P > 0 off the origin.
    """
    a, b = rng.uniform(0.8, 1.2, size=2)
    mag = rng.uniform(0.02, 0.1)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return {"n": 3, "m": [2, 3], "terms": [
        {"K": [2, 0], "L": [2, 0], "re": float(a), "im": 0.0},
        {"K": [0, 3], "L": [0, 3], "re": float(b), "im": 0.0},
        {"K": [2, 0], "L": [0, 3], "re": float(mag * np.cos(phase)),
         "im": float(mag * np.sin(phase))},
    ]}


def _cli_configs(table: Path, seeds: List[int]) -> Dict[str, dict]:
    quartic = "quartic"
    mixed = str(table)
    configs = {
        "profile_quartic": {"experiment": "profile", "domain": quartic,
                            "samples": CLOUD_QUARTIC_SAMPLES},
        "profile_mixed": {"experiment": "profile", "domain": mixed,
                          "samples": CLOUD_MIXED_SAMPLES},
        "convergence": {"experiment": "convergence", "domain": quartic,
                        "samples": CLOUD_CONVERGENCE_SAMPLES},
        "wbscan": {"experiment": "wbscan", "domain": quartic,
                   "samples": GRID_WBSCAN_SAMPLES},
        "limits": {"experiment": "limits", "agrid": LIMITS_AGRID},
        "scale": {"experiment": "scale", "domain": quartic},
    }
    for r in GRID_FLOOR_RADII:
        configs[f"floor_{r:g}"] = {"experiment": "floor", "domain": quartic, "r": r,
                                  "grid": GRID_FLOOR_POINTS, "samples": GRID_SAMPLES}
    for kind in CLASSIFY_VERDICTS:
        configs[f"classify_{kind}"] = {"experiment": "classify", "domain": quartic,
                                       "kind": kind}
    for cfg, seed in zip(configs.values(), seeds):
        cfg["seed"] = seed
    return configs


def setup(seed: int, workdir: Path) -> List[InputSet]:
    """Write INPUT_SETS seeded input sets and build every generated domain.

    Building the domain runs its positivity scan, so a table that is not
    positive fails here, before any pass.
    """
    sets = []
    for k in range(INPUT_SETS):
        rng = np.random.default_rng([int(seed), k])
        directory = workdir / f"set{k:02d}"
        directory.mkdir(parents=True, exist_ok=True)
        table = directory / "mixed.json"
        table.write_text(json.dumps(mixed_table(rng), indent=1) + "\n", encoding="utf-8")
        domain.GeneralEllipsoid.load(table)
        seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=16)]
        configs = {}
        for name, cfg in _cli_configs(table, seeds[1:]).items():
            cfg["out"] = str(directory / "out" / name)
            path = directory / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
            configs[name] = path
        sets.append(InputSet(table, configs, frame_seed=seeds[0]))
    domain.GeneralEllipsoid.quartic_disc()
    return sets


def run_op(op: Op, checking=contextlib.nullcontext) -> OpOutcome:
    """Time one call; raising, a nonzero status or a failed check is a failure.

    Only the call is timed.  Its stdout (the CLI's summary line) is captured
    for the check, which runs after the clock stops inside `checking()`.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            result = op.call()
    except Exception as exc:  # an operation that raises is a counted failure
        return OpOutcome(op.name, time.perf_counter() - t0,
                         [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    try:
        with checking():
            problems = op.check(result, buf.getvalue())
    except Exception as exc:  # unreadable or malformed artifacts fail the check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return OpOutcome(op.name, seconds, problems)


# -- artifact readers ----------------------------------------------------------------


def _read_csv(path: Path) -> List[Dict[str, str]]:
    """Rows as dicts; a first field holding commas (scale.csv keys) is rejoined."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        extra = len(fields) - len(header)
        rows.append(dict(zip(header, [",".join(fields[:extra + 1])] + fields[extra + 1:])))
    return rows


def config(inputs: InputSet, name: str) -> dict:
    return json.loads(inputs.configs[name].read_text(encoding="utf-8"))


def _cli_op(name: str, inputs: InputSet, check: Callable[[Path, str], List[str]]) -> Op:
    cfg = config(inputs, name)
    outdir = Path(cfg["out"])
    shutil.rmtree(outdir, ignore_errors=True)  # a check must never read an older pass's output

    def checked(status, stdout):
        if status != 0:
            return [f"exit status {status}"]
        if not (outdir / "manifest.json").is_file():
            return ["manifest.json missing"]
        return check(outdir, stdout)

    argv = [cfg["experiment"], "--config", str(inputs.configs[name])]
    return Op(name, lambda: cli.main(argv), checked)


# -- checks: invariants any correct implementation keeps --------------------------------


def check_profile(outdir: Path, stdout: str) -> List[str]:
    rows = _read_csv(outdir / "profile.csv")
    problems = []
    if [int(r["n"]) for r in rows] != list(PROFILE_INDICES):
        problems.append("profile.csv indices differ from the configured sequence")
    for r in rows:
        j = int(r["n"])
        rho = float(r["rho"])
        if not math.isclose(rho, -1.0 / (j * j), rel_tol=IDENTITY_TOL):
            problems.append(f"j={j}: rho {rho!r} != -1/j^2")
        pb = float(r["P_b_prime"])
        exact = (2.0 / j - 2.0 / j ** 2) / (2.0 / j - 1.0 / j ** 2)
        if abs(pb - exact) > IDENTITY_TOL * max(1.0, abs(exact)):
            problems.append(f"j={j}: P_b_prime {pb!r} != {exact!r}")
        sigma = float(r["sigma_hat"])
        if not 0.0 < sigma <= 1.0:
            problems.append(f"j={j}: sigma_hat {sigma!r} outside (0, 1]")
    return problems


def check_convergence(outdir: Path, stdout: str) -> List[str]:
    rows = _read_csv(outdir / "convergence.csv")
    bad = [r["fraction_inside"] for r in rows if not 0.0 <= float(r["fraction_inside"]) <= 1.0]
    problems = [f"fraction {f} outside [0, 1]" for f in bad]
    if not rows:
        problems.append("convergence.csv has no rows")
    return problems


def check_floor(outdir: Path, stdout: str) -> List[str]:
    value = json.loads((outdir / "floor.json").read_text(encoding="utf-8"))["floor"]
    return [] if 0.0 < value <= 1.0 else [f"floor {value!r} outside (0, 1]"]


def check_wbscan(outdir: Path, stdout: str) -> List[str]:
    rows = _read_csv(outdir / "wbscan.csv")
    worst = max(float(r["residual"]) for r in rows)
    problems = [] if worst <= BOUNDARY_RESIDUAL else [f"boundary residual {worst:.3g}"]
    if not json.loads((outdir / "wbscan.json").read_text(encoding="utf-8"))["passed"]:
        problems.append("wbscan did not pass")
    return problems


def check_classify(kind: str):
    def check(outdir: Path, stdout: str) -> List[str]:
        if not (outdir / "classify.csv").is_file():
            return ["classify.csv missing"]
        want = f"verdict = {CLASSIFY_VERDICTS[kind]}"
        return [] if stdout.strip().endswith(want) else [f"{kind}: {stdout.strip()!r}"]
    return check


def check_limits(outdir: Path, stdout: str) -> List[str]:
    rows = _read_csv(outdir / "limits.csv")
    if len(rows) != len(LIMITS_AGRID):
        return ["limits.csv row count differs from the a-grid"]
    if not all(math.isfinite(float(v)) for r in rows for v in r.values()):
        return ["limits.csv holds a non-finite value"]
    return []


def check_scale_cli(outdir: Path, stdout: str) -> List[str]:
    rows = _read_csv(outdir / "scale.csv")
    const = [r for r in rows if r["key"] == "0,0;0,0"]  # the quartic's constant term
    problems = []
    if not const:
        problems.append("scale.csv has no constant coefficient")
    else:
        values = [float(v) for k, v in const[0].items() if k.startswith("re_j")]
        if any(abs(v + 1.0) > ORIGIN_TOL for v in values):
            problems.append(f"scaled tables at the origin: {values}")
    psd = float(stdout.rsplit("psd min eig =", 1)[1])
    if psd < LEVI_PSD:
        problems.append(f"psd_min_eig {psd!r} < {LEVI_PSD}")
    return problems


def check_scaled(level: float):
    """A frame must be orthonormal, reach tau_n = eps, and scale rho to -1 at 0.

    Each scaled table is a psh gauge composed with an affine map, so its
    Levi form is positive semidefinite everywhere.
    """
    def check(result, stdout: str) -> List[str]:
        (sf,) = result
        frame = sf.frame
        problems = []
        gram = np.conj(frame.unitary.T) @ frame.unitary
        err = float(np.abs(gram - np.eye(frame.n)).max())
        if err > ORTHONORMAL_TOL:
            problems.append(f"frame not orthonormal ({err:.3g})")
        if abs(frame.taus[-1] - frame.eps) > TAU_NORMAL_TOL * frame.eps:
            problems.append(f"tau_n {frame.taus[-1]!r} != eps {frame.eps!r}")
        if abs(frame.eps - level) > IDENTITY_TOL * level:
            problems.append(f"eps {frame.eps!r} != level {level!r}")
        if abs(sf.value_at_origin + 1.0) > ORIGIN_TOL:
            problems.append(f"scaled table at 0 is {sf.value_at_origin!r}")
        grid = np.random.default_rng(0).standard_normal((64, 2 * frame.n))
        grid = grid[:, :frame.n] + 1j * grid[:, frame.n:]
        low = float(sf.table.min_levi_eigenvalue(grid).min())
        if low < LEVI_PSD:
            problems.append(f"scaled table Levi eigenvalue {low!r} < {LEVI_PSD}")
        return problems
    return check


def check_limit_report(report, stdout: str) -> List[str]:
    """psd_min_eig bounds the Levi form of a limit only when the series converged.

    On the mixed-weight model the greedy tangential frame rotates with eps,
    so limit_diagnostics reports divergence and its extrapolated table is
    not a limit; see README.md.
    """
    problems = []
    if not np.all(np.isfinite(report.cauchy_deltas)):
        problems.append("non-finite Cauchy deltas")
    if not report.diverged and report.psd_min_eig < LEVI_PSD:
        problems.append(f"psd_min_eig {report.psd_min_eig!r} < {LEVI_PSD}")
    return problems


# -- the workloads ----------------------------------------------------------------------


def cloud_ops(inputs: InputSet) -> List[Op]:
    """Cold, large-array boundary solving: fresh domains, big clouds."""
    return [
        _cli_op("profile_quartic", inputs, check_profile),
        _cli_op("profile_mixed", inputs, check_profile),
        _cli_op("convergence", inputs, check_convergence),
    ]


def grid_ops(inputs: InputSet) -> List[Op]:
    """Many basepoints over warm clouds: chain maps and pointwise Levi forms."""
    ops = [_cli_op(f"floor_{r:g}", inputs, check_floor) for r in GRID_FLOOR_RADII]
    ops.append(_cli_op("wbscan", inputs, check_wbscan))
    ops += [_cli_op(f"classify_{kind}", inputs, check_classify(kind))
            for kind in CLASSIFY_VERDICTS]
    ops.append(_cli_op("limits", inputs, check_limits))
    return ops


def frame_ops(inputs: InputSet) -> List[Op]:
    """Many tiny polynomial calls: greedy frames on the mixed-weight model."""
    gauge = scaling.DefiningFunctionPoly.graph_model(wpoly.WeightedPolynomial.load(inputs.table))
    tables: list = []

    def scale(level):
        eta = np.zeros(gauge.d, dtype=np.complex128)
        eta[-1] = -level

        def call():
            out = scaling.scale_along_normal(gauge, [eta], starts=FRAME_STARTS,
                                             seed=inputs.frame_seed)
            tables.extend(out)
            return out
        return call

    ops = [Op(f"scale_{level:g}", scale(level), check_scaled(level)) for level in FRAME_LEVELS]
    ops.append(Op("limit_diagnostics", lambda: scaling.limit_diagnostics(tables),
                  check_limit_report))
    ops.append(_cli_op("scale", inputs, check_scale_cli))
    return ops


def cloudgrid_ops(inputs: InputSet) -> List[Op]:
    """Cold boundary solving, then many basepoints over warm clouds."""
    return cloud_ops(inputs) + grid_ops(inputs)


OPS = {"cloudgrid": cloudgrid_ops, "frame": frame_ops}
