"""Configuration-driven experiment runner.

Each subcommand reproduces one computable experiment family and writes
machine-readable artifacts (CSV/JSON) plus a run manifest into the output
directory.  All randomness is seeded, floats are printed at 17
significant digits, and manifests carry the effective configuration, so
identical configurations produce byte-identical outputs.

    ellsqueeze profile    --out OUT [--samples N] [--seed S]
    ellsqueeze classify   --out OUT [--kind tangential|normal|cone] [--s S] [--ratio R]
    ellsqueeze floor      --out OUT [--s S] [--r R] [--grid G]
    ellsqueeze scale      --out OUT [--levels d1,d2,...]
    ellsqueeze limits     --out OUT [--b B] [--agrid a1,a2,...]
    ellsqueeze wbscan     --out OUT [--samples N] [--exclusion E]
    ellsqueeze convergence --out OUT [--agrid ...] [--eps E] [--uradius R]

A JSON config file (--config) supplies defaults; explicit flags win.
The working domain defaults to the quartic example {|z_2|^2 + |z_1|^4 < 1};
pass --domain ball:N or --domain path.json for other ellipsoids.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .automorphisms import pullback_coeffs
from .domain import GeneralEllipsoid, samples_to_csv
from .errors import ConfigError, EllsqueezeError, EmptySampleError, ToleranceError
from .scaling import (DefiningFunctionPoly, diagnostics_to_csv, limit_diagnostics,
                      scale_along_normal)
from .sequences import classify, generate, record_to_csv, tangency_ratio
from .squeeze import BASEPOINT_TOL, gamma_floor, squeeze_estimates
from .domconv import exhaustion_check, exhaustion_report_to_csv
from .util import fmt, write_csv, write_json
from .wpoly import WeightedPolynomial

EXPERIMENTS = ("profile", "classify", "floor", "scale", "limits", "wbscan", "convergence")

_DEFAULTS = {
    "domain": "quartic",
    "seed": 0,
    "samples": 1 << 14,
    "out": "out",
    # per-experiment knobs
    "indices": [10, 100, 1000, 10000],
    "kind": "tangential",
    "count": 40,
    "s": 0.5,
    "r": 0.5,
    "ratio": 0.5,
    "grid": 200,
    "levels": [1e-2, 1e-3, 1e-4],
    "b": 0.5,
    "agrid": [0.5, 0.9, 0.99, 0.999, 0.9999],
    "exclusion": 1e-2,
    "eps": 0.4,
    "uradius": 0.5,
}

_TOLERANCES = {
    "boundary_residual": 1e-10,
    "basepoint_centering": BASEPOINT_TOL,
    "tau_relative": 1e-12,
    "levi_psd": -1e-8,
}


def _load_domain(spec: str) -> GeneralEllipsoid:
    if spec == "quartic":
        return GeneralEllipsoid.quartic_disc()
    if spec.startswith("ball:"):
        n = spec.split(":", 1)[1]
        if not n.isdecimal() or int(n) < 2:
            raise ConfigError(f"domain spec {spec!r}: ball:N needs an integer N >= 2")
        return GeneralEllipsoid.unit_ball(int(n))
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"domain spec {spec!r} is neither built-in nor a file")
    try:
        P = WeightedPolynomial.load(path)
    except EllsqueezeError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read domain file {spec}: {exc!r}") from exc
    return GeneralEllipsoid(P)


def _mistyped(value, default) -> bool:
    """Whether a config value lacks its default's type: an int may stand for
    a float, a bool for neither, and list entries take the first entry's type."""
    if isinstance(default, list):
        return not isinstance(value, list) or any(_mistyped(x, default[0]) for x in value)
    kind = (int, float) if type(default) is float else type(default)
    return isinstance(value, bool) or not isinstance(value, kind)


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_DEFAULTS) - {"experiment"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    mistyped = [key for key, default in _DEFAULTS.items() if _mistyped(cfg[key], default)]
    if mistyped:
        raise ConfigError(f"values not of their default's type: {mistyped}")
    if not (0 <= int(cfg["seed"]) < 2 ** 63):
        raise ConfigError("seed must lie in [0, 2**63)")
    if int(cfg["samples"]) < 1:
        raise ConfigError("samples must be >= 1")
    if not (0.0 < float(cfg["s"]) <= 1.0):
        raise ConfigError("s must lie in (0, 1]")
    if not (0.0 < float(cfg["r"]) <= 1.0):
        raise ConfigError("r must lie in (0, 1]")
    if not (0.0 < float(cfg["ratio"]) < 1.0):
        raise ConfigError("ratio must lie in (0, 1)")
    if not cfg["agrid"] or not all(0.0 < float(a) < 1.0 for a in cfg["agrid"]):
        raise ConfigError("agrid must be a non-empty list of values in (0, 1)")
    if len(cfg["levels"]) < 3 or not all(0.0 < float(lv) < np.inf for lv in cfg["levels"]):
        raise ConfigError("levels must be at least three positive finite values")
    if cfg["kind"] not in ("tangential", "normal", "cone"):
        raise ConfigError("kind must be tangential, normal, or cone")
    if int(cfg["grid"]) < 1:
        raise ConfigError("grid must be >= 1")
    if int(cfg["count"]) < 1:
        raise ConfigError("count must be >= 1")
    if not cfg["indices"] or any(int(j) < 1 for j in cfg["indices"]):
        raise ConfigError("indices must be a non-empty list of integers >= 1")
    if not (0.0 <= float(cfg["b"]) < 1.0):
        raise ConfigError("b must lie in [0, 1)")
    if not (0.0 < float(cfg["eps"]) < 0.5):
        raise ConfigError("eps must lie in (0, 1/2)")
    if not (0.0 < float(cfg["uradius"]) < np.inf):
        raise ConfigError("uradius must be positive and finite")
    if not (0.0 <= float(cfg["exclusion"]) < np.inf):
        raise ConfigError("exclusion must be finite and >= 0")


def _write_manifest(outdir: Path, experiment: str, cfg: dict) -> None:
    manifest = {
        "experiment": experiment,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "package_version": __version__,
        "tolerances": _TOLERANCES,
    }
    write_json(outdir / "manifest.json", manifest)


def run(experiment: str, cfg: dict) -> int:
    """Execute one experiment; returns a process exit status."""
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    D = _load_domain(str(cfg["domain"]))
    seed = int(cfg["seed"])
    samples = int(cfg["samples"])

    if experiment == "profile":
        indices = [int(j) for j in cfg["indices"]]
        seq = generate(D, "tangential", indices=indices)
        estimates = squeeze_estimates(D, [term.z for term in seq.terms],
                                      count=samples, seed=seed)
        # P(b') of the slice image b = psi(q) is P(q') / (1 - q_n^2) by
        # weighted homogeneity, so it comes from the exact shadows too
        rows = [[term.index,
                 float(term.rho_exact()),
                 tangency_ratio(D, float(cfg["s"]), term),
                 float(term.p_exact / (1 - term.zn_exact ** 2)),
                 est.value,
                 est.chain.label,
                 est.kind]
                for term, est in zip(seq.terms, estimates)]
        write_csv(outdir / "profile.csv",
                  ["n", "rho", "r_star", "P_b_prime", "sigma_hat", "chain", "kind"], rows)
        print(f"profile: {len(rows)} terms, last sigma_hat = {fmt(estimates[-1].value)}")

    elif experiment == "classify":
        seq = generate(D, str(cfg["kind"]), count=int(cfg["count"]),
                       s=float(cfg["s"]), ratio=float(cfg["ratio"]))
        record = classify(D, float(cfg["s"]), seq)
        record_to_csv(outdir / "classify.csv", record)
        print(f"classify[{cfg['kind']}]: verdict = {record.verdict}")

    elif experiment == "floor":
        report = gamma_floor(D, float(cfg["s"]), float(cfg["r"]),
                             grid_count=int(cfg["grid"]), count=samples, seed=seed)
        payload = {
            "s": report.s, "r": report.r, "floor": report.value,
            "grid_count": report.grid_count, "samples": report.samples,
            "seed": report.seed,
            "argmin": [[c.real, c.imag] for c in report.argmin],
            "kind": report.kind,
        }
        write_json(outdir / "floor.json", payload)
        print(f"floor(s={report.s!r}, r={report.r!r}) = {fmt(report.value)}")

    elif experiment == "scale":
        gauge = DefiningFunctionPoly.graph_model(D.P)
        etas = [np.array([0.0] * (D.n - 1) + [-float(delta)], dtype=np.complex128)
                for delta in cfg["levels"]]
        scaled = scale_along_normal(gauge, etas)
        report = limit_diagnostics(scaled)
        if report.psd_min_eig < _TOLERANCES["levi_psd"]:
            raise ToleranceError("levi_psd", report.psd_min_eig, _TOLERANCES["levi_psd"])
        drift = max(abs(sf.frame.taus[-1] / sf.frame.eps - 1.0) for sf in scaled)
        if drift > _TOLERANCES["tau_relative"]:
            raise ToleranceError("tau_relative", drift, _TOLERANCES["tau_relative"])
        diagnostics_to_csv(outdir / "scale.csv", report)
        print(f"scale: sup Cauchy delta = {fmt(report.cauchy_deltas.max())}, "
              f"psd min eig = {fmt(report.psd_min_eig)}")

    elif experiment == "limits":
        b = float(cfg["b"])
        rows = [[a, *pullback_coeffs(b, float(a))] for a in cfg["agrid"]]
        write_csv(outdir / "limits.csv", ["a", "c1", "c2", "c3"], rows)
        c1, c2, c3 = rows[-1][1:]
        print(f"limits: at a={float(rows[-1][0])!r} coefficients -> ({fmt(c1)}, {fmt(c2)}, {fmt(c3)})")

    elif experiment == "wbscan":
        report = D.wb_scan(count=samples, seed=seed, exclusion=float(cfg["exclusion"]))
        residual = np.abs(D.rho(report.points))
        worst, bound = float(residual.max()), _TOLERANCES["boundary_residual"]
        if worst > bound:
            raise ToleranceError("boundary_residual", worst, bound)
        samples_to_csv(outdir / "wbscan.csv", report.points, residual, report.levi_values)
        summary = {
            "min_levi": report.min_levi, "tested": report.tested,
            "excluded": report.excluded, "exclusion": report.exclusion,
            "passed": report.passed, "kind": report.kind,
        }
        write_json(outdir / "wbscan.json", summary)
        print(f"wbscan: min restricted Levi eigenvalue = {fmt(report.min_levi)} "
              f"({'pass' if report.passed else 'FAIL'})")

    elif experiment == "convergence":
        report = exhaustion_check(D, s=float(cfg["s"]),
                                  a_grid=[float(a) for a in cfg["agrid"]],
                                  eps=float(cfg["eps"]),
                                  u_radius=float(cfg["uradius"]),
                                  count=samples, seed=seed)
        exhaustion_report_to_csv(outdir / "convergence.csv", report)
        idx = report.first_ok_index
        print("convergence: inclusion holds from grid index "
              + (str(idx) if idx is not None else "never (extend the grid)"))

    else:
        raise ConfigError(f"unknown experiment {experiment!r}")

    _write_manifest(outdir, experiment, cfg)
    return 0


def _flag_type(default):
    """Parser of a flag: the type of its default; a list default takes a
    comma-separated list of its element type."""
    if isinstance(default, list):
        element = type(default[0])
        return lambda text: [element(x) for x in text.split(",")]
    return type(default)


# one parser per process: `parse_args` leaves it as it was, and building
# its flags costs about 0.4 ms, which a caller running many experiments in
# one process would pay on every call
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsqueeze",
        description="squeezing-function experiments on generalized ellipsoids")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=str, default=None)
    for key, default in _DEFAULTS.items():
        parser.add_argument(f"--{key}", type=_flag_type(default), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return run(args.experiment, cfg)
    except (ConfigError, EmptySampleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EllsqueezeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
