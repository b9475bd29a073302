"""CLI runner: artifacts, manifests, determinism, config validation."""

import json

import numpy as np
import pytest

from ellsqueeze import domain
from ellsqueeze.cli import main


def run_cli(args):
    return main(args)


def test_limits_artifacts(tmp_path):
    out = tmp_path / "limits"
    assert run_cli(["limits", "--out", str(out)]) == 0
    csv = (out / "limits.csv").read_text()
    assert csv.startswith("a,c1,c2,c3")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "limits"
    assert "tolerances" in manifest and "config" in manifest


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["classify", "--count", "10", "--seed", "3"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "classify.csv").read_bytes() == (out2 / "classify.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


def test_profile_schema(tmp_path):
    out = tmp_path / "profile"
    assert run_cli(["profile", "--out", str(out), "--samples", "2048",
                    "--indices", "10,100"]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    assert lines[0] == "n,rho,r_star,P_b_prime,sigma_hat"
    assert len(lines) == 3
    assert lines[1].startswith("10,-0.01,1,")


def test_scale_exact_model(tmp_path):
    out = tmp_path / "scale"
    assert run_cli(["scale", "--out", str(out), "--levels", "0.01,0.001,0.0001"]) == 0
    body = (out / "scale.csv").read_text()
    assert body.startswith("key,")


def test_floor_artifacts(tmp_path):
    out = tmp_path / "floor"
    assert run_cli(["floor", "--out", str(out), "--grid", "10",
                    "--samples", "2048"]) == 0
    payload = json.loads((out / "floor.json").read_text())
    assert payload["floor"] > 0.0
    assert payload["analytic_floor_interpretation"] > 0.0


def test_wbscan_ball(tmp_path):
    out = tmp_path / "wb"
    assert run_cli(["wbscan", "--out", str(out), "--domain", "ball:2",
                    "--samples", "100"]) == 0
    payload = json.loads((out / "wbscan.json").read_text())
    assert payload["passed"] is True
    assert abs(payload["min_levi"] - 1.0) < 1e-6


def test_convergence_artifacts(tmp_path):
    out = tmp_path / "conv"
    assert run_cli(["convergence", "--out", str(out), "--samples", "300",
                    "--agrid", "0.9,0.999,0.99999"]) == 0
    assert (out / "convergence.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 5, "kind": "normal"}))
    out = tmp_path / "out"
    assert run_cli(["classify", "--config", str(cfg), "--out", str(out),
                    "--count", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["count"] == 7       # flag wins
    assert manifest["config"]["kind"] == "normal"  # file survives


def test_invalid_config_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert run_cli(["classify", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 2


def test_invalid_parameter_rejected(tmp_path):
    assert run_cli(["floor", "--out", str(tmp_path / "y"), "--r", "1.5"]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # degenerate polynomial (vanishes on an axis): domain construction fails
    # with the package's positivity error and the CLI reports exit status 3
    poly = tmp_path / "degenerate.json"
    poly.write_text(json.dumps({
        "n": 3, "m": [2, 2],
        "terms": [{"K": [1, 1], "L": [1, 1], "re": 1.0, "im": 0.0}],
    }))
    assert run_cli(["classify", "--out", str(tmp_path / "z"),
                    "--domain", str(poly), "--count", "5"]) == 3


def test_rays_without_crossings_exit_code(tmp_path, monkeypatch):
    # no ray reaches the boundary: the typed sampling failure maps to status 3
    monkeypatch.setattr(domain, "first_crossing",
                        lambda table, u, level, cap: np.full(len(u), np.inf))
    assert run_cli(["wbscan", "--out", str(tmp_path / "w"), "--samples", "100"]) == 3


def test_domain_file_round_trip(tmp_path):
    from ellsqueeze.wpoly import quartic_disc_polynomial
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(quartic_disc_polynomial().to_dict()))
    out = tmp_path / "out"
    assert run_cli(["classify", "--out", str(out), "--domain", str(poly),
                    "--count", "5"]) == 0
