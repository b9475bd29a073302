"""CLI runner: artifacts, manifests, determinism, config validation."""

import dataclasses
import json
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import ellsqueeze
from ellsqueeze import cli, domain, squeeze
from ellsqueeze.cli import _DEFAULTS, EXPERIMENTS, _build_parser, main
from ellsqueeze.sequences import generate
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial, quartic_disc_polynomial

from helpers import double_root_polynomial, mixed_weight_polynomial


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


# small sizes that still exercise every code path of each experiment
RERUN_ARGS = {
    "profile": ["--samples", "2048"],
    "classify": ["--count", "10", "--seed", "3"],
    "floor": ["--grid", "10", "--samples", "2048"],
    "scale": [],
    "limits": [],
    "wbscan": ["--samples", "200"],
    "convergence": ["--samples", "300"],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_byte_identical_reruns(tmp_path, experiment):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [experiment] + RERUN_ARGS[experiment]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_default_is_a_typed_flag(experiment):
    parser = _build_parser()
    for key, default in _DEFAULTS.items():
        # integer-looking text, so a float flag must convert rather than keep ints
        text = "1,2" if isinstance(default, list) else "3"
        value = getattr(parser.parse_args([experiment, f"--{key}", text]), key)
        assert type(value) is type(default), key
        if isinstance(default, list):
            assert all(type(x) is type(default[0]) for x in value), key


def test_list_flags_parse_to_their_element_type():
    args = _build_parser().parse_args(["profile", "--indices", "10,100",
                                       "--levels", "1,0.1,0.01", "--agrid", "0.5,1"])
    assert args.indices == [10, 100] and all(type(j) is int for j in args.indices)
    assert args.levels == [1.0, 0.1, 0.01] and all(type(x) is float for x in args.levels)
    assert args.agrid == [0.5, 1.0] and all(type(x) is float for x in args.agrid)


def test_profile_schema(tmp_path):
    out = tmp_path / "profile"
    assert run_cli(["profile", "--out", str(out), "--samples", "2048",
                    "--indices", "10,100"]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    assert lines[0] == "n,rho,r_star,P_b_prime,sigma_hat,chain,kind"
    assert len(lines) == 3
    assert lines[1].startswith("10,-0.01,1,")
    assert lines[1].endswith(",tangent,exact")


def _scale_keys(path):
    """Coefficient keys of scale.csv as ((K, L), ...); a key holds commas."""
    lines = path.read_text().strip().split("\n")
    values = len(lines[0].split(",")) - 1
    keys = []
    for line in lines[1:]:
        fields = line.split(",")
        key = ",".join(fields[:len(fields) - values])
        keys.append(tuple(tuple(int(x) for x in part.split(",")) for part in key.split(";")))
    return keys


def test_scale_exact_model(tmp_path, capsys):
    # the weighted frame scales each model to its normal form
    # -1 + Re w_n + P(c w'), whose keys are P's up to an order of w'
    table = tmp_path / "mixed.json"
    table.write_text(json.dumps(mixed_weight_polynomial().to_dict()))
    for domain_spec, P in (("quartic", quartic_disc_polynomial()),
                           (str(table), mixed_weight_polynomial())):
        out = tmp_path / Path(domain_spec).stem
        capsys.readouterr()
        assert run_cli(["scale", "--out", str(out), "--domain", domain_spec,
                        "--levels", "0.01,0.001,0.0001"]) == 0
        assert float(capsys.readouterr().out.rsplit("psd min eig =", 1)[1]) >= -1e-12
        n = P.weights.n
        zero, e_n = (0,) * n, (0,) * (n - 1) + (1,)
        # a pair (K, L) stands for its conjugate (L, K) too
        keys = {tuple(sorted(key)) for key in _scale_keys(out / "scale.csv")}
        assert any(keys == {(zero, zero), (zero, e_n)}
                   | {tuple(sorted(tuple(I[i] for i in order) + (0,) for I in pair))
                      for pair in P.lifted_terms()}
                   for order in permutations(range(n - 1)))


def test_scale_tolerance_violation_exit_code(tmp_path, monkeypatch):
    # a limit Levi eigenvalue below levi_psd, or a normal reach off eps by more
    # than tau_relative, fails the run with status 3 before scale.csv is written
    diagnose, scale = cli.limit_diagnostics, cli.scale_along_normal

    def negative_levi(scaled):
        return dataclasses.replace(diagnose(scaled), psd_min_eig=-1e-3)

    def stretched_normal(rho, etas):
        run = scale(rho, etas)
        run[-1].frame.taus[-1] *= 1.0 + 1e-9
        return run

    for name, patched in (("limit_diagnostics", negative_levi),
                          ("scale_along_normal", stretched_normal)):
        with monkeypatch.context() as m:
            m.setattr(cli, name, patched)
            out = tmp_path / name
            assert run_cli(["scale", "--out", str(out)]) == 3
            assert not (out / "scale.csv").exists()


def test_floor_artifacts(tmp_path, monkeypatch):
    # the floor is the one number `floor` computes: a run never reaches
    # `analytic_floor`, and floor.json carries no interpretation value
    def refuse(*args):
        raise AssertionError("floor computed the analytic floor")

    monkeypatch.setattr(squeeze, "analytic_floor", refuse)
    for spec in ("quartic", "ball:3"):
        out = tmp_path / spec.replace(":", "-")
        assert run_cli(["floor", "--out", str(out), "--domain", spec, "--grid", "10",
                        "--samples", "2048"]) == 0
        payload = json.loads((out / "floor.json").read_text())
        assert payload["floor"] > 0.0
        assert "analytic_floor_interpretation" not in payload


def _domain_spec(tmp_path, name):
    if name != "mixed-2-3":
        return name
    poly = tmp_path / "mixed-2-3.json"
    poly.write_text(json.dumps(mixed_weight_polynomial().to_dict()))
    return str(poly)


@pytest.mark.parametrize("name, sr", [
    ("quartic", 0.1), ("ball:3", 0.1), ("mixed-2-3", 0.1), ("ball:3", 0.25)])
def test_floor_small_subdomains(tmp_path, name, sr):
    # a 200-point grid on subdomains too thin for a rejection sampler
    # drawing from the domain's bounding box
    out = tmp_path / "floor"
    assert run_cli(["floor", "--out", str(out), "--domain", _domain_spec(tmp_path, name),
                    "--s", str(sr), "--r", str(sr), "--grid", "200",
                    "--samples", "1024"]) == 0
    payload = json.loads((out / "floor.json").read_text())
    assert 0.0 < payload["floor"] <= 1.0


@pytest.mark.parametrize("name", ["quartic", "mixed-2-3"])
def test_profile_slice_level_is_exact(tmp_path, name):
    # P(b') = P(q') / (1 - q_n^2) for the slice image b of each term q,
    # correctly rounded from the terms' exact shadows
    spec = _domain_spec(tmp_path, name)
    out = tmp_path / "profile"
    assert run_cli(["profile", "--out", str(out), "--domain", spec, "--samples", "256"]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    column = lines[0].split(",").index("P_b_prime")
    written = [float(line.split(",")[column]) for line in lines[1:]]
    terms = generate(cli._load_domain(spec), "tangential", indices=_DEFAULTS["indices"]).terms
    assert written == [float(t.p_exact / (1 - t.zn_exact ** 2)) for t in terms]


def test_wbscan_ball(tmp_path):
    out = tmp_path / "wb"
    assert run_cli(["wbscan", "--out", str(out), "--domain", "ball:2",
                    "--samples", "100"]) == 0
    payload = json.loads((out / "wbscan.json").read_text())
    assert payload["passed"] is True
    assert abs(payload["min_levi"] - 1.0) < 1e-6


def test_wbscan_two_variables_is_exact(tmp_path):
    # the quartic at its defaults: the minimum 4 eps^2 / (1 - eps^4 + 4 eps^6)
    # at eps = 1e-2, read at the two ends of one segment; ball:2 reads 1
    out = tmp_path / "wb"
    assert run_cli(["wbscan", "--out", str(out)]) == 0
    payload = json.loads((out / "wbscan.json").read_text())
    eps = _DEFAULTS["exclusion"]
    exact = 4 * eps ** 2 / (1 - eps ** 4 + 4 * eps ** 6)
    assert payload["kind"] == "exact" and payload["passed"] is True
    assert payload["tested"] == payload["excluded"] == 0
    assert payload["min_levi"] == pytest.approx(exact, rel=1e-15)
    assert len((out / "wbscan.csv").read_text().splitlines()) == 3
    assert run_cli(["wbscan", "--out", str(out), "--domain", "ball:2"]) == 0
    payload = json.loads((out / "wbscan.json").read_text())
    assert payload["kind"] == "exact" and payload["min_levi"] == 1.0


def test_wbscan_three_variables_is_sampled(tmp_path):
    out = tmp_path / "wb"
    assert run_cli(["wbscan", "--out", str(out), "--domain", "ball:3",
                    "--samples", "100"]) == 0
    payload = json.loads((out / "wbscan.json").read_text())
    assert payload["kind"] == "sampled"
    assert payload["tested"] + payload["excluded"] == 100
    assert len((out / "wbscan.csv").read_text().splitlines()) == payload["tested"] + 1


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
    # each value must have its default's type (an int may stand for a float)
    for bad in ({"samples": "x"}, {"samples": 1.5}, {"levels": 0.01},
                {"indices": [10, "a"]}, {"seed": True}, {"agrid": []}):
        cfg.write_text(json.dumps(bad))
        assert run_cli(["limits", "--config", str(cfg),
                        "--out", str(tmp_path / "x")]) == 2, bad
    # a domain file that is not JSON, or holds no terms
    for name, text in (("notjson.json", "not json"),
                       ("noterms.json", json.dumps({"n": 2, "m": [2]}))):
        (tmp_path / name).write_text(text)
        assert run_cli(["classify", "--domain", str(tmp_path / name),
                        "--out", str(tmp_path / "x")]) == 2, name


def test_invalid_parameter_rejected(tmp_path):
    assert run_cli(["floor", "--out", str(tmp_path / "y"), "--r", "1.5"]) == 2


@pytest.mark.parametrize("args", [
    ["floor", "--grid", "0"],
    ["classify", "--count", "0"],
    ["profile", "--indices", "0"],
    ["profile", "--indices", "10,-1"],
    ["limits", "--b", "1.5"],
    ["limits", "--b", "-0.1"],
    ["convergence", "--eps", "0.7"],
    ["convergence", "--eps", "0"],
    ["convergence", "--uradius", "-1"],
    ["wbscan", "--exclusion", "-1"],
    ["convergence", "--agrid", "nan"],
    ["convergence", "--uradius", "nan"],
    ["convergence", "--uradius", "inf"],
    ["convergence", "--eps", "nan"],
    ["limits", "--agrid", "nan"],
    ["limits", "--b", "nan"],
    ["floor", "--s", "nan"],
    ["floor", "--r", "nan"],
    ["classify", "--ratio", "nan"],
    ["wbscan", "--exclusion", "nan"],
    ["wbscan", "--exclusion", "inf"],
    ["scale", "--levels", "nan,0.001,0.0001"],
    ["scale", "--levels", "inf,0.001,0.0001"],
    ["scale", "--levels", "0.01,0.001"],
    # the exclusion tube swallows every boundary sample of the quartic
    ["wbscan", "--exclusion", "5", "--samples", "100"],
    ["classify", "--domain", "ball:x"],
    ["classify", "--domain", "ball:1"],
    ["classify", "--domain", "ball:0"],
    # seeds outside [0, 2**63)
    ["profile", "--seed", "-1"],
    ["wbscan", "--seed", "-1"],
    ["convergence", "--seed", "-1"],
    ["floor", "--seed", str(2 ** 130)],
    ["floor", "--seed", str(2 ** 63)],
    # sequences that cannot be built: a term rounds onto the boundary, a
    # cone term leaves the subdomain scale, and terms whose float points
    # miss their exact rho by more than half
    ["profile", "--indices", "1000000000"],
    ["classify", "--kind", "cone", "--s", "0.001"],
    ["profile", "--indices", "10,100000000"],
    ["profile", "--indices", "10,10000000000000000"],
    # a Moebius parameter on the unit circle
    ["convergence", "--agrid", "0.5,1"],
])
def test_out_of_range_parameter_rejected(tmp_path, args):
    assert run_cli(args + ["--out", str(tmp_path / "v")]) == 2


def test_empty_indices_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"indices": []}))
    assert run_cli(["profile", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2


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


def test_uncertified_table_exit_code(tmp_path, capsys):
    # |z1 - z2|^4 vanishes on z1 = z2; a sampled scan once let it build an
    # unbounded domain
    poly = tmp_path / "double-root.json"
    poly.write_text(json.dumps(double_root_polynomial().to_dict()))
    assert run_cli(["profile", "--out", str(tmp_path / "p"), "--domain", str(poly)]) == 3
    assert "not certified" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_coefficient_exit_code(tmp_path, capsys, value):
    # json writes the bare tokens NaN and Infinity, which json.load reads back
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 2, "m": [2], "terms": [{"K": [2], "L": [2], "re": value, "im": 0.0}]}))
    assert run_cli(["classify", "--out", str(tmp_path / "z"), "--domain", str(poly)]) == 3
    assert "coefficient for ((2,), (2,)) is not finite" in capsys.readouterr().err


def test_steep_table_profile(tmp_path):
    # P = 1e12 |z_1|^4: the reference rays alone put the bounding radius at
    # 0.19, below the norms of the sequence terms, and the chain family
    # could not be built
    poly = tmp_path / "steep.json"
    poly.write_text(json.dumps({
        "n": 2, "m": [2], "terms": [{"K": [2], "L": [2], "re": 1e12, "im": 0.0}]}))
    out = tmp_path / "p"
    assert run_cli(["profile", "--out", str(out), "--domain", str(poly)]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    column = lines[0].split(",").index("sigma_hat")
    sigma = [float(line.split(",")[column]) for line in lines[1:]]
    assert len(sigma) == 4 and all(0.0 < v <= 1.0 for v in sigma)


def test_boundary_residual_violation_exit_code(tmp_path, monkeypatch):
    # scanned points pushed off the boundary: their |rho| exceeds the
    # manifest's boundary_residual tolerance, so the run fails with status 3
    # before writing the scan; on three variables the scan reads a cloud
    cloud = domain.GeneralEllipsoid.boundary_cloud
    monkeypatch.setattr(domain.GeneralEllipsoid, "boundary_cloud",
                        lambda self, count, seed=0: 1.001 * cloud(self, count, seed))
    out = tmp_path / "w"
    assert run_cli(["wbscan", "--out", str(out), "--samples", "100",
                    "--domain", "ball:3"]) == 3
    assert not (out / "wbscan.csv").exists()


def test_boundary_residual_violation_exit_code_two_variables(tmp_path, monkeypatch):
    # the two segment ends the n = 2 scan reads pass through the same gate:
    # a gauge read 1e-9 too high puts them off the boundary, so status 3
    rho = domain.GeneralEllipsoid.rho
    monkeypatch.setattr(domain.GeneralEllipsoid, "rho", lambda self, z: rho(self, z) + 1e-9)
    out = tmp_path / "w"
    assert run_cli(["wbscan", "--out", str(out)]) == 3
    assert not (out / "wbscan.csv").exists()


def test_basepoint_centering_violation_exit_code(tmp_path, monkeypatch):
    # no chain centres its basepoint within a negative basepoint_centering
    # tolerance, so the run fails with status 3 before writing the profile
    monkeypatch.setattr(squeeze, "BASEPOINT_TOL", -1.0)
    out = tmp_path / "p"
    assert run_cli(["profile", "--out", str(out), "--samples", "256"]) == 3
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize("name", ["ball:2", "ball:3"])
def test_profile_centres_basepoints_next_to_the_sphere(tmp_path, name):
    # at j = 10^7 the ball parameters sit 2.5e-8 inside the sphere, where an
    # ulp off the chain's own image of p is a real pseudo-hyperbolic
    # offset; each chain centres that image, so the run passes
    # basepoint_centering
    out = tmp_path / "p"
    assert run_cli(["profile", "--out", str(out), "--domain", name,
                    "--indices", "10,10000000"]) == 0
    D = domain.GeneralEllipsoid.unit_ball(int(name[-1]))
    for term in generate(D, "tangential", indices=[10, 10000000]).terms:
        assert squeeze.chain_family(D, term.z)[1].check_basepoint() == 0.0


def test_slice_floor_centering_violation_exit_code(tmp_path, monkeypatch):
    # the exact floor checks the three chains at its minimizer (t*, 0)
    monkeypatch.setattr(squeeze, "BASEPOINT_TOL", -1.0)
    out = tmp_path / "f"
    assert run_cli(["floor", "--out", str(out)]) == 3
    assert not (out / "floor.json").exists()


@pytest.mark.parametrize("name", ["quartic", "ball:3"])
def test_floor_json_says_what_the_floor_is(tmp_path, name):
    # an n = 2 floor is exact, found on the slice with no grid or cloud; an
    # n >= 3 floor is sampled at the slice images of its grid.  Either way
    # its argmin is a slice point
    out = tmp_path / "floor"
    assert run_cli(["floor", "--out", str(out), "--domain", name, "--grid", "10",
                    "--samples", "1024"]) == 0
    payload = json.loads((out / "floor.json").read_text())
    if name == "quartic":
        assert payload["kind"] == "exact"
        assert (payload["grid_count"], payload["samples"]) == (0, 0)
        assert payload["argmin"][1] == [0.0, 0.0]
        assert abs(payload["argmin"][0][0] - 0.5953) < 1e-4
    else:
        assert payload["kind"] == "sampled"
        assert (payload["grid_count"], payload["samples"]) == (10, 1024)
        assert payload["argmin"][-1] == [0.0, 0.0]


def test_ball_profile_and_floor_read_one(tmp_path):
    # on the ball the normalizing and tangent chains are ball automorphisms,
    # whose exact radius is 1: sigma_hat and the floor lie within one float
    # step of it
    below_one = 1.0 - 2.0 ** -53
    out = tmp_path / "profile"
    assert run_cli(["profile", "--out", str(out), "--domain", "ball:2"]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    column = lines[0].split(",").index("sigma_hat")
    assert all(below_one <= float(line.split(",")[column]) <= 1.0 for line in lines[1:])
    for r in ("0.5", "1"):
        out = tmp_path / f"floor-{r}"
        assert run_cli(["floor", "--out", str(out), "--domain", "ball:2", "--r", r]) == 0
        assert below_one <= json.loads((out / "floor.json").read_text())["floor"] <= 1.0


def test_domain_file_round_trip(tmp_path):
    from ellsqueeze.wpoly import quartic_disc_polynomial
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(quartic_disc_polynomial().to_dict()))
    out = tmp_path / "out"
    assert run_cli(["classify", "--out", str(out), "--domain", str(poly),
                    "--count", "5"]) == 0


# builds the domains, runs the experiments that draw no cloud, then the four
# that do, and prints the scipy modules loaded before and after those four
_COLD_START = """
import contextlib, io, json, sys
from ellsqueeze import cli
from ellsqueeze.errors import PositivityError
out = sys.argv[1]
refused = []
for spec in sys.argv[2:]:
    try:
        cli._load_domain(spec)
    except PositivityError:
        refused.append(spec)
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
with contextlib.redirect_stdout(io.StringIO()):
    status = [cli.main([name, "--out", out + "/" + name])
              for name in ("scale", "limits", "classify")]
    before = scipy_modules()
    status += [cli.main([name, "--samples", "256", "--out", out + "/" + name])
               for name in ("profile", "convergence", "wbscan")]
    status.append(cli.main(["floor", "--grid", "4", "--samples", "256",
                            "--out", out + "/floor"]))
print(json.dumps([status, before, scipy_modules(), refused]))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # building a domain, or refusing a table the Gram certificate declines
    # (|z1 - z2|^4, whose monomials are not all pure powers), never imports
    # scipy, and neither does any of the seven experiments, with or without
    # boundary clouds
    tables = []
    for name, P in (("e23", WeightedPolynomial(MultiWeight((2, 3)), {
            ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0})),
                    ("mixed", mixed_weight_polynomial()),
                    ("double-root", double_root_polynomial())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(P.to_dict()))
        tables.append(str(path))
    src = str(Path(ellsqueeze.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _COLD_START,
         str(tmp_path), "quartic", "ball:3", *tables],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, before, after, refused = json.loads(proc.stdout.splitlines()[-1])
    assert refused == tables[-1:]
    assert status == [0] * 7
    assert before == []
    assert after == []
