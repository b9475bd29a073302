"""Kernel microbenchmarks, outside the tier-1 suite.

    pytest bench --benchmark-only

`GeneralEllipsoid.boundary_cloud` draws boundary clouds (the R_d sphere
draw and the closed-form dilation of each point onto the boundary) on the
quartic, E(2, 3), the ball in C^3 and the m = (2, 3) domain with a
z1^2 conj(z2)^3 cross term.  `first_crossing`, which serves reach radii
only, solves the `scaling.PHASE_GRID` phases of one line on the translated
m = (2, 3) graph-model table at eta = (0, 0, -1e-3), as `scaling` does for
each reach before refining the worst phase.  `build_frame` builds one
frame at (0', -1e-3) with eps = 1e-3 on the quartic and the m = (2, 3)
graph models: the translated table and the n reach lines, searched
together.  `scale_along_normal` builds the frames
and scaled tables of that graph model at delta = 1e-2, 1e-3 and 1e-4.
`bounding_radius` computes its closed form on a fresh quartic, E(2, 3) and
m = (2, 3) domain each round, the domain built outside the timed call; it
times the closed form only, since the Gram solve behind the power floor
runs at construction.  `analytic_floor`, which no experiment calls, runs
at r = 0.5 on the quartic, whose level sets have 2 real coordinates, and
on the m = (2, 3) domain, whose 4 let the bounding boxes of its blocks rule
out fewer block pairs; the level sets are sampled, and the gap search
between them is exact.  The cold start is a fresh interpreter that imports
the package and builds the m = (2, 3) domain, as each CLI run and
benchmark set-up probe does.  The cold `floor` is a fresh interpreter that
runs the `floor` experiment on the quartic with `--grid 8 --samples 1024`,
which the exact slice floor does not read, so it times imports and one
slice floor.  Neither loads scipy.
`squeeze_estimates` runs over the 64-point floor grid of D^{0.5,0.5}
(`subdomain_grid`, the cloud's first 64 sphere points dilated into the
subdomain in closed form): sampled on the m = (2, 3) domain over a warm
2^14 cloud, which each chain reads unmoved through its closing pair, and
exact on the quartic, where each of the three chains' radii is
a one-parameter minimum in closed form and no cloud is drawn: a root solve
of the stationary polynomial for the normalizing and tangent chains, a
grid-and-zoom search for the trivial chain off the slice.  The exact
profile runs it over the four `profile` terms (j = 10, 100, 1000, 10^4) on
the quartic.  `gamma_floor` runs one exact slice floor on the quartic
(r = 0.5), the least over the slice of the larger of the normalizing and
tangent radii (the trivial chain's radius lies below the normalizing one
there): one batched root solve of both radii over a grid, then one
two-row root solve per secant step toward their crossing, and sampled
floors over that 64-point grid at 2^14
samples, the size of each `perfbench` floor, on the m = (2, 3) domain and
on the ball in C^3; each sampled call draws its own cloud and grid, moves
each grid point to its slice image and screens the normalizing chain there
alone, so both domains do the same screen work: 64 closing pairs over the
whole cloud.
`HermitianPolynomial.value` runs at cloud scale (the quartic gauge at
2^17 points, the m = (2, 3) gauge at 2^13) and at frame scale (1 and 32
points of the translated m = (2, 3) graph-model table).
`EllipsoidAutomorphism.apply` maps one boundary point of the quartic and
of the m = (2, 3) domain, whose weights take the square-root and
cube-root slice factors: the traffic `chain_family` and
`EmbeddingChain.check_basepoint` make, one point per call.
`exhaustion_check` runs the `convergence` experiment's check on the
quartic at 2^15 samples over the CLI's default a-grid: the boundary cloud,
its shrunk copies, and the closed-form inclusion test at each a.
`samples_to_csv` writes the text of a `wbscan`-style CSV for a 2^12-point
quartic cloud: the points outside the exclusion tube |z_1| < 1e-2, with
their residuals and Levi eigenvalues, all computed outside the timed call.
(The quartic's own `wbscan` writes two rows, the ends of one segment.)
`levi_min_eig` computes the restricted Levi eigenvalue over a 2^12-point
quartic cloud: the gauge's gradient and Hessian, the tangent basis from
the closed-form Householder reflector, and one batched 1 x 1 eigenvalue
call.  `wb_scan` runs the sampled scan on E(2, 3) at 2^12 samples, the
path every n >= 3 table takes: the cloud, the tube filter, the Levi
eigenvalues of the kept points and their minimum.
Inputs other than the cloud's sphere draw are built outside the timed calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellsqueeze
from ellsqueeze import scaling, squeeze
from ellsqueeze.automorphisms import EllipsoidAutomorphism
from ellsqueeze.domain import GeneralEllipsoid, SubdomainParams, samples_to_csv
from ellsqueeze.domconv import exhaustion_check
from ellsqueeze.hermpoly import RAY_CAP, first_crossing
from ellsqueeze.sequences import generate
from ellsqueeze.util import complex_sphere
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial, quartic_disc_polynomial


def _mixed_weight_polynomial():
    return WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.1, ((0, 3), (0, 3)): 0.9,
        ((2, 0), (0, 3)): 0.08 * np.exp(0.7j)})


@pytest.mark.parametrize("domain, count", [
    (GeneralEllipsoid.quartic_disc, 1 << 17),
    (lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0})), 1 << 15),
    (lambda: GeneralEllipsoid.unit_ball(3), 1 << 15),
    (lambda: GeneralEllipsoid(_mixed_weight_polynomial()), 1 << 13),
], ids=["quartic-2^17", "E-2-3-2^15", "ball-3-2^15", "mixed-2-3-2^13"])
def test_solve_boundary(benchmark, domain, count):
    D = domain()
    pts = benchmark(D.boundary_cloud, count, 0)
    assert np.abs(D.rho(pts)).max() <= 1e-10


def _translated_frame_table():
    rho = scaling.DefiningFunctionPoly.graph_model(_mixed_weight_polynomial())
    return scaling._translated(rho, np.array([0.0, 0.0, -1e-3]))


@pytest.mark.parametrize("table, points", [
    (lambda: GeneralEllipsoid.quartic_disc().gauge, 1 << 17),
    (lambda: GeneralEllipsoid(_mixed_weight_polynomial()).gauge, 1 << 13),
    (_translated_frame_table, 1),
    (_translated_frame_table, 32),
], ids=["quartic-2^17", "mixed-2-3-2^13", "frame-1", "frame-32"])
def test_value(benchmark, table, points):
    q = table()
    z = 0.5 * complex_sphere(points, q.d, 0)
    assert np.isfinite(benchmark(q.value, z)).all()


@pytest.mark.parametrize("domain", [
    GeneralEllipsoid.quartic_disc, lambda: GeneralEllipsoid(_mixed_weight_polynomial()),
], ids=["quartic-1pt", "mixed-2-3-1pt"])
def test_automorphism_apply(benchmark, domain):
    D = domain()
    point = D.boundary_cloud(1, 0)
    psi = EllipsoidAutomorphism(a=0.9 * np.exp(0.4j), theta=0.3)
    assert np.isfinite(benchmark(psi.apply, D.P.weights, point)).all()


def test_exhaustion_check(benchmark):
    D = GeneralEllipsoid.quartic_disc()
    report = benchmark(exhaustion_check, D, 0.5, [0.5, 0.9, 0.99, 0.999, 0.9999],
                       count=1 << 15, seed=0)
    assert report.passed


def test_samples_to_csv(benchmark, tmp_path):
    D = GeneralEllipsoid.quartic_disc()
    cloud = D.boundary_cloud(1 << 12, 0)
    points = cloud[np.abs(cloud[:, 0]) >= 1e-2]
    residual, levi = np.abs(D.rho(points)), D.levi_min_eig(points)
    path = tmp_path / "wbscan.csv"
    benchmark(samples_to_csv, path, points, residual, levi)
    assert len(path.read_text().splitlines()) == len(points) + 1


def test_wb_scan(benchmark):
    D = GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0}))
    scan = benchmark(D.wb_scan, 1 << 12, 0)
    assert scan.kind == "sampled" and scan.passed


def test_levi_min_eig(benchmark):
    D = GeneralEllipsoid.quartic_disc()
    cloud = D.boundary_cloud(1 << 12, 0)
    assert (benchmark(D.levi_min_eig, cloud) >= -1e-12).all()


def test_first_crossing_frame_line(benchmark):
    eps = 1e-3
    q = _translated_frame_table()
    phases = np.linspace(0.0, 2.0 * np.pi, scaling.PHASE_GRID, endpoint=False)
    u = np.exp(1j * phases)[:, None] * complex_sphere(1, q.d, 0)
    t = benchmark(first_crossing, q, u, eps, RAY_CAP)
    assert np.isfinite(t).all()


@pytest.mark.parametrize("P", [quartic_disc_polynomial, _mixed_weight_polynomial],
                         ids=["quartic", "mixed-2-3"])
def test_build_frame(benchmark, P):
    rho = scaling.DefiningFunctionPoly.graph_model(P())
    eta = np.zeros(rho.d, dtype=complex)
    eta[-1] = -1e-3
    frame = benchmark(scaling.build_frame, rho, eta, 1e-3)
    assert frame.taus[-1] == pytest.approx(1e-3, rel=1e-12)


def test_scale_along_normal(benchmark):
    rho = scaling.DefiningFunctionPoly.graph_model(_mixed_weight_polynomial())
    etas = [np.array([0.0, 0.0, -d]) for d in (1e-2, 1e-3, 1e-4)]
    run = benchmark(scaling.scale_along_normal, rho, etas)
    assert not scaling.limit_diagnostics(run).diverged


def test_cold_start(benchmark):
    src = str(Path(ellsqueeze.__file__).resolve().parent.parent)
    table = json.dumps(_mixed_weight_polynomial().to_dict())
    script = ("import sys; sys.path.insert(0, sys.argv[1])\n"
              "from ellsqueeze import GeneralEllipsoid, WeightedPolynomial\n"
              "GeneralEllipsoid(WeightedPolynomial.from_json(sys.argv[2]))")
    proc = benchmark.pedantic(subprocess.run, args=([sys.executable, "-c", script, src, table],),
                              rounds=10)
    assert proc.returncode == 0


def test_cold_floor(benchmark, tmp_path):
    src = str(Path(ellsqueeze.__file__).resolve().parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1])\n"
              "from ellsqueeze import cli\n"
              "sys.exit(cli.main(['floor', '--grid', '8', '--samples', '1024',"
              " '--out', sys.argv[2]]))")
    proc = benchmark.pedantic(subprocess.run,
                              args=([sys.executable, "-c", script, src, str(tmp_path)],),
                              kwargs={"capture_output": True}, rounds=10)
    assert proc.returncode == 0


@pytest.mark.parametrize("domain", [
    GeneralEllipsoid.quartic_disc,
    lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0})),
    lambda: GeneralEllipsoid(_mixed_weight_polynomial()),
], ids=["quartic", "E-2-3", "mixed-2-3"])
def test_bounding_radius(benchmark, domain):
    R = benchmark.pedantic(GeneralEllipsoid.bounding_radius, setup=lambda: ((domain(),), {}),
                           rounds=200)
    assert R >= 1.0


@pytest.mark.parametrize("domain", [
    GeneralEllipsoid.quartic_disc, lambda: GeneralEllipsoid(_mixed_weight_polynomial()),
], ids=["quartic", "mixed-2-3"])
def test_analytic_floor(benchmark, domain):
    D = domain()
    assert benchmark(squeeze.analytic_floor, D, 0.5) > 0.0


def _floor_grid(D):
    return squeeze.subdomain_grid(D, SubdomainParams(0.5, 0.5), 64, 0)


@pytest.mark.parametrize("domain, points, count", [
    (lambda: GeneralEllipsoid(_mixed_weight_polynomial()), _floor_grid, 1 << 14),
    (GeneralEllipsoid.quartic_disc, _floor_grid, 0),
], ids=["mixed-2-3-floor-grid-64-2^14", "quartic-floor-grid-64-exact"])
def test_squeeze_estimates(benchmark, domain, points, count):
    D = domain()
    if count:
        D.boundary_cloud(count, 0)
    ests = benchmark(squeeze.squeeze_estimates, D, points(D), count, 0)
    assert all(0.0 < est.value <= 1.0 for est in ests)


def test_exact_profile(benchmark):
    D = GeneralEllipsoid.quartic_disc()
    terms = [t.z for t in generate(D, "tangential", indices=[10, 100, 1000, 10000]).terms]
    ests = benchmark(squeeze.squeeze_estimates, D, terms)
    assert [est.kind for est in ests] == ["exact"] * 4
    assert ests[-1].value > 0.9999


def test_slice_floor(benchmark):
    report = benchmark(squeeze.gamma_floor, GeneralEllipsoid.quartic_disc(), 0.5, 0.5)
    assert report.kind == "exact"
    assert abs(report.value - 0.69111) <= 1e-5


@pytest.mark.parametrize("domain", [
    lambda: GeneralEllipsoid(_mixed_weight_polynomial()), lambda: GeneralEllipsoid.unit_ball(3),
], ids=["mixed-2-3", "ball-3"])
def test_sampled_floor(benchmark, domain):
    report = benchmark(squeeze.gamma_floor, domain(), 0.5, 0.5, 64, 1 << 14, 0)
    assert report.kind == "sampled"
    assert 0.0 < report.value <= 1.0
