"""Write every CLI experiment's artifacts at their defaults, for a diff between checkouts.

    python bench/artifacts.py OUT

runs the seven experiments of `ellsqueeze.cli` at their default
configuration, `classify` also with `--kind cone` and `--kind normal`,
`floor` also on the thin subdomain s = r = 0.1 (`floor-small`), and
`profile`, `floor`, `convergence` and `wbscan` also at sample counts that
span several 2^14-row blocks of the cloud kernels (`profile-large` at 2^17
samples, `floor-large` at 2^16 samples over 48 grid points,
`convergence-large` at 40000 and `wbscan-large` at 50000), on five
domains: `quartic`, `ball:2`, `ball:3`, the m = (2, 3) table with a
z1^2 conj(z2)^3 cross term of the kernel benchmarks, one member of the
family `perfbench` draws its mixed-weight tables from (written to
OUT/mixed-2-3.json), and 3|z1|^6 (written to OUT/3z6.json).  `ball:2` is
the m = 1 table of the exact n = 2 path; each of its floors ties with 1 up
to rounding, so the `argmin` its ties pick moves with any bit of that
path.  3|z1|^6 is the one n = 2 table with a != 1, so its chains are the
only ones that scale z1 by a^{1/(2m)}: in the 1/a^{1/(2m)} of the trivial
and normalizing rows and in the tangent chain's affine step.  Each run is
a fresh interpreter on the package of the checkout holding this script,
started in OUT with relative paths, so its manifest does not name OUT.
Run `r` of domain `d` (an experiment or one of the named variants above)
writes its artifacts to OUT/d/r/ together with `stdout.txt`: its exit
status and everything it printed.  Two checkouts then compare with one

    diff -r OUT_A OUT_B

which is empty when the two programs write the same bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from ellsqueeze.cli import EXPERIMENTS  # noqa: E402
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial  # noqa: E402
from test_kernels import _mixed_weight_polynomial  # noqa: E402

# domain file name -> its table
TABLES = {
    "mixed-2-3.json": _mixed_weight_polynomial(),
    "3z6.json": WeightedPolynomial(MultiWeight((3,)), {((3,), (3,)): 3.0}),
}
DOMAINS = {"quartic": "quartic", "ball-2": "ball:2", "ball-3": "ball:3",
           "mixed-2-3": "mixed-2-3.json", "3z6": "3z6.json"}
# run name -> CLI arguments after the domain: every experiment at its
# defaults, then `classify` on the two sequence kinds it does not default to
# and `floor` on a subdomain far thinner than the domain's bounding box
RUNS = {experiment: [experiment] for experiment in EXPERIMENTS}
RUNS.update({f"classify-{kind}": ["classify", "--kind", kind] for kind in ("cone", "normal")})
RUNS["floor-small"] = ["floor", "--s", "0.1", "--r", "0.1"]
# and the cloud experiments at sample counts past one util.BLOCK (2^14 rows),
# where the cloud kernels work in several blocks
RUNS.update({
    "profile-large": ["profile", "--samples", "131072"],
    "floor-large": ["floor", "--samples", "65536", "--grid", "48"],
    "convergence-large": ["convergence", "--samples", "40000"],
    "wbscan-large": ["wbscan", "--samples", "50000"],
})


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for name, table in TABLES.items():
        (out / name).write_text(json.dumps(table.to_dict(), indent=1) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    failed = 0
    for name, spec in DOMAINS.items():
        for run_name, args in RUNS.items():
            run = Path(name) / run_name
            proc = subprocess.run(
                [sys.executable, "-m", "ellsqueeze.cli", *args,
                 "--domain", spec, "--out", str(run)],
                cwd=out, env=env, capture_output=True, text=True)
            (out / run).mkdir(parents=True, exist_ok=True)
            (out / run / "stdout.txt").write_text(
                f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}", encoding="utf-8")
            failed += proc.returncode != 0
            print(f"{run}: exit {proc.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1])))
