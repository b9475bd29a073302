"""Shows that the output checks catch broken results.

    python3 perfbench/selftest.py

Runs a few operations of each workload on seeded inputs, requires each to
pass its check, then runs it again with its artifact or result deliberately
corrupted and requires that run to be counted as a failure.  Exits 1 if any
expectation does not hold.  Takes about 10 s.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)
from workloads import Op, run_op  # noqa: E402


def _edit_csv(path: Path, column: str, value: str) -> None:
    """Overwrite `column` in the first data row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    fields[header.index(column) - len(header)] = value
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _artifact(op_name: str, inputs, filename: str) -> Path:
    return Path(workloads.config(inputs, op_name)["out"]) / filename


def cases(inputs):
    """(operation, corruption of its result) pairs, one or more per workload."""
    def rewrite(op_name, filename, column, value):
        def corrupt(status):
            _edit_csv(_artifact(op_name, inputs, filename), column, value)
            return status
        return corrupt

    def skew_frame(result):
        result[0].frame.unitary[:, 0] *= 1.0 + 1e-6
        return result

    return [
        ("profile_mixed", rewrite("profile_mixed", "profile.csv", "P_b_prime", "0.5")),
        ("convergence", rewrite("convergence", "convergence.csv", "fraction_inside", "1.5")),
        ("wbscan", rewrite("wbscan", "wbscan.csv", "residual", "1e-3")),
        ("limits", rewrite("limits", "limits.csv", "c3", "nan")),
        ("scale", rewrite("scale", "scale.csv", "re_j0", "-0.5")),
        ("scale_0.01", skew_frame),
        ("classify_cone", lambda status: 3),
    ]


def main() -> int:
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.setup(1, work)[0]
    ops = {op.name: op for build in workloads.OPS.values() for op in build(inputs)}
    ok = True
    for name, corrupt in cases(inputs):
        op = ops[name]
        clean = run_op(op)
        bad = run_op(Op(name, lambda op=op, corrupt=corrupt: corrupt(op.call()), op.check))
        good = not clean.problems and bool(bad.problems)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: clean {clean.problems or 'ok'}; "
              f"corrupted {bad.problems or 'not detected'}")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
