"""Reach scan: the functions of src/radden that no command and no benchmark
workload runs.

    python3 tools/reach_scan.py

The program is imported from this checkout's src/ and the workloads from its
perfbench/.  Every Python call is recorded through sys.setprofile and
threading.setprofile, so calls on pool threads count too, while the scan runs,
in one temporary directory:

- `radden generate` and `radden train` on a tiny spectrogram config;
- `radden sweep` on three tiny configs: spectrograms on the mismatch axis with
  all five algorithms, frontal images on the snr axis, and HRRPs on the scr
  axis with pfa > 0;
- `radden report` on the three sweeps' CSVs;
- the set-up and one op of each workload in perfbench/workloads.py.

It then prints each function of src/radden whose code never ran, with its
line span (its first decorator or `def` line to its last line, docstring
included), and the totals.  Each unreached function must be listed in KEPT
with the reason it stays: the scan exits 1 when an unreached function is not
in KEPT, or when a KEPT name no longer names a function, and 0 otherwise.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radden"

# tiny trainers: every block update runs, in a fraction of a second
_TRAIN = """
[train]
dae_nodes = 16
sparse_nodes = 16
stacked_sizes = 24 16 8
outer_iterations = 2
ista_iterations = 5
"""

# module.qualified_name -> why the function stays although the scan does not
# reach it
KEPT = {
    "sparse_solvers.ista_solve": "wrapped by perfbench/tracing.py",
    "sparse_solvers.lipschitz_bound": "wrapped by perfbench/tracing.py",
    "autoencoders.objective_value":
        "wrapped by perfbench/tracing.py; the trainers' test oracle",
    "metrics.nmse": "wrapped by perfbench/tracing.py; perfbench/tests import it",
    "autoencoders.inference_flops": "perfbench/tracing.py's counter reads it",
    "autoencoders.AutoencoderWeights.activation":
        "perfbench/checks.py's check_infer reads activation.kind",
    "dataset.stack_io.load_stack": "reader of the stack format",
    "dataset.stack_io.load_dataset": "reader of the paired-dataset directory",
    "autoencoders.load_weights": "reader of the weights format",
    "metrics.ssim": "the acceptance suite's metric, and the per-image "
                    "reference of ssim_stack's tests",
    "dataset.signatures.RadarConfig.unambiguous_range":
        "the acceptance suite's range check",
    "bench.sweep.csv_content_hash": "README's recorded sweep hashes come from it",
    "cli._cmd_accept": "`radden accept`; the scan does not run the acceptance "
                       "suite",
    "dataset.channel.WallClass._missing_":
        "an unknown wall class raises ConfigError, not ValueError",
    "bench.config.DatasetSpec.count":
        "a trivial property; the acceptance suite reads it",
    "_parallel._counted": "runs only where a pool starts, so not on one core",
}

CONFIGS = {
    "spectrogram": """
[dataset]
kind = spectrogram
realizations = 2
intervals = 2
noise_draws = 3

[sweep]
axis = mismatch
values = 0 0.5
seeds = 0
algorithms = dae sparse_dae stacked_sdae svd wavelet
""",
    "frontal": """
[dataset]
kind = frontal
realizations = 2
intervals = 2
noise_draws = 3

[sweep]
axis = snr
values = -10 10
seeds = 0
""",
    "hrrp": """
[dataset]
kind = hrrp
bandwidth_hz = 2e9
freq_count = 64
realizations = 2
intervals = 2
noise_draws = 3
pfa = 0.01

[sweep]
axis = scr
values = 0 10
seeds = 0
""",
}


def _functions():
    """(path, first line, last line, module.qualified name) of every
    function and method in the package, nested ones included.  The first
    line is the first decorator's, as in the function's code object."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found.append((path, first, child.end_lineno, name))
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), path, module + ".")
    return found


def _run(cli, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"radden {' '.join(argv)} exited {code}")


def _exercise(tmp):
    from radden import cli

    paths = {}
    for name, text in CONFIGS.items():
        paths[name] = tmp / f"{name}.ini"
        paths[name].write_text(text + _TRAIN)
    spectrogram = str(paths["spectrogram"])
    _run(cli, "generate", "--config", spectrogram, "--out", str(tmp / "data"))
    _run(cli, "train", "--config", spectrogram, "--out", str(tmp / "weights"))
    for name, path in paths.items():
        _run(cli, "sweep", "--config", str(path), "--out", str(tmp / name))
    _run(cli, "report", *(str(tmp / name / "sweep.csv") for name in paths),
         "--out", str(tmp / "report"))

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for workload in workloads.WORKLOADS.values():
        workload.op(workload.setup(1))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import radden
    if Path(radden.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"imported radden from {radden.__file__}, not {PACKAGE}")

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _exercise(Path(tmp))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno)
               for code in called}
    functions = _functions()
    unreached = [f for f in functions if (f[0], f[1]) not in reached]
    lines = 0
    for path, start, end, name in unreached:
        lines += end - start + 1
        print(f"{path.relative_to(ROOT)}:{start}-{end}  {name}  "
              f"({end - start + 1} lines)")
    print(f"unreached: {len(unreached)} of {len(functions)} functions, "
          f"{lines} lines")
    unlisted = [name for *_, name in unreached if name not in KEPT]
    stale = sorted(set(KEPT) - {name for *_, name in functions})
    for name in unlisted:
        print(f"error: {name} is unreached and not in KEPT")
    for name in stale:
        print(f"error: KEPT lists {name}, which is no function of src/radden")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
