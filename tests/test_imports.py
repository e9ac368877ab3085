import ast
import os
import subprocess
import sys
from pathlib import Path

import radden


def test_package_imports_load_no_scipy():
    """Importing the package, its benchmark layer and its CLI loads no scipy
    module.  `scipy.signal` took about 1.2 s to import, and scipy brings its
    own OpenBLAS with a second thread pool beside numpy's."""
    code = ("import sys, radden, radden.bench, radden.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(radden.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


CONCURRENCY_MODULES = {"threading", "multiprocessing", "concurrent.futures",
                       "ctypes"}


def _imported(node):
    """The modules and module.names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}"
                                for alias in node.names]
    return []


def test_only_the_parallel_module_imports_concurrency():
    """Threads, worker processes, locks and the ctypes BLAS lookup live in
    radden._parallel alone."""
    root = Path(radden.__file__).parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {name for node in ast.walk(tree) for name in _imported(node)
                 if name in CONCURRENCY_MODULES
                 or name.split(".")[0] in CONCURRENCY_MODULES}
        if names:
            found[path.relative_to(root).as_posix()] = names
    assert set(found) == {"_parallel.py"}, found


def test_autoencoders_import_no_private_solver_but_the_bound():
    """The trainers reach ISTA through the public `ista_gram`; of the
    solver module's private names they use only `_gram_bound`."""
    path = Path(radden.__file__).parent / "autoencoders.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "sparse_solvers" and node.level == 1
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_gram_bound"}, private
