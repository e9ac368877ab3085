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
