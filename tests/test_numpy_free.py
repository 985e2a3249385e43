"""The sharing, transport and consensus layers need no numpy: only training
and the workflows built on it do.  A fresh interpreter with numpy blocked
imports each numpy-free module, and still refuses the training module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NUMPY_FREE = ("wire", "field", "vss", "crypto", "consensus", "netsim")

BLOCKED = """
import importlib, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
for name in sys.argv[1:]:
    importlib.import_module("bftvss." + name)
try:
    importlib.import_module("bftvss.training")
except ImportError:
    pass
else:
    sys.exit("bftvss.training imported with numpy blocked")
"""


def test_numpy_free_modules_import_with_numpy_blocked():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", BLOCKED, *NUMPY_FREE], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
