"""`tests/oracles.py` loads nothing but the standard library: its oracles
share no code with plumbook's."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_module_loads_no_plumbook_module_and_only_the_standard_library():
    # a fresh interpreter in the repository root, with src/ off sys.path: no
    # PYTHONPATH, and -S keeps an installed or editable plumbook off it too
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tests.oracles\n"
            "assert not any(name.split('.')[0] == 'plumbook' for name in sys.modules)\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "['tests']\n", "")
