"""perfbench: the end-to-end + per-layer benchmark of the campaign pipeline.

Self-contained: it drives ``src/repro`` only through public calls and
changes no tracked file; besides an explicit ``--out`` it leaves only
git-ignored ``__pycache__/`` directories and, while a lap runs,
``.perfbench_tmp/`` in the checkout (see ``README.md``).  Run it as
``python3 -m perfbench`` from the repository root.
"""

import importlib.util
import sys
from pathlib import Path

#: Repository (or checkout) root: lap scratch space lives under it.
ROOT = Path(__file__).resolve().parent.parent

# The program under test is not installed in the benchmark's checkouts;
# an explicit PYTHONPATH (tests, the verify recipe) still wins.
if importlib.util.find_spec("repro") is None and (ROOT / "src" / "repro").is_dir():
    sys.path.insert(0, str(ROOT / "src"))
