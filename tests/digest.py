"""The output digest: one sha256 over every benchmark operation's output.

    python tests/digest.py [--src PATH]

It runs every operation of the ``lab``, ``wide`` and ``differential``
workloads of ``bench/workloads.py`` at seeds 1, 2 and 3: the workloads in
that order, the seeds ascending within each, the operations in ``ops()``
order.  Each output is encoded as UTF-8, and the sha256 of their
concatenation is printed with the number of operations.  Two source trees
with the same digest print the same bytes on every operation.

``--src`` names the ``src`` directory to import qtlab from, this checkout's
by default, so that one harness can digest another commit's sources.  A
qtlab imported from anywhere else is refused.  ``wide`` writes its bound
files to a temporary directory.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lab", "wide", "differential")
SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import qtlab from")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "qtlab" / "__init__.py").is_file():
        parser.error(f"qtlab sources not found under {src}")
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    workloads = importlib.import_module("workloads")
    qtlab_file = Path(sys.modules["qtlab"].__file__).resolve()
    if src not in qtlab_file.parents:
        raise ImportError(f"qtlab was imported from {qtlab_file}, not from {src}")
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                state = workloads.WORKLOADS[name](seed, Path(tmp, f"{name}-seed{seed}"))
                for _, _, thunk in state.ops():
                    digest.update(thunk().encode("utf-8"))
                    count += 1
    print(f"{digest.hexdigest()} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
