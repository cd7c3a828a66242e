"""Find the dsim sources of the checkout that holds this benchmark."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit if it is missing.

    The benchmark measures the code next to it, never an installed copy.
    """
    if not (SRC / "dsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dsim sources at {SRC}")
    sys.path.insert(0, str(SRC))
