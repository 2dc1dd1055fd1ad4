import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _on_pythonpath(package: str) -> bool:
    """True when an entry of the PYTHONPATH environment variable holds ``package``."""
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return any(entry and (Path(entry) / package / "__init__.py").is_file() for entry in entries)


# Allow running pytest from a fresh checkout without installing the package;
# a PYTHONPATH that provides qgeo (another tree's src) is tested instead.
if not _on_pythonpath("qgeo"):
    sys.path.insert(0, str(SRC))
