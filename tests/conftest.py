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


def child_env(**settings: str) -> dict[str, str]:
    """The environment of a child Python process that imports the qgeo under test.

    It is os.environ plus ``settings``, with the directory that holds the
    imported qgeo first on PYTHONPATH.
    """
    import qgeo

    src = str(Path(qgeo.__file__).resolve().parent.parent)
    return {**os.environ, **settings, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def assert_no_child_left() -> None:
    """Every child process of this one has been reaped."""
    import pytest

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
