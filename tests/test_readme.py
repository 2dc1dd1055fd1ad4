"""The README's code examples run as written."""

import json
import re
from pathlib import Path

from qgeo.cli import load_state, load_transform

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``## <section>``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", body, re.DOTALL)
    assert match, f"no python block under '## {section}'"
    return match.group(1)


def test_library_example_runs_as_written():
    namespace = {}
    exec(compile(_python_block("Library example"), "README.md", "exec"), namespace)
    # The example's own asserts checked the identities; it reached its end.
    assert {"psi", "x", "u", "lhs", "rhs"} <= namespace.keys()


def test_file_format_examples_load(tmp_path):
    text = README.read_text(encoding="utf-8")
    body = text.split("\n### File formats\n", 1)[1].split("\n## ", 1)[0]
    docs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", body, re.DOTALL)]
    assert len(docs) >= 2, "no JSON examples under '### File formats'"
    for k, doc in enumerate(docs):
        path = tmp_path / f"example_{k}.json"
        path.write_text(json.dumps(doc))
        (load_state if "amplitudes" in doc else load_transform)(str(path))
