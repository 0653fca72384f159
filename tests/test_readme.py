"""README's Library examples run as written, so an example that drifts from the code fails."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_examples() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run():
    examples = library_examples()
    assert len(examples) == 2
    for code in examples:
        exec(compile(code, str(README), "exec"), {})
