import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the one python block under "## Library example", run as written
    section = README.read_text().split("## Library example", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert abs(namespace["report"].gap) <= 1e-8
