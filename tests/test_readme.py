import re
from pathlib import Path

from test_cli import VERIFY_CHECKS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the one python block under "## Library example", run as written
    section = README.read_text().split("## Library example", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert abs(namespace["report"].gap) <= 1e-8


def test_readme_verify_paragraph_names_the_checks_verify_prints():
    # every check name in backticks, in the order of first mention
    (paragraph,) = [p for p in README.read_text().split("\n\n") if p.startswith("`verify` runs")]
    names = re.findall(r"`([a-z]+(?:-[a-z]+)+)`", paragraph)
    assert list(dict.fromkeys(names)) == list(VERIFY_CHECKS)
