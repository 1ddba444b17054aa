"""The README's library quickstart runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md quickstart", "exec"), scope)
    assert scope["rd"].balance_residual < 1e-10
    assert scope["basis"].dimension == 1
    assert 0.8 <= scope["res"].slope <= 1.2
