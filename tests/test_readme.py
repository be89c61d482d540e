"""The README's quick start runs and prints what its last comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_its_comment():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    comment = block.rstrip().splitlines()[-1]
    assert comment.startswith("# ")
    want_stop, want_iters, want_objective = comment[2:].split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    stop, iters, objective = out.getvalue().split()
    assert (stop, iters) == (want_stop, want_iters)
    assert abs(float(objective) - float(want_objective)) <= 1e-9 * abs(float(want_objective))
