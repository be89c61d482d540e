"""The README's quick start runs and prints what its last comment says, and
its command-line lists match the code."""

import contextlib
import io
import re
from pathlib import Path

from pvsmooth import cli

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


def _choices(command, dest):
    """The choices of option ``dest`` of the ``command`` subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.choices and command in a.choices)
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def _synopsis(command, flag):
    """The ``{a,b,...}`` list after ``pvsmooth command flag`` in a synopsis."""
    text = README.read_text()
    return re.search(r"pvsmooth %s %s\{([^}]*)\}" % (command, flag), text).group(1).split(",")


def test_readme_command_line_lists_match_the_code():
    text = README.read_text()
    table = text[text.index("### solve"):text.index("### verify")]
    fields = re.findall(r"^\| `([^`]+)` ", table, re.M)
    assert sorted(fields) == sorted(cli._FIELDS)
    assert sorted(_synopsis("verify", "")) == sorted(_choices("verify", "suite"))
    assert sorted(_synopsis("gen", "--kind ")) == sorted(_choices("gen", "kind"))
