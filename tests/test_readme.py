"""The README's Python blocks run as written, in order and in one namespace,
so a name dropped from the library fails here instead of going stale in the
library tour."""

import os
import re

from traffics import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)


def test_subcommand_lists_agree():
    # the parser, the cli module docstring and the README's CLI block
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    documented = re.findall(r"^\* ``(\w+)``", cli.__doc__, re.M)
    with open(README, encoding="utf-8") as f:
        block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", f.read(), re.M | re.S).group(1)
    shown = re.findall(r"^traffics (\w+)", block, re.M)
    assert sorted(sub.choices) == sorted(documented) == sorted(shown)
