"""The README's library example runs as written and its CLI lines parse."""

import re
import shlex
from pathlib import Path

from copbands import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README '## Library' has no python block"
    exec(compile(block.group(1), "README.md#library", "exec"), {})


def test_readme_cli_lines_parse():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README '## CLI' has no sh block"
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()
                if line.startswith("copbands ")]
    assert {argv[1] for argv in commands} == {"estimate", "bands", "simulate-coverage", "verify"}
    for argv in commands:
        func = getattr(cli, "_cmd_" + argv[1].replace("-", "_"))
        assert cli._build_parser().parse_args(argv[1:]).func is func, argv
