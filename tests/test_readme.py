"""The README's examples run as written, and it names no private code."""

import re
import shlex
from pathlib import Path

from copbands import bands, cli, copula, estimator, montecarlo, specfun

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (bands, cli, copula, estimator, montecarlo, specfun)


def _section(heading):
    return README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]


def test_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", _section("## Library"), re.DOTALL)
    assert block is not None, "README '## Library' has no python block"
    exec(compile(block.group(1), "README.md#library", "exec"), {})


def test_readme_cli_lines_parse():
    block = re.search(r"```sh\n(.*?)```", _section("## CLI"), re.DOTALL)
    assert block is not None, "README '## CLI' has no sh block"
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()
                if line.startswith("copbands ")]
    assert {argv[1] for argv in commands} == {"estimate", "bands", "simulate-coverage", "verify"}
    for argv in commands:
        func = getattr(cli, "_cmd_" + argv[1].replace("-", "_"))
        assert cli._build_parser().parse_args(argv[1:]).func is func, argv


def test_readme_names_no_private_attribute():
    # the README states the user contract; mechanisms live in the docstrings
    names = set(re.findall(r"(?<!\w)_[A-Za-z]\w*", README.read_text(encoding="utf-8")))
    private = sorted(name for name in names if any(hasattr(m, name) for m in MODULES))
    assert private == []


def test_readme_config_example_parses_and_shows_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", _section("### Config file"), re.DOTALL)
    assert block is not None, "README '### Config file' has no ini block"
    path = tmp_path / "readme.cfg"
    path.write_text(block.group(1), encoding="utf-8")
    cfg = cli._parse_config(str(path))
    lines = block.group(1).splitlines()
    shown = [line.split("#", 1)[0].partition("=")[0].strip() for line in lines]
    optional = [key for key in shown if key and cli.CONFIG_FIELDS[key][2] is not cli._REQUIRED]
    assert optional, "the README config shows no optional key"
    for key in optional:
        assert cfg[key] == cli.CONFIG_FIELDS[key][2], key
