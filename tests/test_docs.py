import re
import shlex
from pathlib import Path

from armid.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_imports_resolve():
    # A public name removed from armid must not live on in the README.
    section = README.read_text().split("## Library surface", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    imports = [line for line in block.splitlines() if re.match(r"from armid[.\w]* import ", line)]
    assert imports
    for line in imports:
        exec(line, {})


def test_readme_command_lines_parse():
    # A renamed flag fails here, not in a reader's shell; nothing is run.
    section = README.read_text().split("## Quick start (command line)", 1)[1]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("armid ")]
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
