import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_imports_resolve():
    # A public name removed from armid must not live on in the README.
    section = README.read_text().split("## Library surface", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    imports = [line for line in block.splitlines() if re.match(r"from armid[.\w]* import ", line)]
    assert imports
    for line in imports:
        exec(line, {})
