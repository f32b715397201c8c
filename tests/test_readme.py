"""README's code examples run against the package as it is."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_library_block_runs(monkeypatch):
    # the block opens bundled models by paths relative to the repository root
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    lattice = namespace["lattice"]
    assert lattice.certified and lattice.f_vector == (4, 4, 1)
    assert namespace["top"].dimension == 2 and len(lattice.faces) == lattice.n_faces == 9
