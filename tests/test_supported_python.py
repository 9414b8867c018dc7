"""The package's source against the oldest Python that ``pyproject.toml``
declares, while CI runs a newer interpreter."""

import ast
from pathlib import Path

import pytest

import pdcpurify

#: the oldest supported Python, as ``requires-python`` declares it
OLDEST = (3, 10)


def test_every_module_parses_under_the_oldest_supported_grammar():
    """Each module under ``src/pdcpurify/`` parses with ``ast.parse``'s
    ``feature_version`` at the declared floor, so syntax newer than it
    (``except*``, from 3.11, for one) is refused.  This checks grammar only,
    not which stdlib names and arguments a module uses."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text(encoding="utf-8")
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
    modules = sorted(Path(pdcpurify.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
