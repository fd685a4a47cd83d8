"""Every circulant rule lives in ``discretize``: no other module of
``src/nlhet`` transforms anything itself.

The Toeplitz embedding and the Strang preconditioner each have one owner
there (``toeplitz_circulant`` and ``strang_circulant``); a module that
reached for ``np.fft`` directly would be writing one of them out again.
"""

import ast
from pathlib import Path

import nlhet

PKG = Path(nlhet.__file__).parent


def _fft_references(tree: ast.AST):
    """Line numbers of ``<name>.fft`` attributes and of fft imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                "fft" in alias.name for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                "fft" in (node.module or "")
                or any(alias.name == "fft" for alias in node.names)):
            yield node.lineno


def test_only_discretize_calls_the_fft():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(PKG.glob("*.py"))
                 if path.name != "discretize.py"
                 for line in _fft_references(ast.parse(path.read_text()))]
    assert not offenders, "np.fft outside discretize.py: " + ", ".join(offenders)


def test_discretize_owns_the_fft():
    # the guard above must look at a module that does transform
    assert list(_fft_references(ast.parse((PKG / "discretize.py").read_text())))
