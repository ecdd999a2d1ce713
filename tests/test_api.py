"""Every public name has a caller outside the tests.

The library's own callers are its modules (the CLI, the harness, the
Gröbner certificates) and the benchmark.  A name that only tests call
belongs in ``tests/`` (see ``oracles.py``), not in ``ncrewrite.__all__``.
"""

import ast
from pathlib import Path

import ncrewrite

ROOT = Path(__file__).resolve().parents[1]

# public names kept without a caller yet, one reason each
ALLOWED = {
    "decode_structure": "the lockstep divergence report will decode words with it",
    "format_tm_spec": "writes the documented machine format that parse_tm_spec reads",
}


def references(path):
    """(name, top-level def or class it sits in, or None) for each Name and
    attribute that the module at path reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.append((node.attr, owner))
    return found


def callers_outside_tests():
    files = sorted((ROOT / "src" / "ncrewrite").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in files:
        if path.name != "__init__.py":
            used.update(name for name, owner in references(path) if name != owner)
    return used


def test_every_export_has_a_caller():
    used = callers_outside_tests()
    unused = sorted(set(ncrewrite.__all__) - used - set(ALLOWED))
    assert unused == [], f"exported but only tests use them: {unused}"


def test_allowlist_is_current():
    used = callers_outside_tests()
    assert set(ALLOWED) <= set(ncrewrite.__all__)
    stale = sorted(set(ALLOWED) & used)
    assert stale == [], f"these now have callers; drop them from ALLOWED: {stale}"
