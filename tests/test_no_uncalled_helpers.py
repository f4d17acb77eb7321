"""Every function, class and method under ``src/idealiser`` has a caller,
and every module-level import there is used by its own module.

A function or class counts as called when its name occurs, as a name or
an attribute, in ``src/`` or ``demos/`` outside its own body; a method only
when it occurs as an attribute (``.name``), so a local variable that shares
a method's name is no call of it.  ``__init__.py`` is not read: a
re-export is not a caller.  Names are matched without
resolving them, so the guard can miss an uncalled helper that shares its
name with a called one; a helper reached only through ``getattr`` with a
string would need an entry in ``KEPT``.  Dunder methods are called by the
interpreter and are skipped.  An import counts as used when the name it
binds occurs as a name in its module; ``__init__.py`` (re-exports) and
``from __future__`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "idealiser"

# qualified name -> why it stays without a caller in src/ or demos/
KEPT = {
    "presentation_R_mod_IB": "the paper's R/IB, as a library entry point",
    "PolyRing.zero": "the ring's additive identity, next to one(), const() and var()",
    "decide_left": "the left ladder alone, as a library entry point; decide hands its right "
    "outcome to the ladder driver instead, so conjugation does not rerun the right ladder",
}


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in files if p.name != "__init__.py"]


def _definitions(node, prefix="", in_class=False):
    """(qualified name, node, whether it is a class member) of each function
    and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child, in_class
            yield from _definitions(child, prefix + child.name + ".", isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def _references(tree):
    """(name, line, whether it is an attribute) of each name and attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def uncalled(sources) -> list[str]:
    refs = [(path, *ref) for path, tree in sources for ref in _references(tree)]
    out = []
    for path, tree in sources:
        if path.parent != PACKAGE:
            continue
        for qualname, node, member in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                r == name and (attribute or not member) and not (p == path and first <= line <= node.end_lineno)
                for p, r, line, attribute in refs
            ):
                out.append(qualname)
    return out


def test_every_definition_has_a_caller():
    found = [q for q in uncalled(_sources()) if q not in KEPT]
    assert found == [], f"definitions without a caller in src/ or demos/: {found}"


def test_every_kept_name_is_still_uncalled():
    # an exception that gained a caller, or lost its definition, is stale
    assert sorted(q for q in uncalled(_sources()) if q in KEPT) == sorted(KEPT)


def test_a_local_that_shares_a_method_name_is_no_call():
    source = """
class Ring:
    def zero(self):
        return 0

    def one(self):
        return 1


def helper():
    return 2


def main():
    zero = helper()  # a local, not Ring.zero
    return zero + Ring().one()
"""
    sources = [(PACKAGE / "synthetic.py", ast.parse(source))]
    assert uncalled(sources) == ["Ring.zero", "main"]


def unused_imports(path: Path, tree) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}: {name}" for name in bound if name not in used]


def test_every_import_is_used():
    found = [u for p, tree in _sources() if p.parent == PACKAGE for u in unused_imports(p, tree)]
    assert found == [], f"module-level imports their module never uses: {found}"
