"""The package holds only what the program runs: every function, method and
class in src/qsslab is referenced somewhere in src/qsslab besides its own
definition, apart from the names listed below."""

import ast
from collections import Counter
from pathlib import Path

import qsslab

PACKAGE = Path(qsslab.__file__).parent

# unreferenced in the package on purpose, one reason each
ALLOWED = {
    "paulis.PauliOperator.conjugate_clifford": "perfbench/tracing.py wraps it by name",
    "paulis.PauliOperator.project_z": "perfbench/tracing.py wraps it by name",
    "paulis.PauliOperator.reset_to_mixed": "perfbench/tracing.py wraps it by name",
    "dense.partial_trace_dense": "perfbench/tracing.py wraps it by name",
    "paulis.PauliOperator.terms": "perfbench/tracing.py's distinct_count reads it",
    "protocol.SchemeParams.relaxed": "the relaxed twin of SchemeParams.strict",
}


def _references(tree):
    """Names a tree uses: Name ids, Attribute attrs, import aliases and
    __all__ entries."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.asname or node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(elt.value for elt in node.value.elts)
    return found


def _definitions(node, prefix):
    """(qualified name, node) of every function, method and class, nested
    ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            yield qualname, child
            yield from _definitions(child, qualname)
        else:
            yield from _definitions(child, prefix)


def unreferenced(package):
    """Qualified names of the non-dunder definitions in a package directory
    that nothing outside their own definition refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    out = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total[node.name] == _references(node)[node.name]:
                out.add(qualname)
    return out


def test_every_definition_is_used_by_the_package():
    # equality also fails on an allowed name that the package uses again
    assert unreferenced(PACKAGE) == set(ALLOWED)


def test_a_test_only_method_is_caught(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    paulis = tmp_path / "paulis.py"
    anchor = "    def phase_factor(self)"
    added = "    def weight(self) -> int:\n        return (self.x | self.z).bit_count()\n\n"
    paulis.write_text(paulis.read_text().replace(anchor, added + anchor, 1))
    assert unreferenced(tmp_path) == set(ALLOWED) | {"paulis.PauliString.weight"}
