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
    "paulis.PauliOperator.terms": "perfbench/tracing.py's distinct_count reads it",
    "paulis.PauliOperator.project_z": "perfbench/tracing.py wraps it by name",
    "paulis.PauliOperator.reset_to_mixed": "perfbench/tracing.py wraps it by name",
    "dense.partial_trace_dense": "perfbench/tracing.py wraps it by name",
}


def _references(tree):
    """(names, attributes) a tree uses. Names are Name ids, import aliases
    and __all__ entries, the ways a module function or class is reached;
    attributes are Attribute attrs, the one way a method is reached."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    return names, attrs


def _definitions(node, prefix):
    """(qualified name, node, is method) of every function, method and
    class, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            yield qualname, child, isinstance(node, ast.ClassDef)
            yield from _definitions(child, qualname)
        else:
            yield from _definitions(child, prefix)


def unreferenced(package):
    """Qualified names of the non-dunder definitions in a package directory
    that nothing outside their own definition refers to: a method counts
    only attribute references to its name, anything else only name and
    import references, so a local variable cannot keep a method alive, nor
    a method call a module function of the same name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attrs = _references(tree)
        names += tree_names
        attrs += tree_attrs
    out = set()
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            kind = 1 if is_method else 0
            total = (names, attrs)[kind]
            if total[node.name] == _references(node)[kind][node.name]:
                out.add(qualname)
    return out


def _copy(package, tmp_path):
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    return tmp_path


def _insert(path, anchor, added):
    text = path.read_text()
    if anchor not in text:
        raise AssertionError(f"{anchor!r} not found in {path.name}")
    path.write_text(text.replace(anchor, added + anchor, 1))


def dataclass_imports(package):
    """module:line of every import of the dataclasses module in a package
    directory. A frozen dataclass compiles its generated methods when its
    class is made: 0.70 ms per four-field class, against 0.066 ms for a
    namedtuple subclass and 0.006 ms for a plain class (medians of 300 on
    a 2-core Xeon, Python 3.11.7). With 16 such classes, every import of
    the package paid 11.5-13.2 ms for them."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in modules):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_the_package_imports_no_dataclasses():
    assert dataclass_imports(PACKAGE) == []


def test_a_dataclass_put_back_is_caught(tmp_path):
    copy = _copy(PACKAGE, tmp_path)
    added = "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Spare:\n    n: int\n\n\n"
    _insert(copy / "errors.py", "class UsageError", added)
    assert [found.split(":")[0] for found in dataclass_imports(copy)] == ["errors"]


def test_every_definition_is_used_by_the_package():
    # equality also fails on an allowed name that the package uses again
    assert unreferenced(PACKAGE) == set(ALLOWED)


def test_a_test_only_method_is_caught(tmp_path):
    copy = _copy(PACKAGE, tmp_path)
    added = "    def weight(self) -> int:\n        return (self.x | self.z).bit_count()\n\n"
    _insert(copy / "paulis.py", "    def phase_factor(self)", added)
    assert unreferenced(copy) == set(ALLOWED) | {"paulis.PauliString.weight"}


def test_a_local_variable_does_not_shield_a_method(tmp_path):
    # from_terms binds a local variable named coeff; only an attribute
    # access would reach a coeff method
    copy = _copy(PACKAGE, tmp_path)
    added = "    def coeff(self, index):\n        return self.coeffs[index]\n\n"
    _insert(copy / "paulis.py", "    def trace(self)", added)
    assert unreferenced(copy) == set(ALLOWED) | {"paulis.PauliOperator.coeff"}


def test_a_method_call_does_not_shield_a_module_function(tmp_path):
    # the package calls .partial_trace(...) on operators, which reaches the
    # method only; a module function of that name needs a name of its own
    copy = _copy(PACKAGE, tmp_path)
    added = "def partial_trace(op, traced):\n    return op.partial_trace(traced)\n\n\n"
    _insert(copy / "audit.py", "def adversary_view(", added)
    assert unreferenced(copy) == set(ALLOWED) | {"audit.partial_trace"}
