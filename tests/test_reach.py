"""Every public function, class and method of crownkit is reached by the
program: by another module of the package, by the rest of its own module,
or by the benchmark harness (perfbench/*.py).  Code that only tests reach
is deleted, except the oracles below, which tests check the program
against.  A name counts as reached when program code uses it as a name,
an attribute or an import; mentions in comments and docstrings do not."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crownkit"

#: independent models that tests compare the program with
ORACLES = {
    "sym_model",    # g g^T, the model pair_sym is tested against
    "p_invariant",  # its trace, the model p_of_pair is tested against
    "v_K",          # the spherical vector, which continue_vK(param, pi/4)
                    # must equal bit for bit
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used(tree, skip=None):
    """The identifiers a syntax tree uses as names, attributes or imports,
    outside the subtree `skip`."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public_definitions(tree):
    """Top-level functions and classes, and the methods of those classes,
    whose names do not start with an underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if isinstance(d, kinds) and not d.name.startswith("_"):
                yield d


def test_no_public_name_is_reached_only_by_tests():
    modules = {p.name: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    bench = set().union(*(_used(_parse(p))
                          for p in (ROOT / "perfbench").glob("*.py")))
    used = {name: _used(tree) for name, tree in modules.items()}
    defined, unreached = set(), []
    for module, tree in modules.items():
        elsewhere = bench.union(*(u for m, u in used.items() if m != module))
        for node in _public_definitions(tree):
            defined.add(node.name)
            if node.name in ORACLES or node.name in elsewhere:
                continue
            if node.name not in _used(tree, skip=node):
                unreached.append(f"{module}:{node.lineno} {node.name}")
    assert not unreached, f"reached by no program code: {unreached}"
    assert ORACLES <= defined, f"stale oracles: {ORACLES - defined}"
