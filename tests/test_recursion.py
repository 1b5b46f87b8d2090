"""No function of the package calls itself, directly or through other
functions of its module: however deep the input, nothing can reach the
recursion limit."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "incalc"


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """For each function of a module (methods and nested functions
    included, keyed by name), the module's functions it calls by plain
    name or through `self.` or `cls.`."""
    bodies: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.setdefault(node.name, []).append(node)
    graph = {}
    for name, defs in bodies.items():
        callees = set()
        for call in (n for d in defs for n in ast.walk(d) if isinstance(n, ast.Call)):
            func = call.func
            if isinstance(func, ast.Name):
                callees.add(func.id)
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                callees.add(func.attr)
        graph[name] = callees & bodies.keys()
    return graph


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves."""
    found = set()
    for start, callees in graph.items():
        seen, stack = set(), list(callees)
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(graph[name])
        if start in seen:
            found.add(start)
    return found


def test_no_package_function_recurses():
    recursive = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in on_cycles(call_graph(ast.parse(path.read_text())))
    }
    assert recursive == set()


def test_cycles_through_methods_and_other_functions_are_found():
    tree = ast.parse(
        "def f(): g()\n"
        "def g(): f()\n"
        "def h(): f()\n"
        "class K:\n"
        "    def m(self): return self.n()\n"
        "    def n(self): return self.m()\n"
    )
    assert on_cycles(call_graph(tree)) == {"f", "g", "m", "n"}
