"""The package's source, read with ``ast``: it parses as the oldest Python
the package declares, and its import graph has no cycle, with the region
types and the symmetric-rate kernel importing nothing from each other, so
each stands on ``bounds`` alone.  The Monte Carlo sampler asks for no
matrix product, so no BLAS kernel touches its bytes."""

import ast
import re
from pathlib import Path

import mcmimo

PACKAGE = Path(mcmimo.__file__).parent


def relative_imports() -> dict[str, set[str]]:
    """{module: the package modules it imports} for every module but
    ``__init__``, from every relative import in its source, those under
    ``if TYPE_CHECKING:`` included."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(alias.name for alias in node.names)
        graph[path.stem] = edges
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a list of modules, or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for target in sorted(graph.get(node, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


BLAS_NAMES = {"einsum", "dot", "vdot", "inner", "tensordot", "matmul", "linalg"}


def matrix_products(source: str) -> set[str]:
    """Every ``@`` and every attribute or import in ``BLAS_NAMES`` that
    ``source`` uses; a bare name can only reach numpy's through an import,
    and a local variable called ``inner`` reaches none."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add("@")
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found & (BLAS_NAMES | {"@"})


def test_graph_is_read_from_every_module():
    graph = relative_imports()
    assert {"bounds", "cli", "estimation", "regions", "symrate"} <= set(graph)
    assert graph["regions"] == {"bounds", "estimation"}


def test_import_graph_has_no_cycle():
    assert find_cycle(relative_imports()) is None


def test_cycle_finder_sees_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_montecarlo_asks_for_no_matrix_product():
    # its bytes are the same under any BLAS kernel, SSE ones included
    assert matrix_products((PACKAGE / "montecarlo.py").read_text()) == set()


def test_matrix_product_finder_sees_each_product():
    snippet = ("import numpy.linalg\nfrom numpy import inner, vdot\nc = a @ b\nc @= b\n"
               "np.einsum('i,i', a, b)\na.dot(b)\nnp.tensordot(a, b)\nnp.matmul(a, b)\n")
    assert matrix_products(snippet) == BLAS_NAMES | {"@"}
    assert matrix_products("inner = a * b + np.add.reduce(a, axis=0)\n") == set()


def test_regions_and_symrate_stand_apart():
    graph = relative_imports()
    assert "symrate" not in graph["regions"]
    assert "regions" not in graph["symrate"]


def test_sources_parse_as_the_oldest_python_declared():
    # syntax newer than requires-python (say a 3.11 except* or a 3.12 type
    # statement) fails here, on whatever Python runs the tests
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)
    sources = sorted((root / "src" / "mcmimo").glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
