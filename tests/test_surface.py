"""The package exposes no public name that only the tests reach.

Parses src/sivcav/*.py, scripts/*.py and perfbench/*.py with ast, without
importing the package. A public top-level function or class of
src/sivcav, or a public method of such a class, is reached when its name
is read (a Name, an Attribute, or an identifier string such as perfbench's
list of traced names) outside its own definition and outside every
definition that is not itself reached. Importing a name or listing it in
__all__ does not read it. KEEP names the definitions that are reached on
purpose although no subcommand, script or workload calls them. Reads match
by name alone, so a method that shares its name with another attribute
passes unseen.

That blind spot covers from_dict, the reader of a JSON document, which
would pass unseen on any type once one type's is read. So DOCUMENTS names
the types that may define from_dict, each with the files that carry its
documents; the package reads a document of each, and the model schema
defines them and no other type.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sivcav"
SOURCES = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

KEEP = {
    "dynamics.generator": "criterion 06: the rate matrix G of the three-level model; "
                          "g2_analytic is held to expm(G t) and its eigenvalues",
    "dynamics.PumpModel.p_sat": "ROADMAP item 3: the saturation power behind the paper's quantum efficiency",
    "dynamics.saturation_curve": "ROADMAP item 3: the paper's quantum efficiency, a headline number",
    "dynamics.qe_from_saturation": "ROADMAP item 3: the paper's quantum efficiency, a headline number",
    "dynamics.save_power_sweep": "writes the power-sweep CSV that g2 sweep reads, as the tests' inputs; "
                                 "moving it into the tests removes no code",
    "fitting.fit_saturation": "criterion 09: the saturation fit",
    "purcell.invert_budget": "criterion 03: budget inversion",
    "purcell.infer_bulk_qe_from_inhibition": "criterion 04: inhibition chain",
    "purcell.nanosphere_factor": "criterion 05: nanosphere rescaling",
    "purcell.rescale_qe": "criterion 05: nanosphere rescaling",
    "spectra.save_spectrum": "writes the spectrum CSV that spectra fit and track read, as the tests' inputs; "
                             "moving it into the tests removes no code",
}

DOCUMENTS = {
    "RadiativeBudget": "budget files (purcell --budget, simulate --budget), the scenarios' included",
}


@pytest.fixture(scope="module")
def trees():
    return {path: ast.parse(path.read_text()) for folder in SOURCES for path in sorted(folder.glob("*.py"))}


def definitions(trees):
    """{module.name or module.Class.method: node} of the package's public definitions."""
    found = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    found.update((f"{path.stem}.{node.name}.{item.name}", item) for item in node.body
                                 if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def reads(trees, found):
    """{(name, enclosing)}: each name read in trees, with the qualified
    names of the definitions in found that enclose the read, where none of
    them has that name."""
    qualified = {id(node): name for name, node in found.items()}
    out = set()

    def walk(node, enclosing):
        if id(node) in qualified:
            enclosing = enclosing | {qualified[id(node)]}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            name = node.value
        else:
            name = None
        if name and not (enclosing and any(q.rsplit(".", 1)[1] == name for q in enclosing)):
            out.add((name, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for tree in trees.values():
        walk(tree, frozenset())
    return out


def unreached(trees):
    found = definitions(trees)
    pending = reads(trees, found)
    reached = set(KEEP)
    while True:
        live = {name for name, enclosing in pending if enclosing <= reached}
        grown = reached | {q for q in found if q.rsplit(".", 1)[1] in live}
        if grown == reached:
            return sorted(set(found) - reached)
        reached = grown


def test_every_public_name_is_reached_outside_the_tests(trees):
    names = unreached(trees)
    assert not names, f"only the tests reach {', '.join(names)}: delete them or add them to KEEP"


def test_keep_list_names_existing_definitions(trees):
    assert sorted(set(KEEP) - set(definitions(trees))) == []


def test_documents_are_the_types_a_file_or_report_carries(trees):
    """The classes that define from_dict are DOCUMENTS, and the package
    reads a document (Type.from_dict) of each of them and of no other type."""
    readers, loaded = set(), set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(getattr(item, "name", None) == "from_dict"
                                                      for item in node.body):
                readers.add(node.name)
            if isinstance(node, ast.Attribute) and node.attr == "from_dict" and isinstance(node.value, ast.Name):
                loaded.add(node.value.id)
    assert readers == loaded == set(DOCUMENTS)


def test_model_schema_defines_the_file_documents_only():
    schema = json.loads((PACKAGE / "schemas" / "model_types.schema.json").read_text())
    assert set(schema["$defs"]) == set(DOCUMENTS)


def test_every_data_file_is_package_data():
    """Every file of the package that is not Python source is installed:
    the package-data patterns of pyproject.toml cover it."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    patterns = config["tool"]["setuptools"]["package-data"]["sivcav"]
    installed = {path for pattern in patterns for path in PACKAGE.glob(pattern)}
    data = {path for path in PACKAGE.rglob("*") if path.is_file() and path.suffix not in (".py", ".pyc")}
    assert sorted(str(path.relative_to(PACKAGE)) for path in data - installed) == []
