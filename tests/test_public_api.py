"""The public surface: what `twistcert.__all__` promises resolves, what the
README lists as removed is gone, the package does not import the test
helpers, every module-level function has a use, and the package holds no
`assert` statement (`python -O` strips them)."""
import ast
import pathlib
import re

import twistcert
import twistcert.matrices
from test_traced_names import traced_pairs

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistcert"
TEST_HELPERS = {"mod_oracle", "dense_oracles", "brute_force_factor", "family_oracle",
                "layer_oracle", "hensel_oracle"}


def removed_names():
    """The plain names on the README's "Removed public names" paragraph."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"Removed public names:(.*?)\n\n", text, re.S).group(1)
    return re.findall(r"`([A-Za-z_]\w*)`", paragraph)


def test_every_exported_name_resolves():
    assert len(set(twistcert.__all__)) == len(twistcert.__all__)
    for name in twistcert.__all__:
        assert getattr(twistcert, name, None) is not None, name


def test_removed_names_stay_removed():
    names = removed_names()
    assert {"sp_inverse", "factor_over_Z_bruteforce", "ModMatrix", "reduce_mod"} <= set(names)
    for name in names:
        assert not hasattr(twistcert, name), name
        assert not hasattr(twistcert.matrices, name), name
        assert name not in twistcert.__all__, name


def test_package_does_not_import_test_helpers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for name in imported:
                assert name.split(".")[0] not in TEST_HELPERS, f"{path.name} imports {name}"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} asserts"


def test_every_package_function_has_a_use():
    """A module-level function in the package is referred to by package code
    outside its own def, exported in `__all__`, or wrapped by the benchmark's
    tracer; a helper only tests call belongs in tests/."""
    defined = []                     # (module, function)
    used = set()                     # names referred to outside their own def
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, ast.FunctionDef):
                own = stmt.name
                defined.append((path.stem, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    allowed = used | set(twistcert.__all__) | {name for _, name in traced_pairs()}
    unused = [f"{module}.{name}" for module, name in defined if name not in allowed]
    assert not unused, f"only tests or nothing call {unused}"
