"""Source-level rules for the package."""

import ast
import builtins
import collections
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fixloc"
FIXTURES = ROOT / "tests" / "fixtures"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so guards must be explicit raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no package source under {SRC}"
    assert found == []


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_top_level_name_has_one_home():
    # a name moved between modules leaves no second definition behind
    homes = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _top_level_names(node):
                homes[name].append(path.name)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}


def _references(tree):
    """Names a tree reads: loaded names, attributes and names imported from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_top_level_name_is_used_in_the_package():
    # a private name that nothing else in the package reads is dead code;
    # a use inside its own definition (recursion) does not count
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = collections.Counter(name for tree in trees for name in _references(tree))
    unused = [name
              for tree in trees for node in tree.body for name in _top_level_names(node)
              if name.startswith("_") and not name.startswith("__")
              and used[name] == collections.Counter(_references(node))[name]]
    assert unused == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_no_module_imports_dataclasses():
    # importing dataclasses costs a CLI child more than its records do; `_ser.frozen` stands in
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "dataclasses" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_package_never_converts_with_int_or_float():
    # int() truncates 1.9 to 1 and float() leaves the exact arithmetic, so
    # inputs are checked (`_ser.is_int`, `_ser.is_rational`), never converted
    def converts(node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            return False
        if node.func.id in ("int", "float"):
            return True
        return node.func.id == "map" and any(
            isinstance(arg, ast.Name) and arg.id in ("int", "float") for arg in node.args[:1])

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if converts(node)]
    assert found == []


def _annotations(tree):
    """The annotation nodes of a tree: of arguments, of returns and of annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _bound_by_imports(tree):
    """(line, names) for each import in the body of tree, a module or an
    `if` statement: the names it binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield node.lineno, [alias.asname or alias.name for alias in node.names]


def test_every_module_level_import_is_read_outside_annotations():
    # postponed annotations are never evaluated, so an import read only there
    # costs every process that loads the module and buys nothing at run time;
    # such an import belongs under `if TYPE_CHECKING:`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_annotations = {id(node) for ann in _annotations(tree) for node in ast.walk(ann)}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and id(node) not in in_annotations}
        for lineno, bound in _bound_by_imports(tree):
            if not read.intersection(bound):
                found.append(f"{path.name}:{lineno} {', '.join(bound)}")
    assert found == []


def _owners(tree):
    """id(node) -> the name of the innermost function or class that holds
    the node ('<module>' at top level); a def's signature is its own."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else name
            owner[id(child)] = inner
            visit(child, inner)
    visit(tree, "<module>")
    return owner


def _bound_for_annotations(tree):
    """The names a module binds at top level or imports under `if TYPE_CHECKING:`."""
    bound = {name for node in tree.body for name in _top_level_names(node)}
    bound.update(name for _, names in _bound_by_imports(tree) for name in names)
    for node in tree.body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            bound.update(name for _, names in _bound_by_imports(node) for name in names)
    return bound


def test_every_name_an_annotation_reads_is_bound():
    # postponed annotations are never evaluated at run time, so only a type
    # checker reads them, and it flags a name that the module binds nowhere,
    # not even under `if TYPE_CHECKING:`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, owner = _bound_for_annotations(tree) | set(dir(builtins)), _owners(tree)
        found += sorted({f"{path.stem}.{owner[id(node)]} {node.id}"
                         for ann in _annotations(tree) for node in ast.walk(ann)
                         if isinstance(node, ast.Name) and node.id not in bound})
    assert found == []


# The functions whose bodies may import a `fixloc` module, besides every
# function of `cli`, where each command loads the layers it runs: stability's
# two bridges to the layers above it load them only when called.  Every other
# import points down the layer order at module level, or sits under
# `if TYPE_CHECKING:`.
BODY_IMPORTS = {"stability": {"slope_transfer_check", "graded_of"}}


def _imports_fixloc(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.partition(".")[0] == "fixloc"
    return isinstance(node, ast.Import) and any(
        alias.name.partition(".")[0] == "fixloc" for alias in node.names)


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py")) if path.stem != "cli"],
                         ids=lambda path: path.stem)
def test_function_bodies_import_fixloc_modules_only_where_allowed(path):
    allowed = {"<module>", *BODY_IMPORTS.get(path.stem, ())}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    found = [f"{owner[id(node)]}:{node.lineno}" for node in ast.walk(tree)
             if _imports_fixloc(node) and owner[id(node)] not in allowed]
    assert found == []


def test_every_name_a_test_tool_or_demo_imports_is_read():
    # name by name: an import nothing reads is left over from a deleted use;
    # a name listed in __all__ is exported, which counts as read
    paths = sorted({*ROOT.glob("tests/**/*.py"), *ROOT.glob("tools/*.py"), *ROOT.glob("demos/*.py")})
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in _top_level_names(node):
                read.update(ast.literal_eval(node.value))
        found += [f"{path.relative_to(ROOT)}:{lineno} {name}"
                  for lineno, bound in _bound_by_imports(tree) for name in bound if name not in read]
    assert len(paths) > 30, paths
    assert found == []


def _reached(path):
    """name -> the top-level functions of the module at path that the function
    of that name reads, directly or through others (ast.Name loads)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = {name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in defs}
             for name, node in defs.items()}

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            for callee in reads[todo.pop()] - seen:
                seen.add(callee)
                todo.append(callee)
        return seen
    return reached


@pytest.mark.parametrize("name, barred", [
    ("parabolic_zeta2", {"zeta2_apply", "zeta2_partition", "to_parabolic",
                         "from_parabolic", "_descend", "_ascend"}),
    ("zeta2_apply", {"parabolic_zeta2", "_descend", "_ascend"}),
])
def test_the_two_lift_negations_stay_independent(name, barred):
    # parabolic_zeta2 checks zeta2_apply through the correspondence (test_06),
    # which it could not do if either ran the other or the correspondence
    assert _reached(SRC / "equivariant.py")(name) & barred == set()


def test_the_validators_check_no_types():
    # a record checks its field types when it is built, so the checks that
    # read a profile never test a type; a type check here is a second copy
    validators = {"validate_det", "validate_numeric", "validate_parabolic", "_spreads",
                  "_check_rank2", "_validated_key"}
    seen, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in validators:
                seen.add(node.name)
                found += [f"{node.name}:{call.lineno}" for call in ast.walk(node)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id in ("is_int", "isinstance")]
    assert seen == validators
    assert found == []


def test_every_fixture_is_named_by_exactly_one_recorder():
    # CI re-runs every recorder and checks the fixtures stay unchanged; a
    # fixture that no recorder writes would pass that check unrecorded
    named = collections.defaultdict(list)
    for path in sorted(FIXTURES.glob("record_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named[node.value].append(path.name)
    fixtures = sorted(path.name for path in FIXTURES.glob("*.json"))
    assert fixtures, f"no fixtures under {FIXTURES}"
    assert {name: named[name] for name in fixtures if len(set(named[name])) != 1} == {}


def test_only_main_writes_the_cli_report():
    # the builders return their reports and main writes them, so stdout has one
    # writer: every print call and every read of sys.stdout in cli.py is main's
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]

    def writes(root):
        return sorted(node.lineno for node in ast.walk(root)
                      if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "print")
                      or (isinstance(node, ast.Attribute) and node.attr == "stdout"))

    assert len(main) == 1 and writes(main[0])
    assert writes(tree) == writes(main[0])
