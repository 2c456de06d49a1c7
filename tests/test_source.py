"""Static checks on the package source, and on what the benchmark reads of it."""

import ast
import importlib
import typing
from pathlib import Path

import perioddomains
from perioddomains import cli, finflag, rootdata, weyl


def test_no_assert_in_package():
    # invariants must raise typed errors, which `python -O` does not strip
    sources = sorted(Path(perioddomains.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_annotation_in_the_package_resolves():
    # `from __future__ import annotations` keeps annotations as text, so a
    # name a module never imports fails only when something resolves it
    unresolved = []
    for path in sorted(Path(perioddomains.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"perioddomains.{path.stem}")
        owners = [obj for obj in vars(module).values()
                  if getattr(obj, "__module__", None) == module.__name__]
        for owner in owners:
            if not isinstance(owner, type) and type(owner).__module__ == module.__name__:
                owner = type(owner)  # an instance of a package class, read through its class
            members = [owner]
            if isinstance(owner, type):  # methods, properties and cached properties
                members += [getattr(m, "__func__", getattr(m, "fget", getattr(m, "func", m)))
                            for m in vars(owner).values()]
            for obj in members:
                if callable(obj):
                    try:
                        typing.get_type_hints(obj)
                    except NameError as exc:
                        unresolved.append(f"{path.name} {obj.__qualname__}: {exc}")
    assert unresolved == []


def _package_imports(path):
    """Top-level names imported by path: 'numpy', or a sibling module name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names |= {alias.name for alias in node.names}
            else:
                names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_numpy():
    # every route runs on exact Python integers and Fractions, so no workload
    # and no subcommand pays for numpy's import
    sources = sorted(Path(perioddomains.__file__).parent.glob("*.py"))
    assert sources
    assert [path.name for path in sources if "numpy" in _package_imports(path)] == []


def test_only_rootdata_refuses_a_nu_for_its_dominance_or_entry_types():
    # one reader of nu: NotDominant and the refusal of an entry that is not an
    # int or a Fraction are raised in rootdata alone, and only it imports the
    # Rational it checks entries with, so no route reads nu its own way
    sources = sorted(Path(perioddomains.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                    (node.func.id == "NotDominant" or node.func.id == "ValidationError"
                     and "cocharacter entry" in ast.unparse(node)):
                found.append(f"{path.name} {node.func.id}")
    assert found == ["rootdata.py NotDominant", "rootdata.py ValidationError"]
    assert [path.name for path in sources if "numbers" in _package_imports(path)] == \
        ["rootdata.py"]


def test_integer_routes_import_no_fractions():
    # weyl, strata and finflag read root data as integer Dynkin labels,
    # Cartan integers and integer coweights, and nu scaled to integers;
    # Fraction vectors are rootdata's output view, which none imports or reads
    root = Path(perioddomains.__file__).parent
    modules = ("weyl.py", "strata.py", "finflag.py")
    assert [name for name in modules if "fractions" in _package_imports(root / name)] == []
    fraction_views = {"simple_roots", "fundamental_coweights", "gram", "coweight_gram"}
    reads = [f"{name}:{node.lineno} {node.attr}" for name in modules
             for node in ast.walk(ast.parse((root / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in fraction_views]
    assert reads == []


def test_finflag_alone_drives_a_finite_field_job():
    # one function, finflag.survey, holds the job's checks and verdicts: cli
    # imports no private name of finflag, and `_semistable` is named only by
    # `_is_semistable`, which both public tests call, and by `survey`
    root = Path(perioddomains.__file__).parent
    tree = ast.parse((root / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "finflag"
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "finflag"
                and node.attr.startswith("_")]
    assert private == []
    users = set()
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if any(getattr(node, "id", getattr(node, "attr", None)) == "_semistable"
                   for node in ast.walk(stmt)):
                users.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert users == {"finflag._is_semistable", "finflag.survey"}


def _raisers(text):
    """The top-level functions and classes of the package, as module.name,
    with a raise statement whose source holds text."""
    found = set()
    for path in sorted(Path(perioddomains.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if any(isinstance(node, ast.Raise) and text in ast.unparse(node)
                   for node in ast.walk(stmt)):
                found.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    return found


def test_flag_rows_are_checked_once_where_a_point_enters():
    # a point built outside the package is checked by `_is_semistable`, the
    # common path of both public tests, before any memo: its type, its steps and
    # rows, and a step that is not canonical is refused there, not reduced or
    # rebuilt; the kernel and its step pass only compute, and survey's loop
    # checks no point it built
    for text in ("flag point of type", "flag bases of type", "flag step of type",
                 "flag row of type", "flag point of width", "flag entry",
                 "is not in reduced"):
        assert _raisers(text) == {"finflag._is_semistable"}, text
    tree = ast.parse(Path(finflag.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert [ast.unparse(node.func) for node in ast.walk(defs["_is_semistable"])
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("rref", "FlagPoint")] == []
    for name in ("intersection_profiles", "_step_dims"):
        assert [node for node in ast.walk(defs[name]) if isinstance(node, ast.Raise)] == [], name
    assert [ast.unparse(node.func) for node in ast.walk(defs["_step_dims"])
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("rref", "_is_semistable")] == []
    assert [node for node in ast.walk(defs["verdicts"]) if isinstance(node, ast.Raise)
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "_is_semistable"] == []


def test_one_helper_refuses_a_negative_budget():
    # the CLI, strata_report and survey keep one rule by one helper
    assert _raisers("budget must be nonnegative") == {"errors.check_budget"}


def _package_reads(directory):
    """The (module, name) pairs the scripts in directory read of the package,
    through `from perioddomains import module [as alias]` and attribute reads,
    or `from perioddomains.module import name`, and the reads it lacks."""
    sources = sorted(directory.glob("*.py"))
    assert sources
    reads, missing = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        aliases = {alias.asname or alias.name: alias.name for node in imports
                   if node.module == "perioddomains" for alias in node.names}
        found = [(node.lineno, node.module.split(".", 1)[1], alias.name) for node in imports
                 if (node.module or "").startswith("perioddomains.") for alias in node.names]
        found += [(node.lineno, aliases[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases]
        for lineno, module, name in found:
            reads.add((module, name))
            if not hasattr(importlib.import_module(f"perioddomains.{module}"), name):
                missing.append(f"{path.name}:{lineno} {module}.{name}")
    return reads, missing


def test_perfbench_reads_only_names_the_package_has():
    # a rename in the package must fail here for every name the benchmark's
    # files read, not only for those its own tests happen to call
    reads, missing = _package_reads(Path(__file__).parents[1] / "perfbench")
    assert missing == []
    assert {module for module, _ in reads} == \
        {"finflag", "rootdata", "classify", "strata", "weyl", "cli"}
    assert ("finflag", "is_semistable_strata_test") in reads


def test_perfbench_reads_only_attributes_the_package_objects_have():
    # `_package_reads` sees module-level names only; these are the instance
    # attributes the benchmark reads of a group, its base and a parabolic
    g = rootdata.build_group("A", 2, res_degree=2)
    pd = weyl.parabolic_of(rootdata.assemble_nu(g, [(1, 0, -1)] * 2), g.absolute)
    reads = [(g, ("absolute", "base", "res_degree")),
             (g.base, ("rank", "ambient_dim", "fundamental_coweights")),
             (pd, ("delta_p", "w_p_order"))]
    assert [(type(obj).__name__, name) for obj, names in reads for name in names
            if not hasattr(obj, name)] == []


def test_scripts_read_only_names_the_package_has():
    reads, missing = _package_reads(Path(__file__).parents[1] / "scripts")
    assert missing == []
    assert {("cli", "parse_jobspec"), ("cli", "run_job"), ("cli", "report_error"),
            ("finflag", "flag_dims")} <= reads


def test_readme_keys_line_names_the_config_keys():
    # README's `Keys:` line lists every config key but `command`, which the
    # subcommand sets; the two must not drift apart
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("Keys: `")]
    assert len(lines) == 1
    keys = lines[0].split("`")[1].split()
    assert len(keys) == len(set(keys))
    assert set(keys) == cli._KNOWN_KEYS - {"command"}
