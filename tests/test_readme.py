"""The README's quick start and CLI examples run as written, the
package's imports and exports agree with its definitions, and only the
CLI reads or writes files."""

import ast
import re
from pathlib import Path

from gmr.cli import run

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# the README's JSON examples, in order; pk-fit reads pk-simulate's output
EXAMPLES = [("simulate", "simulate.csv"), ("pk-simulate", "pk_simulate.csv"),
            ("pk-fit", "pk_fit.json"), ("pk-sensitivity", "pk_sensitivity.json")]


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "solution.csv").read_text().startswith("t,value")


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs = blocks("json")
    assert len(configs) == len(EXAMPLES)
    for (command, artifact), text in zip(EXAMPLES, configs):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(text)
        assert run([command, "--config", str(cfg), "--out", "out"]) == 0, command
        assert (tmp_path / "out" / artifact).exists()


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _bound_names(node):
    """The names an import binds: the first part of a dotted module without 'as'."""
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _sources():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / "src" / "gmr").glob("*.py"))}


def test_only_the_cli_reads_or_writes_files():
    # the numerical modules take and return arrays; every file format
    # lives in gmr.cli
    problems = []
    for module, tree in _sources().items():
        if module == "cli":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            problems += [f"{module} imports {name}" for name in names
                         if name.split(".")[0] in ("csv", "json")]
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "open":
                    problems.append(f"{module} calls open at line {node.lineno}")
    assert not problems, "\n".join(problems)


def test_source_imports_and_exports_are_consistent():
    # an export left behind by a deleted function, or an import nothing uses
    trees = _sources()
    problems = []
    for module, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update(_bound_names(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        exports = _exports(tree)
        problems += [f"{module}.__all__ names undefined {name!r}"
                     for name in exports if name not in defined]
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        if module == "__init__":
            problems += [f"__init__ imports {a.name!r}, which is not in {node.module}.__all__"
                         for node in imports for a in node.names
                         if a.name not in _exports(trees[node.module])]
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        problems += [f"{module} imports {name!r} and never uses it"
                     for node in imports for name in _bound_names(node)
                     if name not in used and name not in exports]
    assert not problems, "\n".join(problems)
