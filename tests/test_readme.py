"""The README's quick start and CLI examples run as written."""

import re
from pathlib import Path

from gmr.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

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
