"""Write the CLI artifacts of the test configs, for a diff between two trees.

    python tests/write_artifacts.py OUTDIR

runs the 8 ``RERUN_CONFIGS`` of tests/test_cli.py into ``OUTDIR/<command>/``
and the README's 4 CLI examples (tests/test_readme.py) into
``OUTDIR/readme-<command>/``. Each config runs ``python -m gmr.cli`` from
this tree's ``src/`` in its own process with ``OPENBLAS_NUM_THREADS=1``,
because the BLAS thread count changes the last bits of the fBm artifacts.
The inputs (configs and observation files) go to a temporary directory,
so OUTDIR holds artifacts only. Two trees wrote the same artifacts when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_cli import PK_FIT_OBS, RERUN_CONFIGS  # noqa: E402
from test_readme import EXAMPLES, blocks  # noqa: E402


def configs(work: Path, out: Path):
    """(output name, command, config) in run order; pk-fit's observations go to ``work``."""
    (work / "obs.csv").write_text(PK_FIT_OBS)
    for command, payload in RERUN_CONFIGS.items():
        if command == "pk-fit":
            payload = dict(payload, observations=str(work / "obs.csv"))
        yield command, command, payload
    for (command, _), text in zip(EXAMPLES, blocks("json")):
        payload = json.loads(text)
        if command == "pk-fit":  # the README fit reads the README pk-simulate output
            payload["observations"] = str(out / "readme-pk-simulate" / "pk_simulate.csv")
        yield f"readme-{command}", command, payload


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, command, payload in configs(work, out):
            cfg = work / f"{name}.json"
            cfg.write_text(json.dumps(payload))
            subprocess.run([sys.executable, "-m", "gmr.cli", command, "--config", str(cfg),
                            "--out", str(out / name)], check=True, env=env)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
