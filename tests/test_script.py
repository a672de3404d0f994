"""The benchmark script end to end on the default world."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_seed_zero_table_matches_readme(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_synthetic_benchmark.py"),
         "--seed", "0", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    documented = re.search(r"```\n(system .*?)```", readme, re.S).group(1)
    assert result.stdout == documented
    for name in ("base", "hybrid", "oracle", "translator-direct", "procrustes"):
        assert (tmp_path / f"{name}.summary.tsv").exists()
