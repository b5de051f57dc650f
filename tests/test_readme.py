import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_readme_python_blocks_run(tmp_path):
    # every ```python block of README.md runs as written against src/, warnings
    # as strict as the test suite's, so a signature change cannot break one
    # unnoticed
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for source in blocks:
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-c", source], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"{source}\n{done.stderr}"
