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


def test_readme_names_every_run_memo():
    # the diagnostics.caches sentence lists the run memos, so a memo added or
    # removed without its mention there fails here
    import vpmeans.cli    # imports every module that owns a memo
    from vpmeans.memo import run_memo_stats
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"of the per-run memos \(([^)]*)\)", readme)
    assert listed
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(run_memo_stats())


def test_readme_names_every_configuration_key():
    # the configuration paragraph lists the settable keys, so a key added or
    # removed without its mention there fails here
    from dataclasses import fields

    from vpmeans.cli import RunConfig
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The configuration keys \(([^)]*)\)", readme)
    assert listed
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(
        f.name for f in fields(RunConfig))


def test_readme_usage_names_every_option():
    # the `vpm <suite> [...]` usage block lists the CLI's options, so a flag
    # added or removed without its mention there fails here
    from vpmeans.cli import build_parser
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    usage = re.search(r"^vpm <suite> (.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert usage
    assert sorted(re.findall(r"\[(--[\w-]+)", usage.group(1))) == sorted(
        re.findall(r"\[(--[\w-]+)", build_parser().format_usage()))
