"""One fresh process of a benchmark run.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds the source directory, the vpm argument vectors (each with its own
--out directory), the mode ("run" executes them through vpmeans.cli.main;
"setup" stops after the first configuration is parsed) and whether to trace.
RESULT receives the monotonic time at which the first configuration was
parsed, the import time, per-invocation exit codes, tracebacks and stdout
line times, and the trace counters.  vpm's own stdout is captured, so this
process writes nothing to stdout.
"""

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


class _TimedLines(io.TextIOBase):
    """stdout replacement that stamps each completed line with its time."""

    def __init__(self):
        self.lines = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.monotonic(), line))
        return len(text)


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    start = time.monotonic()
    import vpmeans
    import vpmeans.cli as cli
    import_s = time.monotonic() - start
    if src not in Path(vpmeans.__file__).resolve().parents:
        raise ImportError(f"vpmeans imported from {vpmeans.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(vpmeans)

    parsed_at = []
    parse_config = cli.parse_config

    def first_parse_marker(*args, **kwargs):
        config = parse_config(*args, **kwargs)
        if not parsed_at:
            parsed_at.append(time.monotonic())
        return config

    cli.parse_config = first_parse_marker
    if spec["mode"] == "setup":
        cli.dispatch = lambda config, suite: 0

    invocations = []
    for argv in spec["commands"]:
        out = _TimedLines()
        started = time.monotonic()
        exit_code, error = None, None
        try:
            with contextlib.redirect_stdout(out):
                exit_code = cli.main(list(argv))
        except SystemExit as exc:          # argparse usage errors
            exit_code = exc.code
        except Exception:
            error = traceback.format_exc()
        invocations.append({"argv": argv, "exit_code": exit_code, "error": error,
                            "started": started, "ended": time.monotonic(),
                            "lines": out.lines})
        if spec["mode"] == "setup":
            break

    result = {"import_s": import_s, "parsed_at": parsed_at[0] if parsed_at else None,
              "invocations": invocations,
              "trace": tracer.report() if tracer else None,
              "traced_functions": sorted(tracer.wrapped) if tracer else None}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
