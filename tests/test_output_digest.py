"""The CLI's exact outputs are byte-identical to the recorded ones.

`tools/output_digest.py` digests stdout, stderr and the exit code of five
fixed lists of calls; four are compared here: the benchmark's and the other
exact commands', the `--system` parsing paths and the numeric options with
the inputs they reject (`parsing_calls`), the exact commands at their size
caps (`cap_calls`), and `moser`, `bogo`, `reduce` and `verify reduction` in
their text format (`text_calls`).  The fifth, `float_calls`, runs only
`simulate`.  Every call but `simulate` is compared here with
`tests/golden/output_digest.json`, keyed by its argument list; the
`simulate` calls are left out, since their float bits may differ across CPUs
and numpy builds.  A refactor that claims byte-identical outputs fails here
when one call's bytes move.  The tool is read from tools/ and executed in
memory, as `tests/test_traced_names.py` does with the tracer.
"""

import json
import types
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "output_digest.py"
GOLDEN = Path(__file__).parent / "golden" / "output_digest.json"


def load_tool() -> types.ModuleType:
    module = types.ModuleType("output_digest")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    return module


def test_exact_outputs_match_the_recorded_digests(tmp_path):
    tool = load_tool()
    want = json.loads(GOLDEN.read_text())
    got = {}
    listed = tool.calls(str(tmp_path)) + tool.parsing_calls() + tool.cap_calls()
    for _label, argv in listed + tool.text_calls():
        if argv[0] != "simulate":
            got[" ".join(argv)] = tool.digest(argv)[0]
    assert set(got) == set(want)
    assert [key for key in want if got[key] != want[key]] == []
