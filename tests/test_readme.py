"""README.md's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_protocol_example_runs(capsys):
    # the quick start's config, without its 50000-trial loop, then the
    # protocol example, which reads that config
    quick_start, protocols = _python_blocks()[:2]
    setup = quick_start[:quick_start.index("\nfor scheme")]
    namespace = {}
    exec(setup, namespace)
    exec(protocols, namespace)
    cfg = namespace["cfg"]
    for name in ("trace1", "trace2"):
        trace = namespace[name]
        assert 1 <= trace.n_used == len(trace.rounds) <= cfg.n_max
    # the codeword jammer sits on the pilot alg2 opens with
    assert namespace["trace2"].rounds[0].overlap_true == 1.0
    printed = capsys.readouterr().out.split()
    assert printed == [str(namespace["trace1"].n_used), namespace["trace1"].stop_reason,
                       str(namespace["trace2"].n_used), namespace["trace2"].stop_reason]
