"""README.md's library examples run as written, and its API and config-key
tables match what the package binds and the parser accepts."""

import re
import types
from pathlib import Path

import jamsim
from jamsim.cli import KNOWN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _first_column(header: str) -> list[str]:
    """Every backticked name in the first column of the table that starts with header."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index(header):]
    rows = table[:table.index("\n\n")].splitlines()[2:]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


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


def test_api_table_lists_exactly_the_public_names():
    # the library section's API table, every name once, against the public
    # names the package binds; its submodules are bound too, but as modules
    listed = _first_column("| names | what")
    bound = [name for name, value in vars(jamsim).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(listed) == sorted(bound)


def test_config_key_table_lists_exactly_the_known_keys():
    # the first column of the Command line section's key table, every
    # backticked key once, against the keys the config parser accepts
    assert sorted(_first_column("| key | meaning")) == sorted(KNOWN_KEYS)
