"""The CLI's robustness contract, over argument lists drawn from its own parser.

Every input ends in exit code 0, 1 or 2 and never in a traceback; exit 2
prints exactly one `error:` line on stderr.  The argument lists come from
`build_parser()`'s actions, so a new subcommand or option is drawn as soon
as it exists (an option with no entry in VALUES fails the test).  Sizes
come only from the cheap end or from values the CLI rejects, so each call
runs in milliseconds, and every file read or written lies under tmp_path.

Tier-1 draws 200 derandomized argument lists.  A deeper run draws fresh
random ones:

    PYTHONPATH=src python -m pytest -q tests/test_cli_contract.py --cli-fuzz-examples 4000
"""

import argparse
import json

from hypothesis import given, settings, strategies as st

from todavolterra.cli import build_parser, main

FAMILIES = ("toda-a", "toda-b", "toda-c", "volterra-a", "volterra-b", "volterra-c")
# rejected by every numeric option
NON_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "1e308", "x", "")
# a positive integer past float range: `--decimate` and `--seed` take it, the
# bounded options reject it
BIG = str(10**400)

# option dest -> (values the CLI may accept, values it must reject), for the
# options without `choices`.  The sizes are the cheap end, or ones that every
# subcommand rejects before any work.  The --x0 files are written by
# `write_x0_files`; "missing.json" is not, and "." is a directory.
VALUES = {
    "system": (tuple(f"{name}:{n}" for name in FAMILIES for n in "1234"),
               ("toda-d:2", "toda:2", "toda-a:0", "toda-a:-1", "toda-a:10000000",
                "toda-a:" + BIG, "volterra-a:x", "", "toda-a", "toda-a:2:3", ":")),
    "bracket": (("1", "2", "3", "4"), ("-1", "0", "5", "x")),
    "brackets": (("1,2", "2,3", "1,3", "2,4"), ("0,9", "1", "1,2,3", "a,b")),
    "n": (("1", "2"), ("17", BIG) + NON_NUMBERS),
    "max_rank": (("2", "3"), ("1", "17", BIG) + NON_NUMBERS),
    "rank": (("1", "2", "4"), ("65", BIG) + NON_NUMBERS),
    "N": (("5", "7"), ("3", "4", "43", BIG) + NON_NUMBERS),
    "flow": (("1", "2", "3"), ("99", "10000000", BIG) + NON_NUMBERS),
    "t_end": (("0.01", "0.5", "1e-3"), ("1e-320",) + NON_NUMBERS),
    "h": (("1e-3", "0.01"), ("0.3", "1e-320") + NON_NUMBERS),
    "decimate": (("1", "100", BIG), ("1e3",) + NON_NUMBERS),
    "seed": (("0", "1", "-1", "99999999999999999999", BIG), ("x", "1.5")),
    "x0": (("point.json",), ("huge.json", "short.json", "nan.json", "strings.json",
                             "list.json", "malformed.json", "deep.json", "missing.json", ".")),
    "out": (("out.csv",), ("no-such-dir/out.csv",)),
}


def write_x0_files(directory) -> None:
    files = {
        "point.json": {"a": [0.5] * 8, "b": [0.1] * 8},
        "huge.json": {"a": [1e300] * 8, "b": [-1e300] * 8},
        "short.json": {"a": [0.5], "b": []},
        "nan.json": {"a": [float("nan")] * 8, "b": [0.1] * 8},
        "strings.json": {"a": ["x"] * 8, "b": [None] * 8},
        "list.json": [0.5, 0.5],
    }
    for name, content in files.items():
        (directory / name).write_text(json.dumps(content))
    (directory / "malformed.json").write_text("{not json")
    # nested past the parser's recursion limit
    (directory / "deep.json").write_text("[" * 200000 + "]" * 200000)


def leaves(parser: argparse.ArgumentParser, prefix=()) -> list:
    """(subcommand words, parser) for every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(list(prefix), parser)]
    return [leaf for name, p in subs[0].choices.items() for leaf in leaves(p, (*prefix, name))]


def leaf_options() -> list:
    """(subcommand words, [(flag, dest, required, accepted, rejected)]) for
    every leaf subcommand and each of its options."""
    cases = []
    for words, parser in leaves(build_parser()):
        options = []
        for action in parser._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            if action.choices is not None:
                good, bad = tuple(action.choices), ("bogus",)
            else:
                good, bad = VALUES[action.dest]
            options.append((action.option_strings[0], action.dest, action.required, good, bad))
        cases.append((words, options))
    return cases


def argv_strategy():
    """Argument lists: a subcommand, then a drawn subset of its options in any
    order.  Half of them draw every value from the accepted ones and keep
    every required option; the rest mix in rejected values, sometimes leave
    out a required option and sometimes add an unknown one."""
    cases = leaf_options()

    @st.composite
    def draw(draw_):
        words, options = draw_(st.sampled_from(cases))
        accepted = draw_(st.booleans())
        chosen = []
        for flag, _, required, good, bad in options:
            keep = draw_(st.booleans()) or (required and (accepted or draw_(st.integers(0, 9)) > 0))
            if keep:
                chosen.append([flag, draw_(st.sampled_from(good if accepted else good + bad))])
        if not accepted and draw_(st.integers(0, 9)) == 0:
            chosen.append(["--bogus", "1"])
        return words + [x for pair in draw_(st.permutations(chosen)) for x in pair]

    garbage = st.sampled_from([[], ["nope"], ["verify"], ["verify", "nope"], ["--bogus"]])
    return st.one_of(draw(), garbage)


def test_every_input_exits_cleanly(tmp_path, monkeypatch, capsys, request):
    write_x0_files(tmp_path)
    monkeypatch.setenv("TODAVOLTERRA_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    fuzz = request.config.getoption("--cli-fuzz-examples")

    @settings(max_examples=fuzz or 200, derandomize=not fuzz, deadline=None, database=None)
    @given(argv_strategy())
    def check(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out + err, argv
        if code == 2:
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1, (argv, err)

    check()


# accepted values for a base call where the first of VALUES or `choices`
# will not do: toda-a:1 is rejected (`--system` needs two sites), psi, the
# first map, is a Poisson map of toda-a:2 only for bracket 2, and --t-end 0.01
# keeps the base `simulate` short
BASE = {"system": "toda-a:2", "bracket": "2", "t_end": "0.01"}


def test_every_rejected_value_exits_2_in_a_valid_call(tmp_path, monkeypatch, capsys):
    # the random draws seldom pair a rejected value with an otherwise valid
    # call, so each one is also run once in one: the leaf's base call (its
    # required options and those of BASE) with that option set to the value
    write_x0_files(tmp_path)
    monkeypatch.setenv("TODAVOLTERRA_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for words, options in leaf_options():
        base = {flag: BASE.get(dest, good[0])
                for flag, dest, required, good, _ in options if required or dest in BASE}
        code = main(words + [x for pair in base.items() for x in pair])
        capsys.readouterr()
        assert code in (0, 1), (words, base, code)
        for flag, _, _, _, bad in options:
            for value in bad:
                argv = words + [x for pair in {**base, flag: value}.items() for x in pair]
                code = main(argv)
                out, err = capsys.readouterr()
                assert (code, out) == (2, ""), argv
                lines = err.splitlines()
                assert [line for line in lines if "error:" in line] == lines[-1:], (argv, err)
                # a parse error follows argparse's usage text; any other is one line
                one_line = err.startswith("error: ") and len(lines) == 1
                assert err.startswith("usage: ") or one_line, (argv, err)
