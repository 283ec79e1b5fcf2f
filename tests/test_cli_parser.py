"""`cli.build_parser(name)` builds one subcommand's parser; `build_parser()`
builds all of them and is the reference here."""
import argparse

import pytest

from twistcert import cli
from twistcert.cli import build_parser, main
from twistcert.congruence import twist_gen

SUBCOMMANDS = ("eval", "certify", "plan", "verify-claims", "synthesize", "membership",
               "index", "density")

# Valid argv per subcommand: every option, defaults left out, options before
# and after the positional, and --format in both spellings.
VALID_ARGV = {
    "eval": [["eval", "a1", "--genus", "2"],
             ["eval", "--genus", "3", "d1^-2 b2", "--format", "json"],
             ["eval", "", "--genus=2", "--format=human"]],
    "certify": [["certify", "a1 b1", "--genus", "2"],
                ["certify", "--strict", "a1", "--genus", "4", "--format", "json"],
                ["certify", "a1", "--genus", "2", "--strict", "--format", "human"]],
    "plan": [["plan", "b1", "--genus", "2"],
             ["plan", "--format", "json", "d1^-2 b2^-3", "--genus", "5"]],
    "verify-claims": [["verify-claims", "--genus", "3"],
                      ["verify-claims", "--format", "json", "--genus", "8"]],
    "synthesize": [["synthesize", "V1", "--genus", "2"],
                   ["synthesize", "Z1,2^4", "--genus", "3", "--format", "json"]],
    "membership": [["membership", "m.txt", "--genus", "3"],
                   ["membership", "m.txt", "--genus", "2", "--witness", "A1 B1^-1",
                    "--cache", "c.bin", "--format", "json"],
                   ["membership", "--cache", "c.bin", "m.txt", "--genus", "2"]],
    "index": [["index"],
              ["index", "--genus", "2", "--cache", "c.bin", "--format", "json"],
              ["index", "--format", "human"]],
    "density": [["density", "--genus", "2", "--seed", "1", "--samples", "3"],
                ["density", "--seed", "7", "--samples", "10", "--blocks", "3",
                 "--bound", "4", "--genus", "5", "--format", "json"]],
}

# Help, usage errors and the unknown name: the same bytes either way.
REFERENCE_ARGV = [
    [], ["bogus", "x"], ["-h"], ["--help"], ["certify", "--help"], ["certify"],
    ["certify", "a1", "--genus", "2", "extra"], ["index", "--genus", "2", "--cache"],
    ["density", "--genus", "2"],
]


def test_subcommand_names_are_the_full_parsers():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == SUBCOMMANDS


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subcommand_parses_as_the_full_parser(name):
    for argv in VALID_ARGV[name]:
        assert vars(build_parser(name).parse_args(argv)) == \
            vars(build_parser().parse_args(argv))


def run(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", REFERENCE_ARGV, ids=" ".join)
def test_main_matches_the_full_parser(capsys, monkeypatch, argv):
    fast = run(capsys, argv)
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: real())
    assert fast == run(capsys, argv)


USAGE = ("usage: twistcert [-h]\n"
         "                 {eval,certify,plan,verify-claims,synthesize,membership,index,density}\n"
         "                 ...\n")


def test_no_and_unknown_subcommand_errors(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, []) == (
        2, "", USAGE + "twistcert: error: the following arguments are required: subcommand\n")
    assert run(capsys, ["bogus", "x"]) == (
        2, "", USAGE + "twistcert: error: argument subcommand: invalid choice: 'bogus' "
        "(choose from 'eval', 'certify', 'plan', 'verify-claims', 'synthesize', "
        "'membership', 'index', 'density')\n")
    assert run(capsys, ["certify", "a1", "--genus", "2", "extra"]) == (
        2, "", USAGE + "twistcert: error: unrecognized arguments: extra\n")


@pytest.fixture
def add_parser_calls(monkeypatch):
    calls = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return calls


def test_a_valid_op_builds_one_subparser(capsys, tmp_path, add_parser_calls):
    matrix = tmp_path / "m.txt"
    matrix.write_text("\n".join(" ".join(map(str, row))
                                for row in twist_gen("A", 1, 2).m.rows) + "\n")
    ops = [["eval", "a1", "--genus", "2"], ["certify", "a1", "--genus", "2"],
           ["plan", "b1", "--genus", "2"], ["verify-claims", "--genus", "2"],
           ["synthesize", "V1", "--genus", "2"], ["membership", str(matrix), "--genus", "2"],
           ["index"], ["density", "--genus", "2", "--seed", "1", "--samples", "2"]]
    for argv in ops:
        add_parser_calls.clear()
        code, out, _ = run(capsys, argv)
        assert code in (0, 1) and out
        assert add_parser_calls == [argv[0]]


@pytest.mark.parametrize("argv", [["--help"], ["bogus", "x"]])
def test_help_and_unknown_names_build_every_subparser(capsys, add_parser_calls, argv):
    assert run(capsys, argv)[0] in (0, 2)
    assert add_parser_calls == list(SUBCOMMANDS)


def test_every_call_builds_a_fresh_parser():
    first, second = build_parser("certify"), build_parser("certify")
    assert first is not second
    first.add_argument("--extra")
    assert "extra" not in vars(second.parse_args(["certify", "a1", "--genus", "2"]))
