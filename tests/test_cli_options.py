"""The CLI's option table: every option of every verb, pinned field by field,
so that a change to how the parser is declared cannot move a flag, its dest,
type, default, required flag or choices. The order of options (in --help and
usage text) is not pinned."""

import argparse

from posetdist.cli import _build_parser

# verb: sorted (option strings, dest, type name, default, required, choices)
OPTIONS = {
    "": [
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "oracle": [
        (("--dist",), "dist", None, None, True, None),
        (("--out",), "out", None, None, False, None),
        (("--poset",), "poset", None, None, True, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "test": [
        (("--T",), "T", "float", None, False, None),
        (("--alg",), "alg", None, None, True, ("bigness", "matching", "bipartite", "uniform-subset", "all-matchings")),
        (("--delta",), "delta", "int", None, False, None),
        (("--dist",), "dist", None, None, True, None),
        (("--eps",), "eps", "float", None, True, None),
        (("--multiplier",), "multiplier", "float", None, False, None),
        (("--out",), "out", None, None, False, None),
        (("--poset",), "poset", None, None, False, None),
        (("--seed",), "seed", "_seed", 0, False, None),
        (("--support-size",), "support_size", "int", None, False, None),
        (("--trials",), "trials", "int", 1, False, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "reduce": [
        (("--T",), "T", "float", None, False, None),
        (("--d",), "d", "int", None, False, None),
        (("--delta",), "delta", "int", None, False, None),
        (("--dist",), "dist", None, None, False, None),
        (("--ell",), "ell", "int", None, False, None),
        (("--from",), "from", None, None, True, None),
        (("--kind",), "kind", None, None, True, ("g2b", "b2m", "big2m", "m2hyp")),
        (("--out-dist",), "out_dist", None, None, True, None),
        (("--out-poset",), "out_poset", None, None, True, None),
        (("--pmax",), "pmax", "float", None, False, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "lb": [
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "lb solve": [
        (("--L",), "L", "int", None, True, None),
        (("--lambda",), "lam", "float", None, True, None),
        (("--nu",), "nu", "float", None, True, None),
        (("--out",), "out", None, None, False, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "lb gen": [
        (("--L",), "L", "int", None, True, None),
        (("--eps",), "eps", "float", None, False, None),
        (("--lambda",), "lam", "float", None, False, None),
        (("--n",), "n", "int", None, True, None),
        (("--nu",), "nu", "float", None, False, None),
        (("--out-prefix",), "out_prefix", None, None, True, None),
        (("--s",), "s", "int", None, False, None),
        (("--seed",), "seed", "_seed", 0, False, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "lb probe": [
        (("--L",), "L", "int", None, True, None),
        (("--lambda",), "lam", "float", None, True, None),
        (("--n",), "n", "int", None, True, None),
        (("--nu",), "nu", "float", None, True, None),
        (("--out",), "out", None, None, False, None),
        (("--s-values",), "s_values", None, None, True, None),
        (("--seed",), "seed", "_seed", 0, False, None),
        (("--trials",), "trials", "int", 200, False, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
    "suite": [
        (("--manifest",), "manifest", None, None, True, None),
        (("--out",), "out", None, None, False, None),
        (("--seed",), "seed", "_seed", 0, False, None),
        (("-h", "--help"), "help", None, "==SUPPRESS==", False, None),
    ],
}


def _option_table(parser, verb=()):
    """(verb, its sorted option rows) for the parser and every subparser below it."""
    yield " ".join(verb), sorted(
        (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None), a.default, a.required,
         tuple(a.choices) if a.choices is not None else None)
        for a in parser._actions if a.option_strings)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _option_table(sub, verb + (name,))


def test_option_table_pin():
    assert dict(_option_table(_build_parser())) == OPTIONS


def test_the_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()
