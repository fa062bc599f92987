"""Print the lower-bound pin tables of test_golden.py, computed by the current code.

Run from the repository root:

    PYTHONPATH=src python tests/lb_pins.py

The output is GOLDEN_LB_GEN, GOLDEN_LB_PROBE_CSV and GOLDEN_INSTANCES in the
form test_golden.py writes them, so a change that moves the lower-bound draws
on purpose re-pins them by pasting the output over those three tables.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile


def pin_tables_source(gen: dict, probe_csv: str, instances: list[str]) -> str:
    """The three tables as test_golden.py's source spells them."""
    lines = ["GOLDEN_LB_GEN = {"]
    for run, digests in gen.items():
        lines.append(f'    "{run}": {{')
        lines += [f'        "{name}": "{sha}",' for name, sha in digests.items()]
        lines.append("    },")
    lines += ["}", "", "", "GOLDEN_LB_PROBE_CSV = ("]
    lines += [f"    {line!r}" for line in probe_csv.splitlines(keepends=True)]
    lines += [")", "", "", "GOLDEN_INSTANCES = ["]
    lines += [f"    {pin!r}," for pin in instances]
    lines.append("]")
    return "\n".join(lines) + "\n"


def current_tables() -> str:
    from posetdist.cli import main
    from test_golden import LB_GEN_ARGV, LB_PROBE_ARGV, instance_pins, lb_gen_digests

    gen = {}
    for run, argv in LB_GEN_ARGV.items():
        with tempfile.TemporaryDirectory() as tmp:
            gen[run] = lb_gen_digests(pathlib.Path(tmp), argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(LB_PROBE_ARGV) == 0
    return pin_tables_source(gen, out.getvalue(), instance_pins())


if __name__ == "__main__":
    print(current_tables(), end="")
