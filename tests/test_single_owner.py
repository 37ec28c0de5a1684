"""Three facts have one owner each under src/.

- Whether an object is a shrinkage rule: shrinkage._evaluate is the only
  place that tests a value against shrinkage._RULES and the only caller of
  a rule's `_eval`, so every entry point that evaluates a rule checks it
  there and nowhere else.
- The method names: sure._FAMILIES holds the grid families and
  rmt.ASYMPTOTIC_VARIANTS the calibrated variants.  The benchmark harness
  and the CLI take their names from there and spell none of them, nor a
  grid family's "-sure" method, as a string of their own.
- The benchmark harness's clock: bench.timing_report is the only function
  of bench.py that calls perf_counter, so run_sweep and sensitivity_sweep
  score the methods without timing them.

The checks parse each module with the standard library's ast module.
Docstrings and help texts that mention a name are not exact matches and
pass.
"""

import ast
from pathlib import Path

from svshrink.bench import EYM_ORACLE, METHOD_RUNNERS, TUNED_FAMILIES
from svshrink.rmt import ASYMPTOTIC_VARIANTS
from svshrink.sure import _FAMILIES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "svshrink"
RULE_OWNER, EVALUATION = "shrinkage.py", "_evaluate"
HARNESS, TIMER = "bench.py", "timing_report"
NAME_USERS = ("bench.py", "cli.py")
METHOD_NAMES = {*_FAMILIES, *TUNED_FAMILIES, *ASYMPTOTIC_VARIANTS}


def calls(source: str):
    """(enclosing module-level function or None, node) of each call."""
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield where, node


def rule_checks(source: str) -> list:
    """(line, enclosing module-level function or None, what) of each
    isinstance test against _RULES and each call of `._eval`."""
    found = []
    for where, node in calls(source):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            if "_RULES" in ast.unparse(node.args[1]):
                found.append((node.lineno, where, "isinstance rule check"))
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "_eval":
            found.append((node.lineno, where, "._eval call"))
    return sorted(found)


def clock_reads(source: str) -> list:
    """(line, enclosing module-level function or None) of each call of
    perf_counter, by its own name or as a module's attribute."""
    return sorted(
        (node.lineno, where)
        for where, node in calls(source)
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "perf_counter"
    )


def spelled_names(source: str, names) -> list:
    """(line, name) of each string constant exactly equal to one of names."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    ]


def test_rule_checked_only_in_evaluate():
    stray = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, where, what in rule_checks(path.read_text())
        if path.name != RULE_OWNER or where != EVALUATION
    ]
    assert stray == []
    owned = {what for _, _, what in rule_checks((PACKAGE / RULE_OWNER).read_text())}
    assert owned == {"isinstance rule check", "._eval call"}


def test_harness_and_cli_spell_no_method_name():
    spelled = [
        f"{name}:{line}: {text!r}"
        for name in NAME_USERS
        for line, text in spelled_names((PACKAGE / name).read_text(), METHOD_NAMES)
    ]
    assert spelled == []


def test_harness_reads_the_clock_only_in_timing_report():
    reads = clock_reads((PACKAGE / HARNESS).read_text())
    assert reads and {where for _, where in reads} == {TIMER}


def test_method_runners_cover_every_family_and_variant():
    assert set(METHOD_RUNNERS) == {"svlet", EYM_ORACLE, *TUNED_FAMILIES, *ASYMPTOTIC_VARIANTS}
    # load_config's default method list and the "unknown method" message read this order.
    assert tuple(METHOD_RUNNERS) == (
        "svlet", "svst-sure", "atn-sure", "svlt-sure", "opt-shrink", "svht-4sqrt3", "svst-bulk", "eym-oracle",
    )


def test_checks_see_restated_facts():
    source = (
        "def _evaluate(rule, s):\n"
        "    if not isinstance(rule, _RULES):\n"
        "        raise TypeError(rule)\n"
        "    return rule._eval(s)\n"
        "def apply(rule, s):\n"
        "    if not isinstance(rule, (Svst, *_RULES)):\n"
        "        raise TypeError(rule)\n"
        "    return [rule._eval(v) for v in s]\n"
        "RUNNERS = {'atn-sure': None, 'svst': None}\n"
        "HELP = 'svst or atn; see svst-sure'\n"
    )
    assert rule_checks(source) == [
        (2, "_evaluate", "isinstance rule check"),
        (4, "_evaluate", "._eval call"),
        (6, "apply", "isinstance rule check"),
        (8, "apply", "._eval call"),
    ]
    assert spelled_names(source, METHOD_NAMES) == [(9, "atn-sure"), (9, "svst")]


def test_clock_check_sees_stray_reads():
    source = (
        "import time\n"
        "from time import perf_counter\n"
        "def timing_report(grid):\n"
        "    return [perf_counter() for _ in grid]\n"
        "def run_sweep(grid):\n"
        "    return time.perf_counter()\n"
        "STARTED = perf_counter()\n"
    )
    assert clock_reads(source) == [(4, "timing_report"), (6, "run_sweep"), (7, None)]
