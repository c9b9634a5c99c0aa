"""The library is what the commands run: a ledger of the functions the golden runs never enter.

conftest's fresh golden run (every model file through the five commands)
records each function of ``src/wavefront`` that was called, by its code
object's file and first line.  ``definitions`` names those lines with the
qualnames ``ast`` reads from the source.  Every function that no run
entered must have a row in ``tests/reachability.tsv``: file, qualname and
one reason from ``REASONS``.  A function that is neither entered nor
listed is unused code to delete, or a row to add; a listed one that a run
now enters, or that is gone, is a row to drop.
"""

import ast
import re
import sys
from functools import cache
from pathlib import Path

import wavefront as wf

SRC = Path(__file__).resolve().parents[1] / "src" / "wavefront"
LEDGER = Path(__file__).resolve().parent / "reachability.tsv"
REASONS = re.compile(r"test oracle|error path|base-class stub|benchmark reference"
                     r"|item \d+ wires it")


@cache
def definitions(path: Path) -> dict[int, str]:
    """First line -> qualname of each function defined in the module at ``path``.

    The first line is the code object's ``co_firstlineno``: the line of the
    first decorator of a decorated function.  The qualname is the one
    ``co_qualname`` (Python 3.11+) gives: ``Class.method`` and
    ``outer.<locals>.inner``.  A property's getter and setter share theirs.
    """
    names = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[first] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return names


def qualname(path: Path, line: int, code_name: str) -> str | None:
    """The qualname of the function whose code starts at ``line`` of ``path`` and is named ``code_name``.

    None for the code of a lambda, a comprehension, a class body or a module.
    """
    name = definitions(path).get(line)
    return name if name is not None and name.rpartition(".")[2] == code_name else None


def ledger() -> dict[tuple[str, str], str]:
    """(file, qualname) -> reason, from the rows of ``tests/reachability.tsv``."""
    rows = [line.split("\t") for line in LEDGER.read_text().splitlines()
            if line and not line.startswith("#")]
    assert all(len(row) == 3 for row in rows), [row for row in rows if len(row) != 3]
    table = {(file, name): reason for file, name, reason in rows}
    assert len(table) == len(rows), "a function has two rows"
    return table


def test_the_mapper_names_code_as_its_qualname():
    entered = set()

    def called(frame, event, arg):
        entered.add(frame.f_code)

    m = wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0)
    before = sys.gettrace()
    sys.settrace(called)
    try:
        m.g.slopes(0.0, 0.375)  # a decorated method (lru_cache), on a first call
        assert m.to_convolution_form(2.5).spectral is not None  # a cached_property
        wf.model_min_speed(m)  # calls its nested assembled(c)
    finally:
        sys.settrace(before)
    package = Path(wf.__file__).resolve().parent
    names = {code: qualname(Path(code.co_filename), code.co_firstlineno, code.co_name)
             for code in entered if Path(code.co_filename).resolve().parent == package}
    assert {"Nonlinearity.slopes", "ConvolutionProblem.spectral",
            "model_min_speed.<locals>.assembled"} <= set(names.values())
    for code, name in names.items():
        if hasattr(code, "co_qualname"):  # Python 3.11+
            assert name in (None, code.co_qualname), (name, code.co_qualname)


def test_every_function_the_runs_do_not_enter_has_a_row_in_the_ledger(fresh_golden_run):
    entered = {(file, qualname(SRC / file, line, code_name))
               for file, line, code_name in fresh_golden_run["entered"]}
    unreached = {(path.name, name) for path in sorted(SRC.glob("*.py"))
                 for name in definitions(path).values()} - entered
    table = ledger()
    add = sorted(unreached - table.keys())
    drop = sorted(table.keys() - unreached)
    bad = sorted(key for key, reason in table.items() if not REASONS.fullmatch(reason))
    lines = []
    if add:
        lines += ["rows to add to tests/reachability.tsv, each with one reason (test oracle, "
                  "error path, base-class stub, benchmark reference or item N wires it):"]
        lines += [f"{file}\t{name}\t<reason>" for file, name in add]
    if drop:
        lines += ["rows to drop (a run enters the function, or it is gone):"]
        lines += [f"{file}\t{name}\t{table[file, name]}" for file, name in drop]
    if bad:
        lines += ["rows whose reason is not one of the list:"]
        lines += [f"{file}\t{name}\t{table[file, name]}" for file, name in bad]
    assert not lines, "\n".join(lines)
