"""Every function under src/smartran is entered by some entry point.

Runs the CLI's documented commands on tiny inputs under a profiler, on
the calling thread (sys.setprofile) and on every thread started meanwhile
(threading.setprofile), such as the engine's learning helper, then lists
the ``def``s in the package that were never entered. Code that no entry
point reaches is either dead or only exercised by its own
tests; each survivor named below says why it stays.
"""

import ast
import os
import sys
import threading
from pathlib import Path

from smartran import cli
from smartran.config import LEARNERS, SCHEMES

PACKAGE = Path(cli.__file__).resolve().parent

# defs no entry point enters, and why each stays
UNREACHED = {
    "config.serialize_config",  # the run manifest's config hash (ROADMAP item 2)
    "metrics.Allocation.validate",  # the tests' grant oracle
    "metrics.Mode.__str__",  # perfbench's record checks read str(record.executed)
}


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> dotted name, for every
    def in the package; a decorated def's code starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        prefix = "" if module == "__init__" else module.removesuffix(".__init__") + "."
        visit(ast.parse(path.read_text()), str(path), prefix)
    return found


def test_every_def_is_reached_from_an_entry_point(tmp_path, capsys, monkeypatch):
    for key in list(os.environ):
        if key.startswith("SMARTRAN_"):
            monkeypatch.delenv(key)
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "rrs_count = 2\nsubcarriers = 4\nn_users = 3\ntrain_slots = 6\neval_slots = 2\n"
        "batch_size = 4\nhidden_sizes = 8\nmemory_depth = 2\nnorm_warmup_slots = 2\n"
    )
    figure = ["figure", "--seeds", "1", "--workers", "1", "--out", str(tmp_path)]
    commands = [
        ["validate"],
        [*figure, "--preset", "toc", "--slots", "1"],
        [*figure, "--preset", "overhead", "--scheme", "equal-power-baseline", "--slots", "1"],
        [
            *figure, "--preset", "rate", "--paper-scale", "--scheme", "equal-power-baseline",
            "--slots", "1",
        ],
    ] + [
        ["run", "--config", str(config), "--scheme", scheme, "--learner", learner,
         "--out", str(tmp_path)]
        for scheme in SCHEMES
        for learner in LEARNERS
    ]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous, previous_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
    capsys.readouterr()
    assert codes == [0] * len(commands)

    entered = {(os.path.realpath(f), line) for f, line in entered}
    unreached = {name for key, name in _defs().items() if key not in entered}
    assert unreached == UNREACHED
