"""Which functions of ``src/qracah`` a verdict, a command or a demo reaches.

    python3 tools/reach.py

Under ``sys.setprofile`` the script runs ``cli.main`` in its own process on
``verify --suite all --jobs 1`` (verdicts run exact scalars only), on one
``eval`` request per ``--fn`` (both families where a function takes either)
in each of the three modes, on one exact ``pr_inner`` at p = 1e-20 and on
``table`` requests in csv and json, then the six demos.  For every
``def`` in ``src/qracah`` it prints one line, the function's dotted name
after one of

- ``command``: a verdict or a command reaches it;
- ``demo``: only a demo reaches it;
- ``none``: nothing reaches it.

A function that nothing reaches stays in ``src`` only for a reason named in
``REFERENCES``.  The script exits 1 if an unreached function is missing
there, or if an entry there names a function that is reached or no longer
defined; 2 if a request fails; 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qracah"

_ITEM6 = "paper identity with no suite yet (ROADMAP item 6)"
_POLE = "only tests reach a pole of an exact series"

# every function that no verdict, command or demo reaches, and why it stays
REFERENCES = {
    "orthopoly.asc_orth_x": _ITEM6 + ": the infinite family's x-summed orthogonality",
    "orthopoly.asc_orth_x.terms": _ITEM6,
    "qseries._den_param_pole": _POLE,
    "qseries._pole": _POLE,
    "uqsl2.twist_x": "tests read the compact element on one site against tests/reference.py",
    "uqsl2.twist_y": "tests read the non-compact element on one site against tests/reference.py",
    "uqsl2.OpMatrix.apply": "the benchmark's operator probe and tests apply a matrix to a vector",
    "multivar.transfer_check_y": ("the benchmark's transfer probe and tests read it alone; "
                                  "verify runs its body, _transfer_residual"),
    "multivar.transfer_check_k2_asc": ("tests read the infinite chain's K**2 transfer alone; "
                                       "verify runs its body, _transfer_residual"),
    "verify._run_task_star": "runs only in the pool workers of verify --jobs N > 1",
    "scalar.QBase.__repr__": "names a base in test failures and tracebacks",
    "scalar.QBase.__reduce__": ("only pickle and copy reach it: --jobs pools ship tasks, "
                                "not bases"),
    "qseries.TailBound._make": ("_replace and copy.replace build through it (RunConfig's "
                                "too), so a copy is checked as built"),
    "tables.table_sizes": "tests read table sizes to show what a call tabled",
    "uqsl2.OpMatrix.__init__": "tests build dense matrices as references",
    "uqsl2.OpMatrix.__eq__": "tests compare matrices",
}

_EVAL = [
    ["--fn", "kraw", "--N", "2", "--s", "1", "--n", "1", "--x", "1"],
    ["--fn", "asc", "--k", "1", "--s", "1", "--n", "1", "--x", "1"],
    ["--fn", "heights", "--N", "2,2", "--t", "0", "--y", "1,0"],
    ["--fn", "heights", "--k", "1,1", "--t", "0", "--y", "1,0"],
    *(["--fn", fn, "--N", "2", "--s", "1", "--t", "0", "--v", "0", "--x", "1", "--y", "2"]
      for fn in ("rr_inner", "rr_closed")),
    *(["--fn", fn, "--k", "1", "--s", "1", "--t", "1", "--v", "0", "--x", "1", "--y", "1"]
      for fn in ("pr_inner", "pr_closed")),
    ["--fn", "rr_multi", "--N", "2,2", "--s", "1", "--t", "0", "--v", "0", "--x", "1,0", "--y", "0,1"],
    ["--fn", "pr_multi", "--k", "1,1", "--s", "1", "--t", "0", "--v", "0", "--x", "1,0", "--y", "0,1"],
    ["--fn", "weights", "--N", "2", "--s", "1", "--n", "1", "--x", "1"],
    ["--fn", "weights", "--k", "1", "--s", "1", "--n", "1", "--x", "1"],
    ["--fn", "coefficients", "--N", "2", "--t", "1", "--v", "0", "--y", "1"],
    ["--fn", "coefficients", "--k", "1", "--t", "1", "--v", "0", "--y", "1"],
]
_TABLE = [
    *(["--fn", "rr_inner", "--N", "2", "--s", "1", "--t", "0", "--v", "0",
       "--grid", "x=0:2,y=0:2", "--format", fmt] for fmt in ("csv", "json")),
    ["--fn", "rr_multi", "--N", "1,1", "--s", "1", "--t", "0", "--v", "0",
     "--grid", "x1=0:1,x2=0:1,y1=0:1,y2=0:1", "--format", "json"],
]
# (argv, exit codes that count as a completed request)
REQUESTS = [
    (["verify", "--suite", "all", "--jobs", "1"], (0,)),
    *((["eval", "--mode", mode, *argv], (0,))
      for mode in ("exact", "float", "complex") for argv in _EVAL),
    # an exact sum whose terms pass the float range, so the stop rule
    # compares their ratios on integer pairs
    (["eval", "--p", "1e-20", "--fn", "pr_inner", "--k", "1", "--s", "1", "--t", "1",
      "--v", "0", "--x", "2", "--y", "2"], (0,)),
    *((["table", *argv], (0,)) for argv in _TABLE),
]


def definitions() -> dict:
    """(file, first line) -> dotted name of every def in the package; a
    function's code starts at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(str(path), first)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


def run_reached():
    """The failed requests, the code starts (file, first line) that the
    requests reach, with the package's import, and the ones the demos add."""
    sys.path.insert(0, str(PACKAGE.parent))
    failed, reached = [], set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            from qracah import cli

            for argv, ok in REQUESTS:
                status = cli.main(argv)
                if status not in ok:
                    failed.append(f"qracah {' '.join(argv)} exited {status}")
            commands, reached = reached, set()
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return failed, commands, reached


def main() -> int:
    defs = definitions()
    failed, commands, demos = run_reached()
    for line in failed:
        print(f"request failed: {line}")
    if failed:
        return 2
    kinds = {}
    for start, name in defs.items():
        kinds[name] = "command" if start in commands else "demo" if start in demos else "none"
        print(f"{kinds[name]:8} {name}")
    counts = Counter(kinds.values())
    print(f"{len(kinds)} functions: {counts['command']} reached by a verdict or command, "
          f"{counts['demo']} only by a demo, {counts['none']} by nothing")
    status = 0
    for name, kind in kinds.items():
        if kind == "none" and name not in REFERENCES:
            print(f"unreached and not in REFERENCES: {name}")
            status = 1
    for name in REFERENCES:
        kind = kinds.get(name, "not defined")
        if kind != "none":
            print(f"in REFERENCES but {kind}: {name}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
