"""Functions of ``src/symcocycle`` that nothing the package ships enters.

    python3 tests/reach.py

Runs three things in one process under ``sys.settrace``, recording every
call whose code lies in ``src/symcocycle``:

* every line of README's "Command line" block, through ``cli.main``, in
  a temporary directory that holds a copy of ``scenarios/``;
* README's ``python`` blocks, in order, in one namespace;
* ``verify.run_all(0)`` (the block's ``verify`` line has run it already,
  so this reads the kept results);
* one pass of each workload of ``perfbench/workloads.py``, set up and
  run as the benchmark does, with seed 0.

Then prints every function and method defined in ``src/symcocycle``
(nested ones included) that none of them entered, with its length in
lines, and the total.  The gate makes this take several minutes.

It is opt in: pytest does not collect this file (no ``test_`` prefix)
and the tier-1 suite does not run it.
"""

import ast
import contextlib
import io
import os
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symcocycle"


def _walk(node, path, prefix, out):
    for child in ast.iter_child_nodes(node):
        name = getattr(child, "name", None)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            entry = (f"{path.name}:{prefix}{name}", child.end_lineno - child.lineno + 1)
            for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                out[str(path), line] = entry
            _walk(child, path, f"{prefix}{name}.", out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, f"{prefix}{name}.", out)
        else:
            _walk(child, path, prefix, out)


def defined():
    """``{(file, line): (qualified name, length)}`` of every function in
    the package; a decorated function is also keyed at each decorator's
    line, since its code may start there."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        _walk(ast.parse(path.read_text()), path, "", out)
    return out


def readme_commands():
    """Argument lists of README's "Command line" block, continued lines
    joined."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("symcocycle ")]


def readme_examples():
    """The source of README's ``python`` blocks, in order."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    return [block.split("```", 1)[0] for block in blocks]


def run_everything():
    import symcocycle
    from symcocycle import cli, verify

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "scenarios", Path(tmp) / "scenarios")
        os.chdir(tmp)
        for argv in readme_commands():
            code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"symcocycle {shlex.join(argv)} exited {code}")
        namespace = {}
        for source in readme_examples():
            exec(compile(source, "README.md", "exec"), namespace)
    verify.run_all(0)
    os.chdir(ROOT)  # the workloads read scenarios/ from here
    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in workloads.WORKLOADS.items():
            state = workload.setup(symcocycle, workloads.make_inputs(name, 0), workdir)
            workload.run_pass(state, workloads.Checks())


def main():
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))

    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        sys.settrace(trace)
        try:
            run_everything()
        finally:
            sys.settrace(None)
    functions = defined()
    reached = {functions[key] for key in entered if key in functions}
    unused = sorted(set(functions.values()) - reached)
    for name, length in unused:
        print(f"{length:4d}  {name}")
    print(f"{len(unused)} functions, {sum(n for _, n in unused)} lines, entered by none")


if __name__ == "__main__":
    main()
