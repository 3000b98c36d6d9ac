#!/usr/bin/env python3
"""Which lines of ``src/`` do the product paths reach?

    python3 tools/reach.py    # run every product path, then report

A product path is a way the project is used: the examples, the ``c4cam``
command line (at least one invocation per mode flag its ``--help``
lists, the three ``--dump-ir`` stages and the ``--pipeline`` example),
both perfbench workloads at ``--trace 0`` and ``1``, and the benchmark
suite.  The unit tests are not one: a line only a test reaches has no
product path.

Each path runs in its own subprocess under a line recorder:
``sys.settrace`` and ``threading.settrace`` (so serving lanes count)
record every line run and every function entered in
a file under ``src/``.  ``co_lines()`` of each file's compiled code
gives its executable lines.  The report merges the records of every
path and prints each path's exit status (a failing path is reported,
not fatal: tracing slows timed benchmark floors unequally), each file's
unreached executable lines, every function no path entered (outermost
only, largest first, with its unreached lines) and the totals.  The
examples run from temporary directories, so nothing is written to the
checkout.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: ``co_flags`` bit of a function's code (not a module or class body).
_CO_OPTIMIZED = 0x1
#: Paths run at once (each is one single-threaded process, mostly).
JOBS = 2


class ProductPath(NamedTuple):
    """One way of running the project: ``python3 <target> *args`` for a
    script (relative to the checkout root) or ``python3 -m <target>
    *args`` for a module, run in a fresh temporary directory unless
    ``in_root``."""

    label: str
    target: str
    args: Tuple[str, ...] = ()
    module: bool = False
    in_root: bool = False


def _cli(*args: str) -> ProductPath:
    return ProductPath("c4cam " + " ".join(args), "repro.cli", args,
                       module=True)


#: ``--arch`` of the CLI path that reads one (written into its
#: temporary directory).
ARCH_JSON = {"rows": 64, "cols": 64, "cam_type": "mcam", "bits_per_cell": 2}

PRODUCT_PATHS: Tuple[ProductPath, ...] = (
    *(ProductPath(f"example {name}", f"examples/{name}") for name in (
        "quickstart.py", "hdc_mnist.py", "knn_pneumonia.py",
        "pattern_matching.py", "recsys_pipeline.py",
        "design_space_exploration.py",
    )),
    _cli(),
    _cli("--stats"),
    _cli("--dump-ir", "torch"),
    _cli("--dump-ir", "cim"),
    _cli("--dump-ir", "cam"),
    _cli("--dump-ir", "cam", "--shards", "2"),
    _cli("--pipeline", "torch-to-cim,cim-fuse-ops", "--dump-ir", "cim"),
    _cli("--rows", "64", "--cols", "64", "--target", "density"),
    _cli("--target", "power", "--queries", "2", "--seed", "3"),
    _cli("--target", "power+density", "--stats"),
    _cli("--cam-type", "acam", "--bits", "3"),
    _cli("--arch", "arch.json", "--patterns", "16", "--dims", "256"),
    _cli("--batch", "64", "--stats"),
    _cli("--banks", "1", "--patterns", "512", "--dims", "1024"),
    _cli("--banks", "1", "--patterns", "512", "--shards", "4"),
    _cli("--replicas", "2", "--serve", "--batch", "16"),
    _cli("--tenants", "3", "--banks", "2"),
    _cli("--cluster", "3", "--priority", "2", "--batch", "8"),
    _cli("--mutate", "--patterns", "12"),
    _cli("--mutate", "--banks", "1", "--patterns", "64", "--shards", "2"),
    *(ProductPath(
        f"perfbench {workload} --trace {trace}", "perfbench/run.py",
        ("--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", trace),
    ) for workload in ("knn", "churn") for trace in ("0", "1")),
    ProductPath(
        "pytest benchmarks", "pytest",
        ("benchmarks", "-q", "--benchmark-disable", "-p",
         "no:cacheprovider"),
        module=True, in_root=True,
    ),
)


# ------------------------------------------------------------ recording
def record(out: Path, path: ProductPath, root: Path) -> None:
    """Run ``path`` in this process under the line recorder; at exit,
    write ``{"lines": {file: [line]}, "entered": {file: [[first, name]]}}``
    to ``out``, files relative to ``root/src``.  Exits with the path's
    status."""
    prefix = str((root / "src").resolve()) + os.sep
    inside: Dict[str, Optional[str]] = {}
    lines: Dict[str, Set[int]] = {}
    entered: Dict[str, Set[Tuple[int, str]]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        name = inside.get(code.co_filename, False)
        if name is False:
            real = os.path.realpath(code.co_filename)
            name = real[len(prefix):] if real.startswith(prefix) else None
            inside[code.co_filename] = name
            if name is not None:
                lines.setdefault(name, set())
                entered.setdefault(name, set())
        if name is None:
            return None
        entered[name].add((code.co_firstlineno, code.co_name))
        lines[name].add(frame.f_lineno)
        return local

    def write() -> None:
        sys.settrace(None)
        threading.settrace(None)
        out.write_text(json.dumps({
            "lines": {f: sorted(s) for f, s in list(lines.items())},
            "entered": {f: sorted(s) for f, s in list(entered.items())},
        }))

    # Registered first, so it runs after every handler the path itself
    # registers, and after non-daemon threads are joined.
    atexit.register(write)
    if path.module:
        sys.argv = [path.target, *path.args]
        sys.path[0] = os.getcwd()
    else:
        script = str(root / path.target)
        sys.argv = [script, *path.args]
        sys.path[0] = os.path.dirname(script)
    threading.settrace(tracer)
    sys.settrace(tracer)
    if path.module:
        runpy.run_module(path.target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(script, run_name="__main__")


class Outcome(NamedTuple):
    """What one path's subprocess did."""

    path: ProductPath
    status: int
    seconds: float
    record: dict


def run_path(path: ProductPath, root: Path) -> Outcome:
    """Run one product path in its own traced subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str((root / "src").resolve())]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = Path(tmp) / "record.json"
        work = Path(tmp) / "work"
        work.mkdir()
        (work / "arch.json").write_text(json.dumps(ARCH_JSON))
        command = [
            sys.executable, str(Path(__file__).resolve()), "--record",
            str(out), "--root", str(root), "--", json.dumps(path),
        ]
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=str(root if path.in_root else work), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - started
        data = (json.loads(out.read_text()) if out.exists()
                else {"lines": {}, "entered": {}})
    return Outcome(path, done.returncode, seconds, data)


def measure(paths: Sequence[ProductPath], root: Path = ROOT) -> List[Outcome]:
    """Run ``paths`` (:data:`JOBS` at a time) against ``root/src``;
    outcomes come back in the given order."""
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(lambda p: run_path(p, root), paths))


# ------------------------------------------------------------- analysis
def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _own_lines(code: types.CodeType) -> Set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _is_function(code: types.CodeType) -> bool:
    """A def or lambda; comprehension bodies count with their owner."""
    return bool(code.co_flags & _CO_OPTIMIZED) and (
        not code.co_name.startswith("<") or code.co_name == "<lambda>"
    )


class Unentered(NamedTuple):
    """An outermost function no path entered."""

    file: str
    line: int
    name: str
    unreached: int


def analyse(src: Path, outcomes: Sequence[Outcome]):
    """Merge the records against ``src``'s executable lines.

    Returns ``(files, functions)``: ``files`` maps each file (relative
    to ``src``) to ``(executable lines, sorted unreached lines)``;
    ``functions`` lists every unentered function whose enclosing
    function, if any, was entered, largest first."""
    reached: Dict[str, Set[int]] = {}
    entered: Dict[str, Set[Tuple[int, str]]] = {}
    for outcome in outcomes:
        for name, found in outcome.record["lines"].items():
            reached.setdefault(name, set()).update(found)
        for name, found in outcome.record["entered"].items():
            entered.setdefault(name, set()).update(map(tuple, found))
    files: Dict[str, Tuple[int, List[int]]] = {}
    functions: List[Unentered] = []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        seen = reached.get(name, set())
        executable: Set[int] = set()
        for code in _code_objects(module):
            executable |= _own_lines(code)
        files[name] = (len(executable), sorted(executable - seen))
        called = entered.get(name, set())

        def visit(code: types.CodeType) -> None:
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                if _is_function(const) and (
                    (const.co_firstlineno, const.co_name) not in called
                ):
                    body: Set[int] = set()
                    for inner in _code_objects(const):
                        body |= _own_lines(inner)
                    functions.append(Unentered(
                        name, const.co_firstlineno,
                        getattr(const, "co_qualname", const.co_name),
                        len(body - seen),
                    ))
                else:
                    visit(const)

        visit(module)
    functions.sort(key=lambda f: (-f.unreached, f.file, f.line))
    return files, functions


def _ranges(lines: Sequence[int]) -> str:
    spans: List[str] = []
    for line in lines:
        if spans and line == last + 1:
            spans[-1] = f"{spans[-1].split('-')[0]}-{line}"
        else:
            spans.append(str(line))
        last = line
    return ", ".join(spans)


def format_report(outcomes: Sequence[Outcome], files, functions) -> List[str]:
    out = ["== product paths (exit status, seconds) =="]
    for outcome in outcomes:
        out.append(f"  exit {outcome.status:3d}  {outcome.seconds:7.1f}  "
                   f"{outcome.path.label}")
    out.append("== unreached executable lines, per file ==")
    for name, (total, missed) in files.items():
        if missed:
            out.append(f"  {len(missed):5d}/{total:5d}  {name}: "
                       f"{_ranges(missed)}")
    out.append("== functions no path entered (unreached lines) ==")
    for f in functions:
        out.append(f"  {f.unreached:5d}  {f.file}:{f.line}  {f.name}")
    executable = sum(total for total, _ in files.values())
    unreached = sum(len(missed) for _, missed in files.values())
    share = 100.0 * unreached / executable if executable else 0.0
    failed = sum(1 for o in outcomes if o.status != 0)
    out.append("== totals ==")
    out.append(f"  executable lines {executable}, unreached {unreached} "
               f"({share:.1f}%)")
    out.append(f"  functions never entered {len(functions)}, holding "
               f"{sum(f.unreached for f in functions)} unreached lines")
    out.append(f"  product paths {len(outcomes)}, non-zero exit {failed}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("path", nargs="?", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record is not None:
        label, target, path_args, module, in_root = json.loads(args.path)
        record(args.record, ProductPath(
            label, target, tuple(path_args), module, in_root), args.root)
        return 0
    outcomes = measure(PRODUCT_PATHS)
    files, functions = analyse(ROOT / "src", outcomes)
    print("\n".join(format_report(outcomes, files, functions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
