"""``tools/reach.py``: which lines and functions a path reaches."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _TOOL)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = '''\
import threading


def called():
    return 1


def in_thread():
    return 2


def uncalled():
    value = 3
    return value


def run():
    called()
    worker = threading.Thread(target=in_thread)
    worker.start()
    worker.join()
'''


def _tree(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "run.py").write_text(textwrap.dedent("""\
        import pkg.mod

        pkg.mod.run()
    """))
    return tmp_path


def test_reports_only_the_uncalled_function(tmp_path):
    root = _tree(tmp_path)
    path = reach.ProductPath("run", "run.py")
    outcomes = reach.measure([path], root=root)
    assert [o.status for o in outcomes] == [0]
    files, functions = reach.analyse(root / "src", outcomes)
    assert [(f.file, f.name, f.unreached) for f in functions] == [
        ("pkg/mod.py", "uncalled", 2)
    ]
    # Only the uncalled body is unreached: the thread's function counts.
    assert files["pkg/mod.py"][1] == [13, 14]
    assert files["pkg/__init__.py"][1] == []


def test_failing_path_is_reported_not_raised(tmp_path):
    root = _tree(tmp_path)
    (root / "fail.py").write_text("import sys\nsys.exit(3)\n")
    outcomes = reach.measure([reach.ProductPath("fail", "fail.py")], root=root)
    assert outcomes[0].status == 3
    files, functions = reach.analyse(root / "src", outcomes)
    assert {f.name for f in functions} == {"called", "in_thread",
                                           "uncalled", "run"}
    report = "\n".join(reach.format_report(outcomes, files, functions))
    assert "exit   3" in report and "functions never entered 4" in report


def test_product_paths_cover_every_cli_mode_flag():
    flags = {arg for p in reach.PRODUCT_PATHS if p.target == "repro.cli"
             for arg in p.args if arg.startswith("--")}
    assert flags >= {
        "--arch", "--rows", "--cols", "--cam-type", "--bits", "--target",
        "--patterns", "--dims", "--queries", "--batch", "--banks",
        "--shards", "--replicas", "--tenants", "--cluster", "--priority",
        "--mutate", "--serve", "--seed", "--dump-ir", "--pipeline",
        "--stats",
    }
