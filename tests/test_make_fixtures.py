import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixtures_regenerate(tmp_path, capsys):
    """make_fixtures.py rewrites the committed fixtures, mini dataset included."""
    _script("make_fixtures").main([str(tmp_path)])
    ok = _script("compare_outputs").compare_dirs(os.path.join(ROOT, "fixtures"), str(tmp_path))
    assert ok, capsys.readouterr().out
