import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "compare_outputs.py")
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

HEADER = "trial,solver,log10_error,mean_error,iterations,status\n"


def _dirs(tmp_path, text_a, text_b):
    for side, text in (("a", text_a), ("b", text_b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "out.csv").write_text(text)
    return str(tmp_path / "a"), str(tmp_path / "b")


@pytest.mark.parametrize("row_a,row_b,ok", [
    ("0,e3sift,-3.5,1.25,7,ok", "0,e3sift,-3.5,1.25,7,ok", True),
    ("0,e3sift,-3.5,1.25,7,ok", "0,e3sift,-3.5000000000001,1.2500000000001,7,ok", True),
    ("0,e3sift,-3.5,1.25,7,ok", "0,e3sift,-3.5001,1.25,7,ok", False),
    # roundoff floor: log10 values at or below -9, errors less than 1e-9 apart
    ("0,e3sift,-12.4,1.3e-08,7,ok", "0,e3sift,-12.6,1.30001e-08,7,ok", True),
    ("0,e3sift,-8.4,1.25,7,ok", "0,e3sift,-8.6,1.25,7,ok", False),
    ("0,e3sift,-3.5,1.25,7,ok", "0,e3sift,-3.5,1.25,8,ok", False),
    ("0,e3sift,-3.5,1.25,7,ok", "0,e3sift,-3.5,1.25,7,no-model", False),
    ("0,e3sift,nan,nan,7,ok", "0,e3sift,nan,nan,7,ok", True),
    ("0,e3sift,nan,1.25,7,ok", "0,e3sift,-3.5,1.25,7,ok", False),
])
def test_field_rules(tmp_path, row_a, row_b, ok):
    dir_a, dir_b = _dirs(tmp_path, HEADER + row_a + "\n", HEADER + row_b + "\n")
    assert compare_outputs.compare_dirs(dir_a, dir_b) is ok


def test_reordered_lines_match(tmp_path, capsys):
    text_a = "solution 0\nF 1.0 2.0\nsolution 1\nF 3.0 4.0\n"
    text_b = "solution 0\nF 3.0 4.0\nsolution 1\nF 1.0000000000001 2.0\n"
    assert compare_outputs.compare_dirs(*_dirs(tmp_path, text_a, text_b))
    assert "lines reordered" in capsys.readouterr().out


def test_file_in_one_directory_is_changed(tmp_path):
    dir_a, dir_b = _dirs(tmp_path, HEADER, HEADER)
    (tmp_path / "b" / "extra.csv").write_text(HEADER)
    assert not compare_outputs.compare_dirs(dir_a, dir_b)
